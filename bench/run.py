"""shrinkgen benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload attack-large --seed 1 --seconds 30 --trace 0

A single process on a single thread drives the package through its public
functions as a closed loop: one caller issues each call after the previous
one returns.  Every output is checked against an independent reference
outside the timed region.  Timings are scaled to a reference machine speed
by a calibration probe timed between the calls (see harness.Calibration).  With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` a separate traced run reports the
per-layer metrics (see traced.py).  The line before it is the run record:
machine, seed, commit, sizes, polynomials and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from itertools import cycle
from time import perf_counter

from harness import (
    CAL_REF_S,
    CAL_WINDOW_S,
    ROOT,
    SRC,
    Calibration,
    Gate,
    Kind,
    closed_loop,
    import_package,
    median,
    outcome_of,
    prepare,
    tail,
    timed_call,
)
from workloads import POLYS, WORKLOADS, Workload, make_inputs

SETUP_REPEATS = 15
SETUP_PROBES = 1  # calibration probes before and after each set-up process
# The tail needs 11 attack calls; the margin keeps its percentile above the median.
MIN_ATTACKS = 22
MIN_SAMPLES = 5

# Child process for setup_s: interpreter start, `import shrinkgen`, and every
# SgSpec of the workload with cold primitivity caches.  Both processes read
# the same system-wide monotonic clock, so the child's reading less the
# parent's reading before the spawn is the time from process start.
_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import shrinkgen as sg
for pa, ps in zip(sys.argv[2::2], sys.argv[3::2]):
    sg.SgSpec(sg.BinaryPolynomial.parse(pa), sg.BinaryPolynomial.parse(ps))
print(time.perf_counter())
"""


def measure_setup(workload: Workload, calibration: Calibration) -> list[tuple[float, float]]:
    """(start, seconds) of each set-up process, with probes around it."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC)]
    argv += [POLYS[d] for size in workload.specs() for d in size]
    samples = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            calibration.probe()
        start = perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        samples.append((start, float(done.stdout) - start))
        for _ in range(SETUP_PROBES):
            calibration.probe()
    return samples


def peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_timed(sg, workload: Workload, inputs, seconds: float):
    """End-to-end metrics, with no tracing.

    Every timing is scaled to the calibration probe's reference speed; the
    run record keeps the raw values beside them.
    """
    calibration = Calibration()
    setup = measure_setup(workload, calibration)
    attack, brute_force, shrink = sg.attack, sg.brute_force, sg.shrink
    cases, sc = inputs.attacks, inputs.shrink
    pkg = prepare(sg, workload, inputs)
    attack_inputs, brute_inputs = pkg.attacks, pkg.brutes

    first_genuine = {}
    for i, c in enumerate(cases):
        if not c.corrupted:
            first_genuine.setdefault(c.size, i)
    # The untimed memory pass doubles as the warm-up: one call per size, so
    # that lazy set-up is not paid by the first timed call.
    peak = max(peak_mib(lambda i=i: timed_call(attack, attack_inputs[i])) for i in first_genuine.values())
    brute_force(brute_inputs[0])
    shrink(pkg.shrink_spec, pkg.shrink_key, 1024)

    gate = Gate()
    attack_log, brute_log, shrink_log = [], [], []
    next_attack, next_brute = cycle(range(len(cases))), cycle(range(len(brute_inputs)))

    def attack_step():
        i = next(next_attack)
        start = perf_counter()
        result, took = timed_call(attack, attack_inputs[i])
        attack_log.append((i, start, took, outcome_of(result)))
        return took

    def brute_step():
        i = next(next_brute)
        start = perf_counter()
        keys, took = timed_call(brute_force, brute_inputs[i])
        brute_log.append((start, took))
        gate.brute_force(inputs.brutes[i], keys)
        return took

    def shrink_step():
        start = perf_counter()
        out, took = timed_call(shrink, pkg.shrink_spec, pkg.shrink_key, len(sc.expected))
        gate.shrink(out, sc.expected)
        shrink_log.append((start, took))
        return took

    share = workload.shares
    closed_loop([Kind("attack", share["attack"], MIN_ATTACKS, attack_step),
                 Kind("brute", share["brute"], MIN_SAMPLES, brute_step),
                 Kind("shrink", share["shrink"], MIN_SAMPLES, shrink_step)], seconds, calibration)

    gate.attacks(cases, [(i, outcome) for i, _, _, outcome in attack_log], sg.InterceptedDataError)

    def timings(scale):
        attacks = [scale(start, t) for _, start, t, _ in attack_log]
        genuine = [t for (i, *_), t in zip(attack_log, attacks) if not cases[i].corrupted]
        corrupt = [t for (i, *_), t in zip(attack_log, attacks) if cases[i].corrupted]
        shrinks = [scale(*call) for call in shrink_log]
        return {
            "attack_p50_s": median(genuine),
            "attack_tail_s": tail(attacks)[0],
            "corrupt_p50_s": median(corrupt),
            # Calls per second of the loop's attack time, with the gate's checks deferred.
            "attacks_per_s": len(attacks) / sum(attacks),
            "brute_p50_s": median(scale(*call) for call in brute_log),
            "keystream_bits_per_s": len(sc.expected) * len(shrinks) / sum(shrinks),
            "setup_s": median(scale(*call) for call in setup),
        }

    scaled = timings(calibration.scaled)
    units = {"attacks_per_s": "1/s", "keystream_bits_per_s": "bit/s"}
    metrics = {name: (value, units.get(name, "s")) for name, value in scaled.items()}
    metrics["attack_peak_mib"] = (peak, "MiB")
    _, tail_pct, tail_n, tail_blocks = tail([took for _, _, took, _ in attack_log])
    genuine = sum(not cases[i].corrupted for i, *_ in attack_log)
    record = {
        "timings": "each call's seconds times CAL_REF_S over the median calibration probe "
                   f"within {CAL_WINDOW_S} s of the call; p50 is the median of the scaled calls",
        "calibration": {"ref_s": CAL_REF_S, "probes": len(calibration.seconds),
                        "probe_median_s": median(calibration.seconds)},
        "unscaled": timings(lambda start, took: took),
        "attack_tail": {"percentile": round(tail_pct, 2), "samples_per_block": tail_n,
                        "blocks": tail_blocks, "over": "genuine and corrupted attack calls"},
        "samples": {"genuine_attacks": genuine, "corrupted_attacks": len(attack_log) - genuine,
                    "brute_force": len(brute_log), "shrink": len(shrink_log),
                    "setup": len(setup)},
        "setup_samples_s": [took for _, took in setup],
    }
    return metrics, gate, record


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: Workload, seed: int, seconds: float, trace: bool):
    """One run; returns (run record, result object for the last stdout line)."""
    sg = import_package()
    inputs = make_inputs(workload, seed)
    if trace:
        from traced import run_traced

        metrics, gate, detail = run_traced(sg, workload, inputs, seconds, seed)
    else:
        metrics, gate, detail = run_timed(sg, workload, inputs, seconds)
    failed = len(gate.failures)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed: one process, one thread, one caller",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "grid": {"attack": workload.attack_sizes, "brute_force": workload.brute_size,
                 "shrink": workload.shrink_size, "shrink_bits": workload.shrink_bits,
                 "keys_per_size": workload.keys_per_size, "extra_known": workload.extra_known},
        "polys": {str(d): POLYS[d] for d in sorted({d for size in workload.specs() for d in size})},
        "shares": workload.shares,
        "failed_frac": failed / gate.attempted,
        "failures": gate.failures[:5],
        **detail,
    }
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    record, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
