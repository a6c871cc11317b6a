"""Traced run: per-layer metrics from spans recorded in the benchmark's own code.

Each attack input first goes through `attack()` untimed by any span, then
through a recomposition that calls the same public functions in the order
`attack` calls them, one span per call.  Two calls nested inside those
(`gf2.coset_min_poly` and `lfsr.lfsr_generate`) are timed as separate direct
calls on the same inputs, since the package records no spans of its own.

Every function is resolved by its public name.  Once a later change removes
one, its metrics are reported as absent (listed in the run record), never as
zero; so are the recomposed phases that need its result.  Work counters come
from one untimed pass over a fixed part of the inputs, so one seed gives the
same counts on every run of one commit.
"""

from __future__ import annotations

import importlib
import io
import random
import tempfile
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import cycle
from pathlib import Path
from time import perf_counter

from harness import (Gate, Kind, Raised, closed_loop, make_key, median, outcome_of, prepare, resolve,
                     timed_call)
from workloads import POLYS, PRIMITIVITY_DEGREES

PRIMITIVITY_SAMPLES = 9
SHRINK_CALLS_PER_BRUTE = 16

LAYERS = {
    name: resolve(name)
    for name in (
        "interleaved.KnownBits", "interleaved.build_ic",
        "attack.AttackInput", "attack.column_poly", "attack.row_positions",
        "attack.extend_column", "attack.recover_srs",
        "gf2.coset_min_poly", "gf2.poly_is_primitive",
        "lfsr.LfsrSpec", "lfsr.LfsrState", "lfsr.lfsr_generate",
        "generator.ShrinkingKey", "generator.shrink", "cli.run",
    )
}

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "attack.call_s": "s",
    "interleaved.known_bits_s": "s",
    "interleaved.build_ic_s": "s",
    "attack.column_poly_s": "s",
    "gf2.coset_min_poly_s": "s",
    "attack.row_positions_s": "s",
    "attack.extend_column_s": "s",
    "lfsr.generate_s": "s",
    "lfsr.stream_bits_per_s": "bit/s",
    "attack.recover_srs_s": "s",
    "attack.regeneration_s": "s",
    "attack.residual_s": "s",
    "trace_overhead_frac": "ratio",
    "attack.brute_force_s": "s",
    "generator.shrink_call_s": "s",
    "generator.shrink_bits_per_s": "bit/s",
    "gf2.poly_is_primitive_s": "s",
    **{f"gf2.poly_is_primitive_d{d}_s": "s" for d in PRIMITIVITY_DEGREES},
    "cli.attack_run_s": "s",
    "cli.overhead_s": "s",
    "attack.comparisons": "count",
    "attack.column_bits_expanded": "count",
    "attack.known_bits": "count",
    "attack.brute_keys": "count",
    "generator.bits_shrunk": "count",
}

# The recomposed phases of `attack`, whose shares of attack.call_s the record lists.
PHASES = ("interleaved.known_bits_s", "interleaved.build_ic_s", "attack.column_poly_s",
          "attack.row_positions_s", "attack.extend_column_s", "attack.recover_srs_s",
          "attack.regeneration_s")


class _Absent(Exception):
    """A layer function no longer exists under its public name."""


class Spans:
    """Span durations by metric name, in memory until the run ends.

    A throughput is the bits of all its calls over their seconds.
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.throughput = defaultdict(lambda: [0, 0.0])
        self.absent = {}

    def add_throughput(self, name: str, bits: int, seconds: float) -> None:
        total = self.throughput[name]
        total[0] += bits
        total[1] += seconds

    def time(self, name: str, fn, *args):
        if fn is None:
            self.absent.setdefault(name, "function removed")
            raise _Absent(name)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples[name].append(perf_counter() - start)


def _regenerate(spec, key, known: dict) -> bool:
    """The regeneration check of `attack`: shrink to the last known bit, then compare."""
    z = LAYERS["generator.shrink"](spec, key, max(known) + 1)
    return all(z[p] == bit for p, bit in known.items())


def _recompose(spans: Spans, spec, case, expected_error) -> tuple[list, object]:
    """Run attack's phases one span each; stop where attack would stop.

    Returns the spans this input added and the column polynomial, if reached.
    """
    a, s = case.size
    fn = LAYERS
    before = {name: len(spans.samples[name]) for name in PHASES}
    pd = None
    try:
        known = spans.time("interleaved.known_bits_s", fn["interleaved.KnownBits"], case.known)
        ic = spans.time("interleaved.build_ic_s", fn["interleaved.build_ic"], known, a, s)
        pd = spans.time("attack.column_poly_s", fn["attack.column_poly"], spec)
        rows = spans.time("attack.row_positions_s", fn["attack.row_positions"], a, s)
        col0 = [ic.cell(n, 0) for n in range(a)]
        d0 = spans.time("attack.extend_column_s", fn["attack.extend_column"], col0, pd)
        sra = fn["lfsr.LfsrState"](tuple(d0[n] for n in rows))
        srs, _ = spans.time("attack.recover_srs_s", fn["attack.recover_srs"],
                            fn["attack.AttackInput"](spec, known), d0, sra)
        key = fn["generator.ShrinkingKey"](sra, srs)
        spans.time("attack.regeneration_s", _regenerate, spec, key, case.known)
    except (_Absent, expected_error, ValueError):
        pass  # corrupted data stops the chain where attack stops, as does a removed function
    except TypeError as exc:  # a later change altered a signature
        spans.absent.setdefault("recomposition", f"TypeError: {exc}")
    added = [spans.samples[n][-1] for n in PHASES if len(spans.samples[n]) > before[n]]
    return added, pd


def _child_spans(spans: Spans, spec, case, pd) -> None:
    """Time the calls nested in column_poly and extend_column on their own."""
    a, s = case.size
    fn = LAYERS
    try:
        coset_pd = spans.time("gf2.coset_min_poly_s", fn["gf2.coset_min_poly"], (1 << s) - 1, spec.pa)
    except _Absent:
        coset_pd = None
    except TypeError as exc:
        spans.absent.setdefault("gf2.coset_min_poly_s", f"TypeError: {exc}")
        coset_pd = None
    pd = pd if pd is not None else coset_pd
    if pd is None or fn["lfsr.LfsrSpec"] is None:
        return
    try:
        cols = 1 << (s - 1)
        state = fn["lfsr.LfsrState"](tuple(case.known[n * cols] for n in range(a)))
        period = (1 << a) - 1
        spans.time("lfsr.generate_s", fn["lfsr.lfsr_generate"], fn["lfsr.LfsrSpec"](pd), state, period)
        spans.add_throughput("lfsr.stream_bits_per_s", period, spans.samples["lfsr.generate_s"][-1])
    except _Absent:
        pass
    except TypeError as exc:
        spans.absent.setdefault("lfsr.generate_s", f"TypeError: {exc}")


@contextmanager
def _counting(module_name: str, name: str, tally: dict):
    """Count the calls and output bits of `module.name` as that module sees it."""
    module = importlib.import_module(f"shrinkgen.{module_name}")
    original = getattr(module, name, None)
    if original is None:
        yield
        return

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        tally["calls"] += 1
        tally["bits"] += len(out)
        return out

    setattr(module, name, counted)
    try:
        yield
    finally:
        setattr(module, name, original)


def _count_pass(sg, inputs, pkg) -> dict:
    """Exact work counters over the first genuine and corrupted input of each size,
    one brute_force call and one long shrink run."""
    picked = {}
    for i, c in enumerate(inputs.attacks):
        picked.setdefault((c.size, c.corrupted), i)
    counts = {"attack.known_bits": 0, "attack.brute_keys": 0, "generator.bits_shrunk": 0}
    work = defaultdict(int)
    seen = set()
    tally = {"calls": 0, "bits": 0}
    with _counting("attack", "shrink", tally):
        for i in sorted(picked.values()):
            counts["attack.known_bits"] += len(inputs.attacks[i].known)
            result, _ = timed_call(sg.attack, pkg.attacks[i])
            for field in ("comparisons", "column_bits_expanded"):
                value = getattr(getattr(result, "work", None), field, None)
                if isinstance(value, int):
                    work[field] += value
                    seen.add(field)
        calls_before = tally["calls"]
        sg.brute_force(pkg.brutes[0])
        counts["attack.brute_keys"] = tally["calls"] - calls_before
    out = sg.shrink(pkg.shrink_spec, pkg.shrink_key, len(inputs.shrink.expected))
    counts["generator.bits_shrunk"] = tally["bits"] + len(out)
    for field in seen:
        counts[f"attack.{field}"] = work[field]
    return counts


def _primitivity(spans: Spans, sg, workload) -> dict:
    """Cold `poly_is_primitive` per degree; the public cache is cleared before
    each sample, while the private factor cache stays warm from a first call."""
    fn = LAYERS["gf2.poly_is_primitive"]
    if fn is None:
        spans.absent["gf2.poly_is_primitive_s"] = "function removed"
        return {}
    clear = getattr(fn, "cache_clear", lambda: None)
    own = sorted({d for size in workload.specs() for d in size})
    per_degree = {}
    for d in sorted(set(own) | set(PRIMITIVITY_DEGREES)):
        p = sg.BinaryPolynomial.parse(POLYS[d])
        fn(p)
        samples = []
        for _ in range(PRIMITIVITY_SAMPLES):
            clear()
            start = perf_counter()
            fn(p)
            samples.append(perf_counter() - start)
        per_degree[d] = median(samples)
    for d in PRIMITIVITY_DEGREES:
        spans.samples[f"gf2.poly_is_primitive_d{d}_s"] = [per_degree[d]]
    # The primitivity share of setup_s: one cold test per polynomial the workload constructs.
    spans.samples["gf2.poly_is_primitive_s"] = [sum(per_degree[d] for d in own)]
    return {str(d): t for d, t in per_degree.items()}


def _write_known(directory: Path, i: int, known: dict) -> Path:
    path = directory / f"known-{i}.txt"
    path.write_text("".join(f"{p} {b}\n" for p, b in sorted(known.items())), encoding="ascii")
    return path


def run_traced(sg, workload, inputs, seconds: float, seed: int):
    cases, sc = inputs.attacks, inputs.shrink
    pkg = prepare(sg, workload, inputs)
    specs = pkg.specs
    error = sg.InterceptedDataError

    counts = _count_pass(sg, inputs, pkg)

    spans = Spans()
    gate = Gate()
    outcomes, residuals, overheads = [], [], []
    rng = random.Random(seed)
    a, s = workload.brute_size
    candidates = [make_key(sg, tuple(rng.randint(0, 1) for _ in range(a - 1)) + (1,),
                           (1,) + tuple(rng.randint(0, 1) for _ in range(s - 1)))
                  for _ in range(SHRINK_CALLS_PER_BRUTE)]
    next_attack, next_brute = cycle(range(len(cases))), cycle(range(len(pkg.brutes)))
    cli_run = LAYERS["cli.run"]

    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        known_files = {}

        def attack_step():
            i = next(next_attack)
            c = cases[i]
            begin = perf_counter()
            result, call_s = timed_call(sg.attack, pkg.attacks[i])
            spans.samples["attack.call_s"].append(call_s)
            outcomes.append((i, outcome_of(result)))
            start = perf_counter()
            added, pd = _recompose(spans, specs[c.size], c, error)
            wall = perf_counter() - start
            residuals.append(call_s - sum(added))
            overheads.append(wall / call_s - 1)
            if not c.corrupted:
                _child_spans(spans, specs[c.size], c, pd)
                if cli_run is not None:
                    cli_step(i, c, call_s, result)
            return perf_counter() - begin

        def cli_step(i, c, call_s, result):
            if i not in known_files:
                known_files[i] = _write_known(Path(tmp), i, c.known)
            argv = ["attack", "--pa", POLYS[c.size[0]], "--ps", POLYS[c.size[1]],
                    "--known", str(known_files[i])]
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_run(argv)
            took = perf_counter() - start
            spans.samples["cli.attack_run_s"].append(took)
            spans.samples["cli.overhead_s"].append(took - call_s)
            expected = None if isinstance(result, Raised) else result.to_text()
            gate.record(code == 0 and out.getvalue() == expected,
                        f"cli attack on input {i}: exit {code}, stderr {err.getvalue()!r}")

        def brute_step():
            i = next(next_brute)
            c = inputs.brutes[i]
            begin = perf_counter()
            keys, took = timed_call(sg.brute_force, pkg.brutes[i])
            spans.samples["attack.brute_force_s"].append(took)
            gate.brute_force(c, keys)
            need = max(c.known) + 1
            for key in candidates:
                spans.time("generator.shrink_call_s", sg.shrink, specs[c.size], key, need)
            return perf_counter() - begin

        def shrink_step():
            out, took = timed_call(sg.shrink, pkg.shrink_spec, pkg.shrink_key, len(sc.expected))
            spans.add_throughput("generator.shrink_bits_per_s", len(sc.expected), took)
            gate.shrink(out, sc.expected)
            return took

        share = workload.shares
        closed_loop([Kind("attack", share["attack"], len({c.size for c in cases}) * 2, attack_step),
                     Kind("brute", share["brute"], 1, brute_step),
                     Kind("shrink", share["shrink"], 1, shrink_step)], seconds)

    gate.attacks(cases, outcomes, error)
    spans.samples["attack.residual_s"] = residuals
    spans.samples["trace_overhead_frac"] = overheads
    per_degree = _primitivity(spans, sg, workload)

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in counts:
            metrics[name] = (counts[name], unit)
        elif name in spans.throughput:
            bits, seconds = spans.throughput[name]
            metrics[name] = (bits / seconds, unit)
        elif spans.samples.get(name):
            metrics[name] = (median(spans.samples[name]), unit)
    call = median(spans.samples["attack.call_s"])
    shares = {p: metrics[p][0] / call for p in PHASES if p in metrics}
    record = {
        "absent": sorted(set(PER_LAYER) - set(metrics)),
        "absent_reasons": spans.absent,
        "phase_share_of_attack_call": shares,
        "largest_phase": max(shares, key=shares.get) if shares else None,
        "count_pass": "first genuine and first corrupted input of each attack size, "
                      "one brute_force call, one long shrink run",
        "primitivity_s": per_degree,
        "factor_cache": "private _prime_factors cache warm from one untimed call per degree; "
                        "public poly_is_primitive cache cleared before each sample",
        "samples": {name: len(v) for name, v in sorted(spans.samples.items())},
    }
    return metrics, gate, record
