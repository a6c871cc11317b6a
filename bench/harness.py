"""Pieces shared by the timed and the traced run.

Imports the package from the checkout's `src/`, turns generated inputs into
package objects, runs the closed loop and computes the statistics.
"""

from __future__ import annotations

import gc
import importlib
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, NamedTuple

from reference import attack_ok
from workloads import POLYS, exponents

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import `shrinkgen` from this checkout, never from an installed copy."""
    init = SRC / "shrinkgen" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run the benchmark from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shrinkgen

    if Path(shrinkgen.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported shrinkgen from {shrinkgen.__file__}, not from {SRC}")
    return shrinkgen


def resolve(dotted: str):
    """`shrinkgen.<module>.<name>` by its public name, or None once it is gone."""
    module_name, _, name = dotted.rpartition(".")
    try:
        module = importlib.import_module(f"shrinkgen.{module_name}")
    except ImportError:
        return None
    return getattr(module, name, None)


def make_spec(sg, size):
    a, s = size
    return sg.SgSpec(sg.BinaryPolynomial.parse(POLYS[a]), sg.BinaryPolynomial.parse(POLYS[s]))


def make_key(sg, sra, srs):
    return sg.ShrinkingKey(sg.LfsrState(sra), sg.LfsrState(srs))


@dataclass(frozen=True)
class Prepared:
    """A run's generated inputs as package objects."""

    specs: dict  # (A, S) -> SgSpec
    attacks: list  # AttackInput per Case of Inputs.attacks
    brutes: list  # AttackInput per Case of Inputs.brutes
    shrink_spec: object
    shrink_key: object


def prepare(sg, workload, inputs) -> Prepared:
    specs = {size: make_spec(sg, size) for size in workload.specs()}

    def attack_input(case):
        return sg.AttackInput(specs[case.size], sg.KnownBits(case.known))

    sc = inputs.shrink
    return Prepared(specs, [attack_input(c) for c in inputs.attacks],
                    [attack_input(c) for c in inputs.brutes], specs[sc.size], make_key(sg, sc.sra, sc.srs))


def key_bits(key) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(key.sra_state.bits), tuple(key.srs_state.bits)


@dataclass
class Kind:
    """One operation kind of the closed loop."""

    name: str
    share: float  # share of the measured time
    min_samples: int
    step: Callable[[], float]  # runs the next operation and returns its seconds
    spent: float = 0.0
    count: int = 0


# Calibration: a fixed probe, timed between the package's calls, tracks the
# machine's speed.  On a shared 2-vCPU x86 VM the speed drifts by up to 1.7x
# over seconds to minutes, in CPU time as in wall time.  Each call's seconds
# are scaled by CAL_REF_S over the median probe near it.  Over ten seeds per
# workload on that VM, the quartile spread of a metric reached 0.22 of its
# median unscaled and 0.10 scaled.
#
# The probe builds a list of CAL_BITS bits in the interpreter and copies it
# into a tuple, like the package's column and keystream generation, and like
# it outgrows the CPU caches.  On all three workloads the logarithm of a
# call's time moved 0.8 to 1.1 times as much as that of this probe; against
# a cache-resident probe it moved only 0.45 to 0.75 times as much, so scaling
# by that probe over-corrected.
CAL_BITS = 1 << 20
CAL_SHARE = 0.08  # probes take this share of the loop's time, run between calls
CAL_WINDOW_S = 1.0  # probes this close to a call, before or after it, set its scale
# About the probe's median seconds on a 2-vCPU x86 VM under Python 3.11.
# Scaled timings read as seconds on a machine that runs the probe this fast.
CAL_REF_S = 0.05


def _probe_work() -> int:
    return len(tuple([k & 1 for k in range(CAL_BITS)]))


class Calibration:
    """Probe times through a run, and timings scaled by them.

    The probe is the benchmark's own code, which no change to the package
    can speed up or slow down.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.start_budget()
        for _ in range(3):  # warm-up
            _probe_work()

    def start_budget(self) -> None:
        """Count the probes' share of the time from now on."""
        self.begin = perf_counter()
        self.spent = 0.0

    def probe(self) -> None:
        start = perf_counter()
        _probe_work()
        took = perf_counter() - start
        self.starts.append(start)
        self.seconds.append(took)
        self.spent += took

    def probe_if_due(self) -> None:
        """Probe until the probes have taken CAL_SHARE of the budget's time."""
        while self.spent < CAL_SHARE * (perf_counter() - self.begin):
            self.probe()

    def scaled(self, start: float, took: float) -> float:
        """`took` seconds of a call that started at perf_counter() `start`, at reference speed.

        Scales by the median probe within CAL_WINDOW_S of the call, or by the
        probes just before and after it if none is that close.
        """
        lo = bisect_left(self.starts, start - CAL_WINDOW_S)
        hi = bisect_right(self.starts, start + took + CAL_WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds[max(0, lo - 1):lo + 1]
        return took * CAL_REF_S / median(near)


def closed_loop(kinds: list[Kind], seconds: float, calibration: Calibration | None = None) -> None:
    """Issue each operation after the previous one returns, for `seconds`.

    The next operation comes from the kind that has used the least of its
    share, so kinds interleave and share machine noise alike.  Past the
    deadline only kinds still short of their minimum sample count run.
    Between operations `calibration`, if given, probes the machine's speed,
    outside the kinds' time.  The benchmark's own objects are frozen out of
    garbage collection, so the collections that calls trigger do not grow
    with the benchmark's heap.
    """
    gc.collect()
    gc.freeze()
    try:
        if calibration:
            calibration.start_budget()
        deadline = perf_counter() + seconds
        while True:
            late = perf_counter() >= deadline
            due = [k for k in kinds if not late or k.count < k.min_samples]
            if not due:
                break
            if calibration:
                calibration.probe_if_due()
            kind = min(due, key=lambda k: k.spent / k.share)
            kind.spent += kind.step()
            kind.count += 1
        if calibration:
            calibration.probe()
    finally:
        gc.unfreeze()


TAIL_BLOCK = 200


def tail(values: list) -> tuple[float, float, int, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    `values` are in call order.  A run of at least two TAIL_BLOCKs is cut
    into blocks of that many consecutive calls, and the median of the
    blocks' tails is reported: a burst of machine noise then moves the tail
    of one block, not of the run.  On a 2-core VM blocks of 200 calls, a
    95th percentile, spread about half as much from run to run as blocks of
    1000 calls, a 99th percentile, whose tail is set by a few preempted
    calls.  Returns (latency, percentile, samples per block,
    blocks); needs at least 11 samples.
    """
    if len(values) < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {len(values)}")
    size = TAIL_BLOCK if len(values) >= 2 * TAIL_BLOCK else len(values)
    blocks = [sorted(values[i:i + size]) for i in range(0, len(values) - size + 1, size)]
    return median(b[-11] for b in blocks), 100.0 * (size - 10) / size, size, len(blocks)


class Raised(NamedTuple):
    """An exception a call raised, kept without the traceback.

    A traceback holds the frames of the failed call and their locals, such
    as a whole extended column, which would pile up over a run.
    """

    kind: type
    message: str


def timed_call(fn, *args):
    """(what fn returned, or Raised, and the seconds the call took)."""
    start = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # judged by the gate; a failure never stops the run
        out = Raised(type(exc), str(exc))
    return out, perf_counter() - start


def outcome_of(result):
    """Recovered key bits of an attack result, or the Raised it ended with."""
    return result if isinstance(result, Raised) else key_bits(result)


class Gate:
    """Operations attempted and failed; a failure is counted, never fatal."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def brute_force(self, case, keys) -> None:
        """`brute_force` must return exactly the seeded key."""
        ok = not isinstance(keys, Raised) and [key_bits(k) for k in keys] == [(case.sra, case.srs)]
        self.record(ok, f"brute_force on {case.size}: {keys!r}")

    def shrink(self, out, expected: tuple) -> None:
        """A `shrink` run must equal the reference keystream."""
        ok = not isinstance(out, Raised) and tuple(out) == expected
        problem = out if isinstance(out, Raised) else "wrong bits"
        self.record(ok, f"shrink of {len(expected)} bits: {problem}")

    def attacks(self, cases, outcomes, intercepted_error) -> None:
        """Judge every (case index, outcome) of an `attack` call.

        Only a corrupted input may be rejected, and only with `intercepted_error`.
        """
        verdicts = {}
        for i, outcome in outcomes:
            case = cases[i]
            if isinstance(outcome, Raised):
                ok = case.corrupted and issubclass(outcome.kind, intercepted_error)
            else:
                if (i, outcome) not in verdicts:
                    verdicts[i, outcome] = attack_ok(case, *exponents(case.size), outcome)
                ok = verdicts[i, outcome]
            kind = "corrupted" if case.corrupted else "genuine"
            self.record(ok, f"attack on {kind} {case.size} input {i}: {outcome!r}")
