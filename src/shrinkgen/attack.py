"""Deterministic key recovery from a corner of the interleaved configuration.

Phase one recovers the data-register state: the first IC column is a
PN-sequence under the column polynomial, so A known cells extend to the whole
column, and the state bits sit at the rows n_i solving
n_i * (2^S - 1) = i (mod 2^A - 1).

Phase two recovers the selector state: every later column is the same
PN-sequence shifted, so sliding candidate offsets o = o_{j-1}+1, o_{j-1}+2, ...
along the extended first column until the A known cells of column j match
pins o_j, the position of the (j+1)-th 1 in the selector sequence.  The scan
stops once an offset reaches S - 1, which settles all S selector bits.

Everything works on the keys' canonical form: selector states starting with
a 1 bit.  A true key whose selector starts with 0 is recovered as its
shift-equivalent canonical key, which generates the same keystream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product

from .errors import InconsistentDataError, InsufficientInputError, UnsupportedSizeError
from .gf2 import BinaryPolynomial, mod_inverse
from .generator import SgSpec, ShrinkingKey, column_poly, shrink
from .interleaved import InterleavedConfig, KnownBits, OffsetVector, build_ic
from .lfsr import BitSequence, LfsrSpec, LfsrState, lfsr_generate

# Cap on A + S for the exhaustive-search oracle.
BRUTE_FORCE_MAX_BITS = 24


@dataclass(frozen=True)
class AttackInput:
    """Public generator parameters plus intercepted keystream bits."""

    spec: SgSpec
    known: KnownBits


@dataclass(frozen=True)
class WorkCounters:
    """Effort spent: phase-two window comparisons and first-column bits expanded."""

    comparisons: int
    column_bits_expanded: int


@dataclass(frozen=True)
class AttackResult:
    """Recovered key with the intermediate quantities that produced it."""

    sra_state: LfsrState
    srs_state: LfsrState
    offsets: OffsetVector
    row_positions: tuple[int, ...]
    column_poly: BinaryPolynomial
    work: WorkCounters

    def to_text(self) -> str:
        """Line-based key=value serialization; bit strings list index 0 leftmost."""
        return (
            f"sra_state={self.sra_state}\n"
            f"srs_state={self.srs_state}\n"
            f"offsets={self.offsets}\n"
            f"pd={self.column_poly}\n"
            f"comparisons={self.work.comparisons}\n"
        )


def row_positions(a: int, s: int) -> tuple[int, ...]:
    """Rows n_i of the first IC column holding data bit a_i, for i = 0 .. A-1."""
    rows = (1 << a) - 1
    inv = mod_inverse((1 << s) - 1, rows)
    return tuple(i * inv % rows for i in range(a))


def extend_column(colbits, pd: BinaryPolynomial) -> BitSequence:
    """Extend A consecutive column bits to the column's full period 2^A - 1."""
    bits = tuple(int(b) for b in colbits)
    if pd.degree != len(bits):
        raise ValueError("need exactly degree(pd) consecutive column bits")
    if not any(bits):
        raise InconsistentDataError("a genuine column never contains an all-zero window")
    spec = LfsrSpec(pd)
    return lfsr_generate(spec, LfsrState(bits), spec.period)


def _column_cells(ic: InterleavedConfig, j: int, a: int) -> list[int]:
    cells = [ic.cell(n, j) for n in range(a)]
    missing = [n for n, c in enumerate(cells) if c is None]
    if missing:
        raise InsufficientInputError(f"column {j} is missing rows {missing}")
    return cells


def _read_sra(d0: BitSequence, positions: tuple[int, ...]) -> LfsrState:
    bits = tuple(d0[n] for n in positions)
    if not any(bits):
        raise InconsistentDataError("recovered an all-zero data-register state")
    return LfsrState(bits)


def recover_sra(attack_input: AttackInput) -> LfsrState:
    """Phase one: read the data-register state off the extended first column."""
    a, s = attack_input.spec.a_length, attack_input.spec.s_length
    ic = build_ic(attack_input.known, a, s)
    d0 = extend_column(_column_cells(ic, 0, a), column_poly(attack_input.spec))
    return _read_sra(d0, row_positions(a, s))


def recover_srs(
    attack_input: AttackInput, d0: BitSequence, sra: LfsrState
) -> tuple[LfsrState, OffsetVector]:
    """Phase two: align later columns against d0 to read the selector state."""
    spec = attack_input.spec
    ic = build_ic(attack_input.known, spec.a_length, spec.s_length)
    state, offsets, _ = _recover_srs_counted(spec, ic, d0, sra)
    return state, offsets


def _recover_srs_counted(
    spec: SgSpec, ic: InterleavedConfig, d0: BitSequence, sra: LfsrState
) -> tuple[LfsrState, OffsetVector, int]:
    a, s = spec.a_length, spec.s_length
    rows = (1 << a) - 1
    if d0.period != rows or len(d0) < rows:
        raise ValueError(f"d0 must be a full column of period {rows}")
    if sra.length != a:
        raise ValueError(f"data-register state needs {a} bits")
    if tuple(d0[n] for n in row_positions(a, s)) != sra.bits:
        raise ValueError("d0 and the recovered data-register state disagree")
    if s == 1:
        return LfsrState((1,)), OffsetVector((0,)), 0
    inv = mod_inverse((1 << s) - 1, rows)
    offsets = [0]
    comparisons = 0
    j = 0
    while offsets[-1] < s - 1:
        j += 1
        col = _column_cells(ic, j, a)
        match = None
        for o in range(offsets[-1] + 1, (1 << s) - 1):
            comparisons += 1
            t = o * inv % rows
            if all(d0.at(t + i) == col[i] for i in range(a)):
                match = o
                break
        if match is None:
            raise InconsistentDataError(
                f"no offset candidate up to {(1 << s) - 2} matches column {j}"
            )
        offsets.append(match)
    bits = [0] * s
    for o in offsets:
        if o < s:
            bits[o] = 1
    return LfsrState(tuple(bits)), OffsetVector(tuple(offsets)), comparisons


def _check_regeneration(spec: SgSpec, key: ShrinkingKey, known: KnownBits) -> None:
    positions = known.positions()
    if not positions:
        return
    ks = shrink(spec, key, max(positions) + 1)
    for pos, bit in known.items():
        if ks[pos] != bit:
            raise InconsistentDataError(
                f"recovered key disagrees with the known bit at position {pos}"
            )


@contextmanager
def _phase(label: str):
    try:
        yield
    except (ValueError, InconsistentDataError, InsufficientInputError) as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def attack(attack_input: AttackInput) -> AttackResult:
    """Run both phases, then check the recovered key regenerates every known bit.

    Needs the A x S top-left IC cells, i.e. keystream positions
    n * 2^(S-1) + j for n < A, j < S; any further known bits only feed the
    final regeneration check.
    """
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    ic = build_ic(attack_input.known, a, s)
    missing = [(n, j) for n in range(a) for j in range(s) if ic.cell(n, j) is None]
    if missing:
        raise InsufficientInputError(
            f"missing {len(missing)} of the required top-left {a}x{s} cells: {missing[:8]}"
        )
    with _phase("column-poly"):
        pd = column_poly(spec)
    with _phase("row-positions"):
        npos = row_positions(a, s)
    with _phase("sra-recovery"):
        d0 = extend_column(_column_cells(ic, 0, a), pd)
        sra = _read_sra(d0, npos)
    with _phase("srs-recovery"):
        srs, offsets, comparisons = _recover_srs_counted(spec, ic, d0, sra)
    with _phase("regeneration-check"):
        _check_regeneration(spec, ShrinkingKey(sra, srs), attack_input.known)
    work = WorkCounters(comparisons=comparisons, column_bits_expanded=len(d0) - a)
    return AttackResult(sra, srs, offsets, npos, pd, work)


def brute_force(attack_input: AttackInput) -> list[ShrinkingKey]:
    """All canonical keys consistent with every known bit, by exhaustive search.

    Candidates are the (2^A - 1) * 2^(S-1) pairs of a nonzero data state and
    a selector state whose first bit is 1, enumerated in ascending bit-string
    order, so the result is deterministic.
    """
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    if a + s > BRUTE_FORCE_MAX_BITS:
        raise UnsupportedSizeError(
            f"A + S = {a + s} exceeds the exhaustive-search budget ({BRUTE_FORCE_MAX_BITS})"
        )
    known = dict(attack_input.known.items())
    need = max(known) + 1 if known else 0
    matches = []
    for a_bits in product((0, 1), repeat=a):
        if not any(a_bits):
            continue
        for s_rest in product((0, 1), repeat=s - 1):
            key = ShrinkingKey(LfsrState(a_bits), LfsrState((1,) + s_rest))
            if not need:
                matches.append(key)
                continue
            ks = shrink(spec, key, need)
            if all(ks[pos] == bit for pos, bit in known.items()):
                matches.append(key)
    return matches
