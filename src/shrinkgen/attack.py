"""Deterministic key recovery from a corner of the interleaved configuration.

Every IC column is one PN-sequence under the column polynomial P_D, so cell t
of the first column is parity((x^t mod P_D) & c0), c0 holding its A known
cells; each read is a jump and no column is ever built out.  Phase one reads
data bit a_i at row n_i = i * inv, inv = (2^S - 1)^(-1) mod (2^A - 1), one
multiply by x^inv mod P_D per row.  Phase two finds column j's shift o_j * inv,
o_j the position of the (j+1)-th 1 in the selector sequence, by trying
o = o_{j-1}+1 .. o_{j-1}+S, each window one multiply by x^inv past the last and
read one multiply by x per row up to its first mismatch, until an offset
reaches S - 1, which settles all S selector bits.  The corner columns left
unmatched are read the same way.  Last, every known bit outside the corner is
read from the recovered key by jumps on P_A, so no keystream is generated.

Keys come out in canonical form (selector state starting with 1): a key whose
selector starts with 0 yields its shift-equivalent canonical key, which
generates the same keystream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable

from .errors import InconsistentDataError, InsufficientInputError, UnsupportedSizeError
from .gf2 import BinaryPolynomial, _mulmod, _solve, _xpow, mod_inverse
from .generator import SgSpec, ShrinkingKey, column_poly
from .interleaved import InterleavedConfig, KnownBits, OffsetVector, build_ic
from .lfsr import BitSequence, LfsrSpec, LfsrState, lfsr_generate, lfsr_stream

# brute_force enumerates at most 2^(BRUTE_FORCE_MAX_BITS - 1) keys: S - 1 guessed
# selector bits plus A - rank free data bits.
BRUTE_FORCE_MAX_BITS = 24


@dataclass(frozen=True)
class AttackInput:
    """Public generator parameters plus intercepted keystream bits."""

    spec: SgSpec
    known: KnownBits


@dataclass(frozen=True)
class WorkCounters:
    """Effort spent: candidate offsets tried; column bits read (A state rows plus window bits)."""

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


def _column_mask(cells) -> int:
    """The first column's A known cells as a mask, bit i = cell (i, 0)."""
    c0 = sum(int(b) << i for i, b in enumerate(cells))
    if not c0:
        raise InconsistentDataError("a genuine column never contains an all-zero window")
    return c0


def _row_step(pd: BinaryPolynomial, a: int, s: int) -> int:
    """x^inv mod P_D: the jump from row n_i of a column to row n_{i+1}."""
    return _xpow(mod_inverse((1 << s) - 1, (1 << a) - 1), pd.mask)


def _sra_phase(c0: int, pd: BinaryPolynomial, step: int) -> LfsrState:
    bits, jump = [], 1  # jump = x^(n_i) mod P_D
    for _ in range(pd.degree):
        bits.append((jump & c0).bit_count() & 1)
        jump = _mulmod(jump, step, pd.mask)
    if not any(bits):
        raise InconsistentDataError("recovered an all-zero data-register state")
    return LfsrState(tuple(bits))


def _rows_agreeing(window: int, col, c0: int, m: int) -> int:
    """Rows of col that the column read from `window` = x^t mod P_D matches before a mismatch."""
    for n, cell in enumerate(col):
        if (window & c0).bit_count() & 1 != cell:
            return n
        window = _mulmod(window, 2, m)  # one row down
    return len(col)


def _srs_phase(
    ic: InterleavedConfig, c0: int, pd: BinaryPolynomial, step: int, s: int
) -> tuple[LfsrState, OffsetVector, int, int]:
    """Selector state, offsets, candidate offsets tried and window bits compared."""
    a, m = pd.degree, pd.mask
    offsets, comparisons, bits_read = [0], 0, 0
    jump = step  # x^(o * inv) mod P_D for the next candidate o
    while offsets[-1] < s - 1:
        # A selector sequence never runs S zeros: column j starts at most S past column j-1.
        j, last = len(offsets), offsets[-1] + s
        col = _column_cells(ic, j, a)
        for o in range(offsets[-1] + 1, last + 1):
            comparisons += 1
            window, jump = jump, _mulmod(jump, step, m)
            rows = _rows_agreeing(window, col, c0, m)
            bits_read += min(rows + 1, a)  # the mismatching cell is compared too
            if rows == a:
                offsets.append(o)
                break
        else:
            raise InconsistentDataError(f"no offset candidate up to {last} matches column {j}")
    bits = tuple(int(o in offsets) for o in range(s))
    return LfsrState(bits), OffsetVector(tuple(offsets)), comparisons, bits_read


def _ones(spec: SgSpec, srs: LfsrState):
    """Positions o_0, o_1, ... of the 1s in the selector sequence from state srs."""
    return (t for t, bit in enumerate(lfsr_stream(spec.srs, srs)) if bit)


def _check_corner(ic: InterleavedConfig, c0: int, pd: BinaryPolynomial, step: int,
                  spec: SgSpec, srs: LfsrState, offsets: OffsetVector) -> None:
    """Check the corner columns phase two did not match against the recovered key.

    Column j starts at x^(o_j * inv), o_j the position of the (j+1)-th 1 in
    the key's selector sequence, so a corrupted corner cell is caught by
    the same window reads as phase two, before the regeneration check.
    """
    a, s, m = pd.degree, spec.s_length, pd.mask
    jump, at = 1, 0  # x^(at * inv) mod P_D
    for j, o in islice(enumerate(_ones(spec, srs)), 1, s):
        if o in offsets.offsets[j:j + 1]:
            continue  # phase two matched column j at this offset
        for _ in range(o - at):
            jump = _mulmod(jump, step, m)
        at, rows = o, _rows_agreeing(jump, _column_cells(ic, j, a), c0, m)
        if rows < a:
            raise InconsistentDataError(
                f"recovered key disagrees with the known bit at position {(rows << (s - 1)) + j}"
            )


def recover_sra(attack_input: AttackInput) -> LfsrState:
    """Phase one: read the data-register state off the first column by jumps."""
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    ic = build_ic(attack_input.known, a, s)
    pd = column_poly(spec)
    return _sra_phase(_column_mask(_column_cells(ic, 0, a)), pd, _row_step(pd, a, s))


def recover_srs(
    attack_input: AttackInput, d0: BitSequence, sra: LfsrState
) -> tuple[LfsrState, OffsetVector]:
    """Phase two: align later columns against the first column d0 (only d0[:A] is read)."""
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    rows = (1 << a) - 1
    if d0.period != rows or len(d0) < rows:
        raise ValueError(f"d0 must be a full column of period {rows}")
    if sra.length != a:
        raise ValueError(f"data-register state needs {a} bits")
    if tuple(d0[n] for n in row_positions(a, s)) != sra.bits:
        raise ValueError("d0 and the recovered data-register state disagree")
    ic = build_ic(attack_input.known, a, s)
    pd = column_poly(spec)
    return _srs_phase(ic, _column_mask(d0[:a]), pd, _row_step(pd, a, s), s)[:2]


def _check_regeneration(spec: SgSpec, key: ShrinkingKey, known: Iterable[tuple[int, int]]) -> None:
    """Check known (position, bit) pairs, ascending, against the key without generating keystream.

    Keystream bit n * 2^(S-1) + j is data bit t = (n * (2^S - 1) + o_j) mod
    (2^A - 1), o_j the position of the (j+1)-th 1 in the selector sequence,
    and data bit t is parity((x^t mod P_A) & c), c the data state.  The
    selector runs only as far as the highest column met.  A bit one row below
    its column's previous known bit is one multiply by x^(2^S - 1) away; any
    other bit is one fresh jump.
    """
    a, s, m = spec.a_length, spec.s_length, spec.pa.mask
    cols, rows, ratio = 1 << (s - 1), (1 << a) - 1, (1 << s) - 1
    ones, offsets = _ones(spec, key.srs_state), []
    c = sum(b << i for i, b in enumerate(key.sra_state.bits))
    step = _xpow(ratio, m)
    last = {}  # column j -> (row, x^t mod P_A) of its previous known bit
    for pos, bit in known:
        n, j = divmod(pos, cols)
        while len(offsets) <= j:
            offsets.append(next(ones))
        row, jump = last.get(j, (-2, 0))
        if n == row + 1:
            jump = _mulmod(jump, step, m)
        else:
            jump = _xpow((n * ratio + offsets[j]) % rows, m)
        last[j] = n, jump
        if (jump & c).bit_count() & 1 != bit:
            raise InconsistentDataError(
                f"recovered key disagrees with the known bit at position {pos}"
            )


def _outside_corner(known: KnownBits, a: int, s: int) -> Iterable[tuple[int, int]]:
    """The known bits outside the A x S corner; the phases and _check_corner match the corner."""
    cols = 1 << (s - 1)
    return ((pos, bit) for pos, bit in known.items() if pos // cols >= a or pos % cols >= s)


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
    final check, which reads each from the key by one multiply or one jump
    on P_A, so a far position costs no more than a near one.
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
        c0 = _column_mask(_column_cells(ic, 0, a))
        step = _row_step(pd, a, s)
        sra = _sra_phase(c0, pd, step)
    with _phase("srs-recovery"):
        srs, offsets, comparisons, bits_read = _srs_phase(ic, c0, pd, step, s)
    with _phase("regeneration-check"):
        _check_corner(ic, c0, pd, step, spec, srs, offsets)
        _check_regeneration(spec, ShrinkingKey(sra, srs), _outside_corner(attack_input.known, a, s))
    work = WorkCounters(comparisons=comparisons, column_bits_expanded=a + bits_read)
    return AttackResult(sra, srs, offsets, npos, pd, work)


def brute_force(attack_input: AttackInput) -> list[ShrinkingKey]:
    """All canonical keys consistent with every known bit, by guessing the selector and solving.

    For each of the 2^(S-1) selector states whose first bit is 1, the selector
    runs only as far as the offsets o_j of the highest known column, and known
    bit n * 2^(S-1) + j becomes the GF(2) equation parity((x^t mod P_A) & c) =
    bit in the data state c, t = n(2^S - 1) + o_j.  A guess whose equations
    contradict each other gives no key; otherwise every one of its 2^(A - rank)
    solutions except c = 0 is a key.  Keys come out sorted by their data-state
    and then selector-state bit strings, so the result is deterministic.
    Raises UnsupportedSizeError when (S - 1) + (A - rank) exceeds
    BRUTE_FORCE_MAX_BITS - 1 for some guess.
    """
    spec = attack_input.spec
    a, s, m = spec.a_length, spec.s_length, spec.pa.mask
    budget, cols, rows, ratio = BRUTE_FORCE_MAX_BITS - 1, 1 << (s - 1), (1 << a) - 1, (1 << s) - 1
    if s - 1 > budget:
        raise UnsupportedSizeError(
            f"S - 1 = {s - 1} guessed selector bits exceed the exhaustive-search budget ({budget})"
        )
    known = [(*divmod(pos, cols), bit) for pos, bit in attack_input.known.items()]
    row_jump = {n: _xpow(n * ratio % rows, m) for n in {n for n, _, _ in known}}  # x^(n(2^S - 1))
    offset_jump = [1]  # x^o mod P_A, grown as far as the guesses' offsets reach
    width = max((j for _, j, _ in known), default=-1) + 1
    found = []
    for rest in product((0, 1), repeat=s - 1):
        srs = (1,) + rest
        offsets = list(islice(_ones(spec, LfsrState(srs)), width))
        while len(offset_jump) <= max(offsets, default=0):
            offset_jump.append(_mulmod(offset_jump[-1], 2, m))
        space = _solve(((_mulmod(row_jump[n], offset_jump[offsets[j]], m), bit)
                        for n, j, bit in known), a)
        if space is None:
            continue
        c, basis = space
        if s - 1 + len(basis) > budget:
            raise UnsupportedSizeError(
                f"(S - 1) + (A - rank) = {s - 1 + len(basis)} key bits to enumerate exceed "
                f"the exhaustive-search budget ({budget})"
            )
        for i in range(1 << len(basis)):
            if i:  # Gray code: one xor per solution
                c ^= basis[(i & -i).bit_length() - 1]
            if c:
                found.append((tuple(c >> k & 1 for k in range(a)), srs))
    return [ShrinkingKey(LfsrState(sra), LfsrState(srs)) for sra, srs in sorted(found)]
