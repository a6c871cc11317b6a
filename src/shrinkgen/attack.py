"""Deterministic key recovery from a corner of the interleaved configuration.

IC cell (n, j) is data bit t = n(2^S - 1) + o_j, o_j the position of the
(j+1)-th 1 in the selector sequence, so every intercepted bit is one GF(2)
equation in the data state: cell (n, j) = parity(R_n & c_{o_j}), where
R_n = x^(n(2^S - 1)) mod P_A and c_o is the data state clocked o times.
Phase one solves the A column-0 equations for the data state.  Phase two
finds column j's offset by trying o = o_{j-1}+1 .. o_{j-1}+S, one clock each,
each row one AND and a parity up to its first mismatch, until an offset
reaches S - 1, which settles all S selector bits.  Last, every known bit is
read from the recovered key in ascending position, so no keystream is
generated and no column is built out.  The column polynomial P_D is computed
only for the result.

Keys come out in canonical form (selector state starting with 1): a key whose
selector starts with 0 yields its shift-equivalent canonical key, which
generates the same keystream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Iterator

from .errors import InconsistentDataError, InsufficientInputError, UnsupportedSizeError
from .gf2 import BinaryPolynomial, _mulmod, _solve, _xpow, mod_inverse
from .generator import SgSpec, ShrinkingKey, column_poly
from .interleaved import KnownBits, OffsetVector
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


class _Reader:
    """IC cells of one spec read on P_A: cell (n, j) = parity(R_n & c_{o_j}).

    Data bit o + u is parity((x^u mod P_A) & c_o), c_o the data state (bit i
    = a_{o+i}) clocked o times, and cell (n, j) is data bit n(2^S - 1) + o_j.
    As an equation in an unknown data state c, the same cell has the mask
    R_n * x^(o_j) mod P_A.
    """

    def __init__(self, spec: SgSpec):
        a, s, m = spec.a_length, spec.s_length, spec.pa.mask
        self.spec, self.m, self.cols = spec, m, 1 << (s - 1)
        self.ratio, self.period = (1 << s) - 1, (1 << a) - 1
        self.taps, self.top = m ^ (1 << a), a - 1
        self.step = _xpow(self.ratio, m)  # x^(2^S - 1) mod P_A: one row down
        self.rows = [1]  # R_0 .. R_{A-1}
        for _ in range(a - 1):
            self.rows.append(_mulmod(self.rows[-1], self.step, m))

    def clock(self, c: int) -> int:
        """c_{o+1} from c_o."""
        return (c >> 1) | (((c & self.taps).bit_count() & 1) << self.top)

    def cells(self, known: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int, int, int]]:
        """(pos, j, bit, R_n) per known (pos, bit) pair, ascending; pos is cell (n, j).

        Rows below A come from the table; any other row is one multiply from
        row n - 1 if that was the previous row read, else one jump.  R_n is
        periodic in n, so positions past one keystream period read as well.
        """
        last, row = -1, 0
        for pos, bit in known:
            n, j = divmod(pos, self.cols)
            if n != last:
                if n < len(self.rows):
                    row = self.rows[n]
                elif n == last + 1:
                    row = _mulmod(row, self.step, self.m)
                else:
                    row = _xpow(n * self.ratio % self.period, self.m)
                last = n
            yield pos, j, bit, row


def _corner(attack_input: AttackInput) -> dict[int, int]:
    """The known bits by position, once every A x S corner cell is among them."""
    known = dict(attack_input.known.items())
    a, s = attack_input.spec.a_length, attack_input.spec.s_length
    cols = 1 << (s - 1)
    missing = [(n, j) for n in range(a) for j in range(s) if n * cols + j not in known]
    if missing:
        raise InsufficientInputError(
            f"missing {len(missing)} of the required top-left {a}x{s} cells: {missing[:8]}"
        )
    return known


def _solve_data_state(reader: _Reader, known: dict[int, int]) -> int:
    """Phase one: the data state from the A column-0 equations (R_n, cell (n, 0)).

    P_D, the minimal polynomial of x^(2^S - 1), has degree A, so the masks
    R_0 .. R_{A-1} are independent and the solution is unique.
    """
    cells = [known[n * reader.cols] for n in range(len(reader.rows))]
    if not any(cells):
        raise InconsistentDataError("a genuine column never contains an all-zero window")
    return _solve(zip(reader.rows, cells), len(cells))[0]


def _srs_phase(
    reader: _Reader, known: dict[int, int], c: int
) -> tuple[LfsrState, OffsetVector, int, int]:
    """Selector state, offsets, candidate offsets tried and window bits compared."""
    s, a = reader.spec.s_length, len(reader.rows)
    offsets, comparisons, bits_read = [0], 0, 0
    while offsets[-1] < s - 1:
        # A selector sequence never runs S zeros: column j starts at most S past column j-1.
        j, last = len(offsets), offsets[-1] + s
        col = [known[n * reader.cols + j] for n in range(a)]
        for o in range(offsets[-1] + 1, last + 1):
            comparisons += 1
            c = reader.clock(c)  # c_o
            # rows of column j matched before the first mismatch
            rows = next((n for n, (row, cell) in enumerate(zip(reader.rows, col))
                         if (row & c).bit_count() & 1 != cell), a)
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


def _state_mask(state: LfsrState) -> int:
    return sum(b << i for i, b in enumerate(state.bits))


def recover_srs(
    attack_input: AttackInput, d0: BitSequence, sra: LfsrState
) -> tuple[LfsrState, OffsetVector]:
    """Phase two from the data state sra; d0 is the full first column sra was read from."""
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    rows = (1 << a) - 1
    if d0.period != rows or len(d0) < rows:
        raise ValueError(f"d0 must be a full column of period {rows}")
    if sra.length != a:
        raise ValueError(f"data-register state needs {a} bits")
    if tuple(d0[n] for n in row_positions(a, s)) != sra.bits:
        raise ValueError("d0 and the recovered data-register state disagree")
    return _srs_phase(_Reader(spec), _corner(attack_input), _state_mask(sra))[:2]


def _check_regeneration(reader: _Reader, key: ShrinkingKey, known: Iterable[tuple[int, int]]) -> None:
    """Check known (position, bit) pairs, ascending, against the key without generating keystream.

    Each bit is one AND and a parity: cell (n, j) = parity(R_n & c_{o_j}).
    The selector runs, and the data state is clocked, only as far as the
    offset o_j of the highest column met.
    """
    c, o, states = _state_mask(key.sra_state), 0, []  # states[j] = c_{o_j}
    ones = _ones(reader.spec, key.srs_state)
    for pos, j, bit, row in reader.cells(known):
        while len(states) <= j:
            o_j = next(ones)
            for _ in range(o_j - o):
                c = reader.clock(c)
            o = o_j
            states.append(c)
        if (row & states[j]).bit_count() & 1 != bit:
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
    n * 2^(S-1) + j for n < A, j < S.  Any further known bits, at any
    position, only feed the final check, which reads each from the key by
    one AND, plus one multiply or one jump on P_A per row, so a far position
    costs no more than a near one.
    """
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    known = _corner(attack_input)
    reader = _Reader(spec)
    with _phase("row-positions"):
        npos = row_positions(a, s)
    with _phase("sra-recovery"):
        c = _solve_data_state(reader, known)
        sra = LfsrState(tuple(c >> i & 1 for i in range(a)))
    with _phase("srs-recovery"):
        srs, offsets, comparisons, bits_read = _srs_phase(reader, known, c)
    with _phase("regeneration-check"):
        _check_regeneration(reader, ShrinkingKey(sra, srs), known.items())
    with _phase("column-poly"):
        pd = column_poly(spec)
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
    budget = BRUTE_FORCE_MAX_BITS - 1
    if s - 1 > budget:
        raise UnsupportedSizeError(
            f"S - 1 = {s - 1} guessed selector bits exceed the exhaustive-search budget ({budget})"
        )
    known = list(_Reader(spec).cells(attack_input.known.items()))
    offset_jump = [1]  # x^o mod P_A, grown as far as the guesses' offsets reach
    width = max((j for _, j, _, _ in known), default=-1) + 1
    found = []
    for rest in product((0, 1), repeat=s - 1):
        srs = (1,) + rest
        offsets = list(islice(_ones(spec, LfsrState(srs)), width))
        while len(offset_jump) <= max(offsets, default=0):
            offset_jump.append(_mulmod(offset_jump[-1], 2, m))
        space = _solve(((_mulmod(row, offset_jump[offsets[j]], m), bit)
                        for _, j, bit, row in known), a)
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
