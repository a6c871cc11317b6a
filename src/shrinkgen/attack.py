"""Deterministic key recovery from a corner of the interleaved configuration.

IC cell (n, j) is data bit t = n(2^S - 1) + o_j, o_j the position of the
(j+1)-th 1 in the selector sequence, so every intercepted bit is one GF(2)
equation in the data state: cell (n, j) = parity(R_n & c_{o_j}), where
R_n = x^(n(2^S - 1)) mod P_A and c_o is the data state clocked o times.
Everything that depends only on the public polynomials is built once, with
the SgSpec: the masks R_0 .. R_{A-1}, the column polynomial P_D, the inverse
of the A column-0 equations, and a jump table on P_A that gives any other R_n
in at most ceil(A/4) multiplies.  The inverse turns the A cells of any
column j into its data state c_{o_j}, one AND and a parity per bit: phase
one solves column 0, and phase two solves column j and clocks c_{o_{j-1}}
to o = o_{j-1}+1 .. o_{j-1}+S, one int compare each, until an offset
reaches S - 1, which settles all S selector bits.
Last, every known bit is read from the recovered key in ascending position,
so no keystream is generated and no column is built out: a row past A - 1
is one jump.

Keys come out in canonical form (selector state starting with 1): a key whose
selector starts with 0 yields its shift-equivalent canonical key, which
generates the same keystream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .errors import InconsistentDataError, InsufficientInputError, UnsupportedSizeError
from .gf2 import BinaryPolynomial, _eliminate, _jump, _mulmod, mod_inverse
from .generator import SgSpec, ShrinkingKey, column_poly
from .interleaved import KnownBits
from .lfsr import BitSequence, LfsrSpec, LfsrState, _state_mask, lfsr_generate

# brute_force enumerates at most 2^(BRUTE_FORCE_MAX_BITS - 1) keys: S - 1 guessed
# selector bits plus A - rank free data bits.
BRUTE_FORCE_MAX_BITS = 19


@dataclass(frozen=True)
class AttackInput:
    """Public generator parameters plus intercepted keystream bits."""

    spec: SgSpec
    known: KnownBits


@dataclass(frozen=True)
class WorkCounters:
    """Effort spent: candidate offsets tried; IC cells read, A per column solved."""

    comparisons: int
    column_bits_expanded: int


@dataclass(frozen=True)
class AttackResult:
    """Recovered key with the intermediate quantities that produced it."""

    sra_state: LfsrState
    srs_state: LfsrState
    offsets: tuple[int, ...]
    column_poly: BinaryPolynomial
    work: WorkCounters

    def to_text(self) -> str:
        """Line-based key=value serialization; bit strings list index 0 leftmost."""
        return (
            f"sra_state={self.sra_state}\n"
            f"srs_state={self.srs_state}\n"
            f"offsets={','.join(map(str, self.offsets))}\n"
            f"pd={self.column_poly}\n"
            f"comparisons={self.work.comparisons}\n"
        )


def row_positions(a: int, s: int) -> tuple[int, ...]:
    """Rows n_i of the first IC column holding data bit a_i, for i = 0 .. A-1."""
    rows = (1 << a) - 1
    inv = mod_inverse((1 << s) - 1, rows)
    return tuple(i * inv % rows for i in range(a))


def extend_column(colbits, pd: BinaryPolynomial) -> BitSequence:
    """Extend A consecutive column bits to one column period: 2^A - 1 bits, nothing declared."""
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
        a, s = spec.a_length, spec.s_length
        self.spec, self.m, self.cols = spec, spec.pa.mask, 1 << (s - 1)
        self.ratio, self.period = (1 << s) - 1, (1 << a) - 1
        self.taps, self.top = spec.sra.taps, a - 1
        self.rows = spec._rows  # R_0 .. R_{A-1}, built with the spec
        self.jumps = spec._jumps

    def clock(self, c: int) -> int:
        """c_{o+1} from c_o."""
        return (c >> 1) | (((c & self.taps).bit_count() & 1) << self.top)

    def cells(self, known: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int, int, int]]:
        """(pos, j, bit, R_n) per known (pos, bit) pair, ascending; pos is cell (n, j).

        Rows below A come from the spec's row table; any other row is one
        jump through the spec's jump table: at most ceil(A/4) multiplies, no
        squarings.  R_n is periodic in n, so positions past one keystream
        period read as well.
        """
        last, row = -1, 0
        for pos, bit in known:
            n, j = divmod(pos, self.cols)
            if n != last:
                if n < len(self.rows):
                    row = self.rows[n]
                else:
                    row = _jump(self.jumps, n * self.ratio % self.period, self.m)
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


def _column_state(reader: _Reader, known: dict[int, int], j: int) -> int:
    """The data state c_{o_j} from column j's A cells, one AND and a parity per bit.

    P_D, the minimal polynomial of x^(2^S - 1), has degree A, so the masks
    R_0 .. R_{A-1} of the equations (R_n, cell (n, j)) are independent.  The
    spec holds the system's inverse, so a state matches all A cells exactly
    when it equals this one: bit p is parity(inv_p & v), v the cells as bits.
    Row p of the inverse is x^(n_p) mod P_D, n_p from row_positions: it reads
    cell (n_p, j), the strategic cell that holds bit p, off the A cells.
    """
    v = sum(known[n * reader.cols + j] << n for n in range(len(reader.rows)))
    return sum(((inv & v).bit_count() & 1) << p for p, inv in enumerate(reader.spec._col0_inverse))


def _srs_phase(reader: _Reader, known: dict[int, int], c: int) -> tuple[LfsrState, tuple[int, ...]]:
    """Selector state and offsets from the data state c = c_0."""
    s, offsets = reader.spec.s_length, [0]
    while offsets[-1] < s - 1:
        # A selector sequence never runs S zeros: column j starts at most S past column j-1.
        j, last = len(offsets), offsets[-1] + s
        target = _column_state(reader, known, j)
        for o in range(offsets[-1] + 1, last + 1):
            c = reader.clock(c)  # c_o
            if c == target:
                offsets.append(o)
                break
        else:
            raise InconsistentDataError(f"no offset candidate up to {last} matches column {j}")
    bits = tuple(int(o in offsets) for o in range(s))
    return LfsrState(bits), tuple(offsets)


def _ones(spec: SgSpec, w: int) -> Iterator[int]:
    """Positions o_0, o_1, ... of the 1s in the selector sequence from state w (bit i = s_i)."""
    taps, top, t = spec.srs.taps, spec.s_length - 1, 0
    while True:
        if w & 1:
            yield t
        w = (w >> 1) | (((w & taps).bit_count() & 1) << top)
        t += 1


def recover_srs(
    attack_input: AttackInput, d0: BitSequence, sra: LfsrState
) -> tuple[LfsrState, tuple[int, ...]]:
    """Phase two from the data state sra; d0 is the full first column sra was read from."""
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    rows = (1 << a) - 1
    if len(d0) < rows:
        raise ValueError(f"d0 must be a full column of period {rows}")
    if sra.length != a:
        raise ValueError(f"data-register state needs {a} bits")
    if tuple(d0[n] for n in row_positions(a, s)) != sra.bits:
        raise ValueError("d0 and the recovered data-register state disagree")
    return _srs_phase(_Reader(spec), _corner(attack_input), _state_mask(sra))


def _check_regeneration(reader: _Reader, key: ShrinkingKey, known: Iterable[tuple[int, int]]) -> None:
    """Check known (position, bit) pairs, ascending, against the key without generating keystream.

    Each bit is one AND and a parity: cell (n, j) = parity(R_n & c_{o_j}).
    The selector runs, and the data state is clocked, only as far as the
    offset o_j of the highest column met.
    """
    c, o, states = _state_mask(key.sra_state), 0, []  # states[j] = c_{o_j}
    ones = _ones(reader.spec, _state_mask(key.srs_state))
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
    one AND, plus per row past A - 1 one jump of at most ceil(A/4)
    multiplies, so a far position costs no more than a near one.
    """
    spec = attack_input.spec
    a = spec.a_length
    known = _corner(attack_input)
    reader = _Reader(spec)
    with _phase("sra-recovery"):
        c = _column_state(reader, known, 0)
        if not c:
            raise InconsistentDataError("a genuine column never contains an all-zero window")
        sra = LfsrState(tuple(c >> i & 1 for i in range(a)))
    with _phase("srs-recovery"):
        srs, offsets = _srs_phase(reader, known, c)
    with _phase("regeneration-check"):
        _check_regeneration(reader, ShrinkingKey(sra, srs), known.items())
    with _phase("column-poly"):
        pd = column_poly(spec)
    # _srs_phase tries each candidate offset 1 .. o_last once and reads A cells per column
    work = WorkCounters(comparisons=offsets[-1], column_bits_expanded=a * len(offsets))
    return AttackResult(sra, srs, offsets, pd, work)


def brute_force(attack_input: AttackInput) -> list[ShrinkingKey]:
    """All canonical keys consistent with every known bit, by depth-first search over the selector.

    Known bit n * 2^(S-1) + j is the GF(2) equation parity((R_n * x^(o_j)
    mod P_A) & c) = bit in the data state c.  The search fixes the selector
    bits s_1 .. s_(S-1) in turn, 0 before 1 (s_0 = 1): a 1 at s_i makes i
    the offset of the next column, whose known cells join the parent's
    eliminated system, and a contradiction prunes the branch.  Once the rank
    reaches A, c is fixed and each further cell costs one AND and a parity
    on the data state clocked to its offset.  At a leaf, the later offsets
    follow from the selector state, and every one of the 2^(A - rank)
    solutions except c = 0 is a key.  Keys come out sorted by their
    data-state and then selector-state bit strings, so the result is
    deterministic.  Raises UnsupportedSizeError when (S - 1) + (A - rank)
    exceeds BRUTE_FORCE_MAX_BITS - 1 for some consistent selector state.
    """
    spec = attack_input.spec
    a, s, m = spec.a_length, spec.s_length, spec.pa.mask
    budget = BRUTE_FORCE_MAX_BITS - 1
    if s - 1 > budget:
        raise UnsupportedSizeError(
            f"S - 1 = {s - 1} guessed selector bits exceed the exhaustive-search budget ({budget})"
        )
    reader = _Reader(spec)
    columns: dict[int, list[tuple[int, int]]] = {}  # j -> (R_n, bit) of its known cells
    for _, j, bit, row in reader.cells(attack_input.known.items()):
        columns.setdefault(j, []).append((row, bit))
    width = max(columns, default=-1) + 1
    shifts = [1]  # x^o mod P_A, grown as far as the offsets reach
    found = []

    def add(node, placed):
        """node with each column j of `placed` added at its offset o, or None at a contradiction.

        A node is (pivots, c, o_c): the eliminated system and, once its rank
        is A, the data state c clocked to offset o_c.  Offsets ascend along
        `placed`.  Only a system of rank below A changes, so only that is copied.
        """
        pivots, c, at = node
        if len(pivots) < a:
            pivots = dict(pivots)
        for j, o in placed:
            cells = columns.get(j, ())
            if len(pivots) < a:
                while len(shifts) <= o:
                    shifts.append(_mulmod(shifts[-1], 2, m))
                rows = ((_mulmod(row, shifts[o], m), bit) for row, bit in cells)
                if _eliminate(rows, pivots) is None:
                    return None
                if len(pivots) < a:
                    continue
                c, at = sum(bit << p for p, (_, bit) in pivots.items()), 0
            for _ in range(o - at):
                c = reader.clock(c)
            at = o
            if any((row & c).bit_count() & 1 != bit for row, bit in cells):
                return None
        return pivots, c, at

    def leaf(node, sel, j):
        """Add the columns at offsets >= S, then collect the solutions."""
        if j < width:  # sel holds the j offsets below S; the later ones follow from it
            node = add(node, islice(enumerate(_ones(spec, sel)), j, width))
            if node is None:
                return
        pivots = node[0]
        free = [f for f in range(a) if f not in pivots]
        if s - 1 + len(free) > budget:
            raise UnsupportedSizeError(
                f"(S - 1) + (A - rank) = {s - 1 + len(free)} key bits to enumerate exceed "
                f"the exhaustive-search budget ({budget})"
            )
        c = sum(bit << p for p, (_, bit) in pivots.items())
        basis = [(1 << f) | sum(1 << p for p, (mask, _) in pivots.items() if mask >> f & 1)
                 for f in free]
        srs = tuple(sel >> i & 1 for i in range(s))
        for i in range(1 << len(basis)):
            if i:  # Gray code: one xor per solution
                c ^= basis[(i & -i).bit_length() - 1]
            if c:
                found.append((tuple(c >> k & 1 for k in range(a)), srs))

    def search(node, i, sel, j):
        """Selector bits s_0 .. s_(i-1) fixed in sel, columns 0 .. j-1 added to node."""
        if i == s:
            leaf(node, sel, j)
            return
        search(node, i + 1, sel, j)
        child = add(node, [(j, i)]) if j < width else node
        if child is not None:
            search(child, i + 1, sel | 1 << i, j + 1)

    root = add(({}, 0, 0), [(0, 0)] if width else [])
    if root is not None:
        search(root, 1, 1, 1)
    return [ShrinkingKey(LfsrState(sra), LfsrState(srs)) for sra, srs in sorted(found)]
