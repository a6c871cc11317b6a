"""Deterministic key recovery from a corner of the interleaved configuration.

IC cell (n, j) is data bit t = n(2^S - 1) + o_j, o_j the position of the
(j+1)-th 1 in the selector sequence, so every intercepted bit is one GF(2)
equation in the data state: cell (n, j) = parity(R_n & c_{o_j}), where
R_n = x^(n(2^S - 1)) mod P_A and c_o is the data state clocked o times.
Everything that depends only on the public polynomials is built once, with
the SgSpec: the masks R_0 .. R_{A-1}, the column polynomial P_D, the inverse
of the A column-0 equations as one table per byte of a column, a jump table
on P_A: any other row is at most ceil(A/8) - 2 multiplies and a shift, and
both registers' block tables.  One pass over the known bits packs each
corner column j into an A-bit int v_j (bit n = cell (n, j)), and ceil(A/8)
table lookups turn v_j into its data state c_{o_j}.  Phase one solves
column 0.  Block steps of 256 clocks read the data bits into one int, the
window, so c_o = window >> o & (2^A - 1); phase two compares c_o for
o = o_{j-1}+1 .. o_{j-1}+S with column j's state until an offset reaches
S - 1, which settles all S selector bits.  The check takes o_0 .. o_J, up
to the highest known column J, from the selector's block steps, compares
each corner column's state with the key's and reads every other known bit
off the window; no register is clocked bit by bit, and far rows are jumps.

Keys come out in canonical form (selector state starting with 1): a key whose
selector starts with 0 yields its shift-equivalent canonical key, which
generates the same keystream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, takewhile
from typing import Callable, Iterable

from .errors import InconsistentDataError, InsufficientInputError, UnsupportedSizeError
from .gf2 import _JUMP_BITS, BinaryPolynomial, _eliminate, _jump, _mulmod, mod_inverse
from .generator import SgSpec, ShrinkingKey, _column_offsets, column_poly
from .interleaved import KnownBits
from .lfsr import BitSequence, LfsrSpec, LfsrState, _state_mask, _window, lfsr_generate

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


def _row_reader(spec: SgSpec) -> Callable[[int], tuple[int, int]]:
    """n -> (M, r), r < 256, with IC row n's mask R_n = x^(n(2^S - 1)) mod P_A = M * x^r mod P_A.

    Cell (n, j), data bit n(2^S - 1) + o_j, is parity(R_n & c_{o_j}) = parity(M & c_{o_j + r}),
    c_o the data state (bit i = a_{o+i}) clocked o times: parity((M << (r + o_j)) & w) off a
    data window w (bit u = a_u).  Rows below A are the spec's, with r = 0.  Any other splits
    n(2^S - 1) mod (2^A - 1) into 256q + r; M = x^(256q) is a jump of <= ceil(A/8) - 2 multiplies.
    """
    rows, jumps, m = spec._rows, spec._jumps[1:], spec.pa.mask
    a, step, period = len(rows), (1 << spec.s_length) - 1, (1 << len(rows)) - 1

    def row(n: int) -> tuple[int, int]:
        if n < a:
            return rows[n], 0
        q, r = divmod(n * step % period, 1 << _JUMP_BITS)
        return _jump(jumps, q, m), r

    return row


def _corner(attack_input: AttackInput) -> tuple[list[int], list[tuple[int, int]]]:
    """Corner columns v_0 .. v_{S-1}, bit n of v_j = cell (n, j), and the other known bits.

    One pass over the known bits, which must hold every A x S corner cell;
    the far (position, bit) pairs keep their ascending order.
    """
    a, s = attack_input.spec.a_length, attack_input.spec.s_length
    shift, low, end = s - 1, (1 << (s - 1)) - 1, a << (s - 1)
    columns, far = [0] * s, []
    for pos, bit in attack_input.known.items():
        if pos < end and pos & low < s:
            columns[pos & low] |= bit << (pos >> shift)
        else:
            far.append((pos, bit))
    if len(attack_input.known) - len(far) < a * s:
        known = set(attack_input.known.positions())
        missing = [(n, j) for n in range(a) for j in range(s) if n << shift | j not in known]
        raise InsufficientInputError(
            f"missing {len(missing)} of the required top-left {a}x{s} cells: {missing[:8]}"
        )
    return columns, far


def _solve(spec: SgSpec, v: int) -> int:
    """The data state c_{o_j} from column j's A cells v, one lookup per byte of v.

    P_D, the minimal polynomial of x^(2^S - 1), has degree A, so the masks
    R_0 .. R_{A-1} of the equations (R_n, cell (n, j)) are independent: a
    state matches all A cells exactly when it equals this one.  Row p of the
    spec's inverse is x^(n_p) mod P_D, n_p from row_positions: it reads the
    strategic cell (n_p, j), which holds bit p, off the A cells.
    """
    c = 0
    for table, d in zip(spec._col0_tables, v.to_bytes(len(spec._col0_tables), "little")):
        c ^= table[d]
    return c


def _offsets(spec: SgSpec, solved: list[int], window: int) -> tuple[int, tuple[int, ...]]:
    """Selector state (bit i = s_i) and offsets from the solved columns' states and the
    data window of c_0, which must hold a_u for u < A + 2S - 2."""
    s, mask, offsets = spec.s_length, (1 << spec.a_length) - 1, [0]
    while offsets[-1] < s - 1:
        # A selector sequence never runs S zeros: column j starts at most S past column j-1.
        j, last = len(offsets), offsets[-1] + s
        o = next((o for o in range(offsets[-1] + 1, last + 1) if window >> o & mask == solved[j]), 0)
        if not o:
            raise InconsistentDataError(f"no offset candidate up to {last} matches column {j}")
        offsets.append(o)
    return sum(1 << o for o in offsets if o < s), tuple(offsets)


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
    columns, _ = _corner(attack_input)
    window = _window(_state_mask(sra), spec._sra_blocks, a, a + 2 * s)
    w, offsets = _offsets(spec, [_solve(spec, v) for v in columns], window)
    return LfsrState(f"{w:0{s}b}"[::-1]), offsets


def _check_regeneration(spec: SgSpec, window: int, offsets: list[int], columns: list[int],
                        solved: list[int], far: Iterable[tuple[int, int]]) -> None:
    """Raise at the lowest position where the corner columns or the far (position, bit) pairs
    disagree with the key whose data bits a_u are bit u of window, o_j in offsets (to o_J).

    Corner column j matches exactly when solved[j], _solve of its cells columns[j], is the
    key's c_{o_j} = window >> o_j & (2^A - 1): one compare, and only a mismatch reads its rows,
    one parity each.  A far bit is one shift, AND and parity, plus one jump per row past
    A - 1, whose bits the window must hold up to a_{o_J + A + 254}.
    """
    mask, shift, corner = (1 << spec.a_length) - 1, spec.s_length - 1, []
    for j, (v, state) in enumerate(zip(columns, solved)):
        key = window >> offsets[j] & mask
        if state != key:
            n = next(n for n, row in enumerate(spec._rows) if (row & key).bit_count() & 1 != v >> n & 1)
            corner.append(n << shift | j)
    lowest = min(corner, default=None)
    if lowest is not None:
        far = takewhile(lambda item: item[0] < lowest, far)
    row_of, low, last = _row_reader(spec), (1 << shift) - 1, -1
    for pos, bit in far:  # one row read per distinct row, ascending
        if pos >> shift != last:
            last = pos >> shift
            row, r = row_of(last)
        if (row << (r + offsets[pos & low]) & window).bit_count() & 1 != bit:
            lowest = pos
            break
    if lowest is not None:
        raise InconsistentDataError(f"recovered key disagrees with the known bit at position {lowest}")


def attack(attack_input: AttackInput) -> AttackResult:
    """Run both phases, then check the recovered key regenerates every known bit.

    Needs the A x S top-left IC cells, i.e. keystream positions
    n * 2^(S-1) + j for n < A, j < S.  Each corner column is read once, as
    one A-bit int, and solved to its data state by ceil(A/8) table lookups;
    the phases and the check compare those states with the key's, read off
    a window of data bits, one int compare per candidate offset or column.
    Any further known bits, at any position, only feed the final check,
    which reads each from the key by one shift and AND, plus per row past
    A - 1 one jump of at most ceil(A/8) - 2 multiplies, so a far position
    costs no more than a near one.  A failure keeps its type and gains its
    step's label: sra-recovery, srs-recovery or regeneration-check.
    """
    spec = attack_input.spec
    a, s = spec.a_length, spec.s_length
    columns, far = _corner(attack_input)
    solved = [_solve(spec, v) for v in columns]
    c, label = solved[0], "sra-recovery"
    try:
        if not c:
            raise InconsistentDataError("a genuine column never contains an all-zero window")
        # Column J, the highest known, starts by min(J * S, 2^S - 2); far rows read r <= 255 more.
        cols = 1 << (s - 1)
        top = cols - 1 if len(far) >= cols else max([s - 1] + [pos & (cols - 1) for pos, _ in far])
        reach = (1 << _JUMP_BITS) - 1 if far and far[-1][0] >> (s - 1) >= a else 0
        window = _window(c, spec._sra_blocks, a, a + min(top * s, (1 << s) - 2) + reach)
        label = "srs-recovery"
        w, offsets = _offsets(spec, solved, window)
        label = "regeneration-check"
        _check_regeneration(spec, window, _column_offsets(spec, w, top + 1), columns, solved, far)
    except (ValueError, InconsistentDataError, InsufficientInputError) as exc:
        raise type(exc)(f"{label}: {exc}") from exc
    del far, window, columns, solved  # freed first, so the result is built at a lower peak
    # _offsets tries each candidate offset 1 .. o_last once and reads A cells per column
    work = WorkCounters(comparisons=offsets[-1], column_bits_expanded=a * len(offsets))
    sra, srs = (LfsrState(f"{x:0{n}b}"[::-1]) for x, n in ((c, a), (w, s)))
    return AttackResult(sra, srs, offsets, column_poly(spec), work)


def brute_force(attack_input: AttackInput) -> list[ShrinkingKey]:
    """All canonical keys consistent with every known bit, by depth-first search over the selector.

    Known bit n * 2^(S-1) + j is the GF(2) equation parity((R_n * x^(o_j)
    mod P_A) & c) = bit in the data state c.  The search fixes the selector
    bits s_1 .. s_(S-1) in turn, 0 before 1 (s_0 = 1): a 1 at s_i makes i
    the offset of the next column, whose known cells join the parent's
    eliminated system (at the root, column 0's top A cells, when all known,
    give c by the spec's table solve), and a contradiction prunes the branch.
    Once the rank reaches A, c is fixed and each further cell costs one AND
    and a parity on the data state clocked to its offset.  At a leaf, the
    later offsets follow from the selector's block steps, and every one of
    the 2^(A - rank) solutions except c = 0 is a key.  Keys come out sorted
    by their data-state and then selector-state bit strings, so the result
    is deterministic.  Raises UnsupportedSizeError when (S - 1) + (A - rank)
    exceeds BRUTE_FORCE_MAX_BITS - 1 for some consistent selector state.
    """
    spec = attack_input.spec
    a, s, m = spec.a_length, spec.s_length, spec.pa.mask
    budget = BRUTE_FORCE_MAX_BITS - 1
    if s - 1 > budget:
        raise UnsupportedSizeError(
            f"S - 1 = {s - 1} guessed selector bits exceed the exhaustive-search budget ({budget})"
        )
    taps, top, last, row_of = spec.sra.taps, a - 1, -1, _row_reader(spec)
    columns: dict[int, list[tuple[int, int]]] = {}  # j -> (R_n, bit) of its known cells
    for pos, bit in attack_input.known.items():
        n, j = divmod(pos, 1 << (s - 1))
        if n != last:
            (row, r), last = row_of(n), n
            row = _mulmod(row, spec._jumps[0][r], m) if r else row  # R_n = M * x^r
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
                # R_n = 1 only in row 0 (and its period multiples): R_0 * x^o is x^o itself
                rows = ((shifts[o] if row == 1 else _mulmod(row, shifts[o], m), bit)
                        for row, bit in cells)
                if _eliminate(rows, pivots) is None:
                    return None
                if len(pivots) < a:
                    continue
                c, at = sum(bit << p for p, (_, bit) in pivots.items()), 0
            for _ in range(o - at):
                c = (c >> 1) | (((c & taps).bit_count() & 1) << top)
            at = o
            if any((row & c).bit_count() & 1 != bit for row, bit in cells):
                return None
        return pivots, c, at

    def leaf(node, sel, j):
        """Add the columns at offsets >= S, then collect the solutions."""
        if j < width:  # sel holds the j offsets below S; the later ones follow from it
            node = add(node, islice(enumerate(_column_offsets(spec, sel, width)), j, None))
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

    # Column 0's top A cells, when all known, solve by the spec's tables to a rank-A root.
    first, root = dict(columns.get(0, ())), ({}, 0, 0)
    if all(row in first for row in spec._rows):
        c = _solve(spec, sum(first[row] << n for n, row in enumerate(spec._rows)))
        root = ({p: (1 << p, c >> p & 1) for p in range(a)}, c, 0)
    root = add(root, [(0, 0)] if width else [])
    if root is not None:
        search(root, 1, 1, 1)
    return [ShrinkingKey(LfsrState(sra), LfsrState(srs)) for sra, srs in sorted(found)]
