"""Interleaved-configuration matrix and interleaved-sequence checks.

One keystream period arranges row-major into the (2^A - 1) x 2^(S-1)
interleaved configuration (IC): cell (n, j) holds keystream bit
n * 2^(S-1) + j.  Each column is the same PN-sequence at a different
starting point, which is what the attack exploits.

Known-bits files carry one "<position> <bit>" pair per line in decimal;
'#' starts a comment and positions must be strictly ascending.  IC dumps
print one matrix row per line with '.' for unknown cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import InsufficientInputError
from .gf2 import BinaryPolynomial
from .generator import SgSpec, ShrinkingKey, _check_lengths, column_poly, shrink, shrunken_period


class KnownBits:
    """Sparse map from keystream position to intercepted bit."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[int, int] = {}
        for pos, bit in items:
            pos, bit = int(pos), int(bit)
            if pos < 0:
                raise ValueError(f"position {pos} is negative")
            if bit not in (0, 1):
                raise ValueError(f"bit at position {pos} must be 0 or 1")
            if pos in store:
                raise ValueError(f"position {pos} appears more than once")
            store[pos] = bit
        self._entries = dict(sorted(store.items()))

    @classmethod
    def parse(cls, text: str) -> "KnownBits":
        """Parse the known-bits file format."""
        entries = []
        last = -1
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {ln}: expected '<position> <bit>'")
            try:
                pos, bit = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"line {ln}: position and bit must be decimal integers") from None
            if pos <= last:
                raise ValueError(f"line {ln}: positions must be strictly ascending")
            last = pos
            entries.append((pos, bit))
        return cls(entries)

    @classmethod
    def from_prefix(cls, bits: Iterable[int], start: int = 0) -> "KnownBits":
        """Known bits for a contiguous keystream run beginning at `start`."""
        return cls((start + i, b) for i, b in enumerate(bits))

    def positions(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnownBits):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries.items()))

    def __repr__(self) -> str:
        return f"<KnownBits {len(self._entries)} positions>"


class InterleavedConfig:
    """Partial (2^A - 1) x 2^(S-1) matrix of keystream bits."""

    __slots__ = ("_rows", "_cols", "_cells")

    def __init__(self, rows: int, cols: int, cells: Mapping[tuple[int, int], int]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        store: dict[tuple[int, int], int] = {}
        for (r, c), bit in cells.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"cell ({r}, {c}) outside a {rows}x{cols} matrix")
            if bit not in (0, 1):
                raise ValueError(f"cell ({r}, {c}) must be 0 or 1")
            store[(r, c)] = bit
        self._rows = rows
        self._cols = cols
        self._cells = dict(sorted(store.items()))

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    def cell(self, row: int, col: int) -> int | None:
        """Bit at (row, col), or None when that keystream position is unknown."""
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            raise ValueError(f"cell ({row}, {col}) outside a {self._rows}x{self._cols} matrix")
        return self._cells.get((row, col))

    def known_cells(self) -> Iterator[tuple[tuple[int, int], int]]:
        return iter(self._cells.items())

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InterleavedConfig):
            return NotImplemented
        return (self._rows, self._cols, self._cells) == (other._rows, other._cols, other._cells)

    def dump(self) -> str:
        """One matrix row per line; '.' marks unknown cells."""
        lines = []
        for r in range(self._rows):
            row = [self._cells.get((r, c)) for c in range(self._cols)]
            lines.append("".join("." if b is None else str(b) for b in row))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<InterleavedConfig {self._rows}x{self._cols}, {len(self._cells)} known>"


def build_ic(known: KnownBits, a: int, s: int) -> InterleavedConfig:
    """Arrange known bits at (pos div 2^(S-1), pos mod 2^(S-1))."""
    _check_lengths(a, s)
    rows, cols = (1 << a) - 1, 1 << (s - 1)
    cells = {}
    for pos, bit in known.items():
        if pos >= rows * cols:
            raise ValueError(f"position {pos} lies beyond one keystream period ({rows * cols})")
        cells[divmod(pos, cols)] = bit
    return InterleavedConfig(rows, cols, cells)


@dataclass(frozen=True)
class OffsetVector:
    """Column starting offsets o_j; o_0 = 0 under the s_0 = 1 normalization."""

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        offs = tuple(int(o) for o in self.offsets)
        if not offs or offs[0] != 0:
            raise ValueError("offsets must start with o_0 = 0")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("offsets must be strictly increasing")
        object.__setattr__(self, "offsets", offs)

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, j: int) -> int:
        return self.offsets[j]

    def __iter__(self) -> Iterator[int]:
        return iter(self.offsets)

    def __str__(self) -> str:
        return ",".join(str(o) for o in self.offsets)


def ic_source_index(n: int, j: int, offsets: OffsetVector, a: int, s: int) -> int:
    """Index into the data sequence feeding IC cell (n, j): (n*(2^S - 1) + o_j) mod (2^A - 1)."""
    _check_lengths(a, s)
    rows, cols = (1 << a) - 1, 1 << (s - 1)
    if not 0 <= n < rows:
        raise ValueError(f"row {n} outside [0, {rows})")
    if not 0 <= j < cols:
        raise ValueError(f"column {j} outside [0, {cols})")
    if j >= len(offsets):
        raise InsufficientInputError(f"offset o_{j} has not been recovered")
    return (n * ((1 << s) - 1) + offsets[j]) % rows


def is_interleaved(seq: Iterable[int], m: int, f: BinaryPolynomial) -> bool:
    """True iff every stride-m subsequence of seq satisfies f's linear recurrence.

    Short inputs that never expose a full recurrence window pass vacuously.
    """
    if m < 1:
        raise ValueError("size m must be >= 1")
    r = f.degree
    if r is None or r < 1:
        raise ValueError("recurrence polynomial must have degree >= 1")
    bits = [int(b) for b in seq]
    taps = f.mask ^ (1 << r)
    for j in range(m):
        sub = bits[j::m]
        window = sum(b << k for k, b in enumerate(sub[:r]))  # bit k = sub[i + k], i the start
        for b in sub[r:]:
            if (window & taps).bit_count() & 1 != b:
                return False
            window = (window >> 1) | (b << (r - 1))
    return True


def shrunken_interleaved_check(spec: SgSpec, key: ShrinkingKey) -> bool:
    """Check one full keystream period is interleaved of size 2^(S-1) under P_D."""
    a, s = spec.a_length, spec.s_length
    period = shrunken_period(a, s)
    return is_interleaved(shrink(spec, key, period), 1 << (s - 1), column_poly(spec))
