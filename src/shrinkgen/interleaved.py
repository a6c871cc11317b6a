"""Interleaved-configuration layout: known bits and the IC view.

One keystream period arranges row-major into the (2^A - 1) x 2^(S-1)
interleaved configuration (IC): cell (n, j) holds keystream bit
n * 2^(S-1) + j.  Each column is the same PN-sequence at a different
starting point, which is what the attack exploits.

Known-bits files carry one "<position> <bit>" pair per line in decimal;
'#' starts a comment and positions must be strictly ascending.  IC dumps
print one matrix row per line with '.' for unknown cells.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Mapping

from .generator import _check_lengths
from .lfsr import BitSequence

# An IC cell's byte, its bit or 2 where unknown, to its character in a dump line.
_CELL_TEXT = bytes.maketrans(b"\0\1\2", b"01.")


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
            if not all(part.isascii() and part.isdigit() for part in parts):
                raise ValueError(f"line {ln}: position and bit must be decimal integers")
            try:
                pos, bit = int(parts[0]), int(parts[1])
            except ValueError:  # more digits than Python converts to int
                raise ValueError(f"line {ln}: position or bit has too many digits") from None
            if pos <= last:
                raise ValueError(f"line {ln}: positions must be strictly ascending")
            last = pos
            entries.append((pos, bit))
        return cls(entries)

    @classmethod
    def from_prefix(cls, bits: Iterable[int]) -> "KnownBits":
        """Known bits for a contiguous keystream run beginning at position 0.

        A BitSequence's bits are already 0/1 and its positions range(n), ascending and
        distinct, so its map is built in one C pass; anything else is checked per item.
        """
        if not isinstance(bits, BitSequence):
            return cls(enumerate(bits))
        known = cls.__new__(cls)
        known._entries = dict(enumerate(bits))
        return known

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
    """Known keystream bits viewed as a rows x cols matrix: cell (n, j) is position n * cols + j."""

    __slots__ = ("rows", "cols", "_known")

    def __init__(self, rows: int, cols: int, known: KnownBits):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        beyond = next((pos for pos in known.positions() if pos >= rows * cols), None)
        if beyond is not None:
            raise ValueError(f"position {beyond} lies beyond one keystream period ({rows * cols})")
        self.rows, self.cols, self._known = rows, cols, known._entries

    def cell(self, row: int, col: int) -> int | None:
        """Bit at (row, col), or None when that keystream position is unknown."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"cell ({row}, {col}) outside a {self.rows}x{self.cols} matrix")
        return self._known.get(row * self.cols + col)

    def __len__(self) -> int:
        return len(self._known)

    def lines(self) -> Iterator[str]:
        """One line per matrix row, each built when it is read; '.' marks unknown cells."""
        get, cols = self._known.get, self.cols
        for start in range(0, self.rows * cols, cols):
            row = bytes(map(get, range(start, start + cols), repeat(2)))
            yield row.translate(_CELL_TEXT).decode()

    def __repr__(self) -> str:
        return f"<InterleavedConfig {self.rows}x{self.cols}, {len(self._known)} known>"


def build_ic(known: KnownBits, a: int, s: int) -> InterleavedConfig:
    """The (2^A - 1) x 2^(S-1) IC: position p at cell (p div 2^(S-1), p mod 2^(S-1))."""
    _check_lengths(a, s)
    return InterleavedConfig((1 << a) - 1, 1 << (s - 1), known)

