"""LFSR sequence generation.

A register of length L with characteristic polynomial
x^L + c_{L-1} x^{L-1} + ... + c_0 runs the recurrence
a[k+L] = sum_i c_i * a[k+i]; its output sequence is the initial state
extended by that recurrence, so the first L output bits are the state bits
themselves.

Streams run a block of _BLOCK_BITS clocks at a time: output bit u of the
state c is parity((x^u mod P) & c), and the state _BLOCK_BITS clocks on is
linear in c as well, so one table per byte of c gives both at once.

Bit sequences serialize as ASCII '0'/'1' strings, index 0 first; whitespace
and line breaks are ignored on parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator

from .gf2 import BinaryPolynomial, _byte_tables, _mulmod, _powers, poly_is_primitive

# Clocks per stream step, a multiple of 8.  Each step costs ceil(L/8) table
# lookups plus the bytes of its output, and each table entry holds
# L + _BLOCK_BITS bits.
_BLOCK_BITS = 256

# Byte d as 8 one-byte bits, bit 0 first.
_EXPAND = tuple(bytes(d >> i & 1 for i in range(8)) for d in range(256))


def _bit_text(bits: Iterable[int]) -> str:
    """'0'/'1' text of 0/1 ints, index 0 first: one byte per bit, no string per bit."""
    return bytes(bits).translate(bytes.maketrans(b"\0\1", b"01")).decode()


class BitSequence:
    """Immutable bit vector."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int]):
        bits = tuple(map(int, bits))
        if bits.count(0) + bits.count(1) != len(bits):
            raise ValueError("sequence bits must be 0 or 1")
        self._bits = bits

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits

    @classmethod
    def parse(cls, text: str) -> "BitSequence":
        s = "".join(text.split())
        if any(ch not in "01" for ch in s):
            raise ValueError("bit strings may only contain '0' and '1'")
        return cls(int(ch) for ch in s)

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i):
        return self._bits[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __str__(self) -> str:
        return _bit_text(self._bits)

    def __repr__(self) -> str:
        return f"<BitSequence len={len(self._bits)}>"


@dataclass(frozen=True)
class LfsrSpec:
    """A register defined by its primitive characteristic polynomial."""

    charpoly: BinaryPolynomial

    def __post_init__(self) -> None:
        deg = self.charpoly.degree
        if deg is None or deg < 1:
            raise ValueError("characteristic polynomial must have degree >= 1")
        if not poly_is_primitive(self.charpoly):
            raise ValueError(f"{self.charpoly} is not primitive")

    @property
    def length(self) -> int:
        return self.charpoly.degree

    @property
    def period(self) -> int:
        return (1 << self.length) - 1

    @property
    def taps(self) -> int:
        """Feedback coefficient mask c_0 .. c_{L-1}."""
        return self.charpoly.mask ^ (1 << self.length)


@dataclass(frozen=True)
class LfsrState:
    """Register fill; bit i is sequence term i (the first L output bits)."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise ValueError("state must have at least one bit")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("state bits must be 0 or 1")
        if not any(bits):
            raise ValueError("state must not be all-zero")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def parse(cls, text: str) -> "LfsrState":
        s = "".join(text.split())
        if any(ch not in "01" for ch in s):
            raise ValueError("state strings may only contain '0' and '1'")
        return cls(tuple(int(ch) for ch in s))

    @property
    def length(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return _bit_text(self.bits)


def lfsr_stream(spec: LfsrSpec, state: LfsrState) -> Iterator[int]:
    """Yield the register's output sequence indefinitely."""
    if state.length != spec.length:
        raise ValueError(f"state has {state.length} bits, register needs {spec.length}")
    return chain.from_iterable(_blocks(_state_mask(state), spec.taps, spec.length))


def _state_mask(state: LfsrState) -> int:
    """The state as an int, bit i = sequence term i."""
    return sum(b << i for i, b in enumerate(state.bits))


@lru_cache(maxsize=None)
def _block_tables(taps: int, length: int) -> tuple[tuple[int, ...], ...]:
    """One table per byte k of the state c, entry d for c = d << 8k: next | out << L.

    next is c clocked _BLOCK_BITS times and out holds the _BLOCK_BITS output
    bits, index 0 lowest.  Both are linear in c: output bit u is
    parity((x^u mod P) & c) and bit i of next is parity((x^(_BLOCK_BITS + i)
    mod P) & c), so a state's entry is the XOR of its bytes' entries.  Built
    on a register's first stream, never with its spec.
    """
    m = taps | 1 << length
    powers = _powers(_mulmod(1, 2, m), _BLOCK_BITS + length, m)  # x^u mod P
    rows = powers[_BLOCK_BITS:] + powers[:_BLOCK_BITS]  # row p gives bit p of an entry
    return _byte_tables(rows, length)


def _blocks(reg: int, taps: int, length: int) -> Iterator[bytes]:
    """The output from state reg, _BLOCK_BITS bits per block as 0/1 bytes."""
    tables = _block_tables(taps, length)
    mask = (1 << length) - 1
    while True:
        entry = 0
        for table, d in zip(tables, reg.to_bytes(len(tables), "little")):
            entry ^= table[d]
        reg = entry & mask
        yield b"".join(map(_EXPAND.__getitem__, (entry >> length).to_bytes(_BLOCK_BITS // 8, "little")))


def lfsr_generate(spec: LfsrSpec, state: LfsrState, n: int) -> BitSequence:
    """First n output terms; one period is spec.period = 2^L - 1 of them."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return BitSequence(islice(lfsr_stream(spec, state), n))

