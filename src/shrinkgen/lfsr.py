"""LFSR sequence generation.

A register of length L with characteristic polynomial
x^L + c_{L-1} x^{L-1} + ... + c_0 runs the recurrence
a[k+L] = sum_i c_i * a[k+i]; its output sequence is the initial state
extended by that recurrence, so the first L output bits are the state bits
themselves.

Streams run a block of _BLOCK_BITS clocks at a time: output bit u of the
state c is parity((x^u mod P) & c), and the state _BLOCK_BITS clocks on is
linear in c as well, so one table per byte of c gives both at once.  The
shrinking generator (generator._keystream) writes each chunk of clocks as
ASCII '0'/'1' digits, once.  Over many IC rows it does not clock its
selector past one period: the kept clocks repeat every 2^S - 1 clocks, at
the offsets of the selector's 1s, so it fills each IC column with one
strided copy.  Otherwise it keeps the data digits under the selector's 1s
with one compress.

Bit sequences hold one 0/1 byte per bit and serialize as ASCII '0'/'1'
strings, index 0 first; whitespace and line breaks are ignored on parse.
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

# Translation tables between 0/1 bytes and ASCII '0'/'1'.
_ASCII, _BITS = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


def _bit_text(bits: Iterable[int]) -> str:
    """'0'/'1' text of 0/1 ints, index 0 first: one byte per bit, no string per bit."""
    return bytes(bits).translate(_ASCII).decode()


class BitSequence:
    """Immutable bit vector; a bytes argument is checked in one C pass, anything else per item."""

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int]):
        if isinstance(bits, bytes):
            if bits.translate(None, b"\0\1"):
                raise ValueError("sequence bits must be 0 or 1")
        else:
            bits = tuple(map(int, bits))
            if bits.count(0) + bits.count(1) != len(bits):
                raise ValueError("sequence bits must be 0 or 1")
            bits = bytes(bits)
        self._bits = bits

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self._bits)

    @classmethod
    def parse(cls, text: str) -> "BitSequence":
        s = "".join(text.split()).encode("ascii", "replace")  # a non-ASCII character becomes '?'
        if s.translate(None, b"01"):
            raise ValueError("bit strings may only contain '0' and '1'")
        return cls(s.translate(_BITS))

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i):
        return tuple(self._bits[i]) if isinstance(i, slice) else self._bits[i]

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
        bits = tuple(map(int, self.bits))
        if not bits:
            raise ValueError("state must have at least one bit")
        if bits.count(0) + bits.count(1) != len(bits):
            raise ValueError("state bits must be 0 or 1")
        if 1 not in bits:
            raise ValueError("state must not be all-zero")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def parse(cls, text: str) -> "LfsrState":
        s = "".join(text.split())
        if any(ch not in "01" for ch in s):
            raise ValueError("state strings may only contain '0' and '1'")
        return cls(s)

    @property
    def length(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return _bit_text(self.bits)


def lfsr_stream(spec: LfsrSpec, state: LfsrState) -> Iterator[int]:
    """Yield the register's output sequence indefinitely."""
    if state.length != spec.length:
        raise ValueError(f"state has {state.length} bits, register needs {spec.length}")
    tables = _block_tables(spec.taps, spec.length)
    return chain.from_iterable(_blocks(_state_mask(state), tables, spec.length))


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
    once per register, with each SgSpec that uses it, or on the first stream
    of a register no spec holds.
    """
    m = taps | 1 << length
    powers = _powers(_mulmod(1, 2, m), _BLOCK_BITS + length, m)  # x^u mod P
    rows = powers[_BLOCK_BITS:] + powers[:_BLOCK_BITS]  # row p gives bit p of an entry
    return _byte_tables(rows, length)


def _step(reg: int, tables: tuple[tuple[int, ...], ...], length: int) -> tuple[int, bytes]:
    """reg clocked _BLOCK_BITS times and those clocks' output bits as bytes, one lookup per byte."""
    entry = 0
    for table, d in zip(tables, reg.to_bytes(len(tables), "little")):
        entry ^= table[d]
    return entry & ((1 << length) - 1), (entry >> length).to_bytes(_BLOCK_BITS // 8, "little")


def _window(reg: int, tables: tuple[tuple[int, ...], ...], length: int, bits: int) -> int:
    """The output from state reg, whole block steps of at least bits bits, as one int (bit u)."""
    steps = []
    for _ in range(-(-bits // _BLOCK_BITS)):
        reg, out = _step(reg, tables, length)
        steps.append(out)
    return int.from_bytes(b"".join(steps), "little")


def _blocks(reg: int, tables: tuple[tuple[int, ...], ...], length: int) -> Iterator[bytes]:
    """The output from state reg, _BLOCK_BITS bits per block as 0/1 bytes, one format per block."""
    while True:
        reg, out = _step(reg, tables, length)
        yield f"{int.from_bytes(out, 'little'):0{_BLOCK_BITS}b}"[::-1].encode().translate(_BITS)


def lfsr_generate(spec: LfsrSpec, state: LfsrState, n: int) -> BitSequence:
    """First n output terms; one period is spec.period = 2^L - 1 of them."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return BitSequence(bytes(islice(lfsr_stream(spec, state), n)))
