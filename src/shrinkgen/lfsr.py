"""LFSR sequence generation.

A register of length L with characteristic polynomial
x^L + c_{L-1} x^{L-1} + ... + c_0 runs the recurrence
a[k+L] = sum_i c_i * a[k+i]; its output sequence is the initial state
extended by that recurrence, so the first L output bits are the state bits
themselves.

Bit sequences serialize as ASCII '0'/'1' strings, index 0 first; whitespace
and line breaks are ignored on parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .gf2 import BinaryPolynomial, poly_is_primitive


class BitSequence:
    """Immutable bit vector with an optional declared period."""

    __slots__ = ("_bits", "_period")

    def __init__(self, bits: Iterable[int], period: int | None = None):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("sequence bits must be 0 or 1")
        if period is not None:
            if period < 1 or not bits or len(bits) % period:
                raise ValueError("bit count must be a positive multiple of the period")
            if any(bits[i] != bits[i % period] for i in range(period, len(bits))):
                raise ValueError("bits do not repeat with the declared period")
        self._bits = bits
        self._period = period

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits

    @property
    def period(self) -> int | None:
        return self._period

    def at(self, i: int) -> int:
        """Bit at index i of the periodic extension; needs a declared period."""
        if self._period is None:
            raise ValueError("sequence has no declared period")
        return self._bits[i % self._period]

    @classmethod
    def parse(cls, text: str, period: int | None = None) -> "BitSequence":
        s = "".join(text.split())
        if any(ch not in "01" for ch in s):
            raise ValueError("bit strings may only contain '0' and '1'")
        return cls((int(ch) for ch in s), period)

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i):
        return self._bits[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSequence):
            return NotImplemented
        return self._bits == other._bits and self._period == other._period

    def __hash__(self) -> int:
        return hash((self._bits, self._period))

    def __str__(self) -> str:
        return "".join(map(str, self._bits))

    def __repr__(self) -> str:
        return f"<BitSequence len={len(self._bits)} period={self._period}>"


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
        return "".join(map(str, self.bits))


def lfsr_stream(spec: LfsrSpec, state: LfsrState) -> Iterator[int]:
    """Yield the register's output sequence indefinitely."""
    if state.length != spec.length:
        raise ValueError(f"state has {state.length} bits, register needs {spec.length}")
    reg = 0
    for i, b in enumerate(state.bits):
        reg |= b << i
    return _stream(reg, spec.taps, spec.length - 1)


def _stream(reg: int, taps: int, top: int) -> Iterator[int]:
    while True:
        yield reg & 1
        fb = (reg & taps).bit_count() & 1
        reg = (reg >> 1) | (fb << top)


def lfsr_generate(spec: LfsrSpec, state: LfsrState, n: int) -> BitSequence:
    """First n output terms; the period is declared when n covers whole periods."""
    if n < 0:
        raise ValueError("n must be >= 0")
    stream = lfsr_stream(spec, state)
    out = [next(stream) for _ in range(n)]
    t = spec.period
    return BitSequence(out, period=t if n and n % t == 0 else None)

