"""Arithmetic over GF(2)[x].

Polynomials over GF(2) are held as integer bit masks: bit k of the mask is
the coefficient of x^k, so x^5 + x^4 + x^3 + x^2 + 1 is 0b111101 = 0x3D.
The mask representation is canonical by construction: no coefficient can sit
above the degree, and the zero polynomial is mask 0 with degree ``None``.

The text format is a sum of ``x^k`` terms in descending powers, with ``x``
for k = 1 and ``1`` for k = 0.  ``BinaryPolynomial.parse`` also accepts a
hex mask prefixed with ``0x``; ``str()`` always prints the text form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import UnsupportedSizeError

# Primitivity testing needs the full factorization of 2^L - 1; trial
# division past this degree would dominate everything else done here.
FACTOR_DEGREE_CAP = 40


@dataclass(frozen=True)
class BinaryPolynomial:
    """A polynomial over GF(2); ``mask`` bit k is the coefficient of x^k."""

    mask: int

    def __post_init__(self) -> None:
        if not isinstance(self.mask, int) or self.mask < 0:
            raise ValueError("polynomial mask must be a nonnegative integer")

    @property
    def degree(self) -> int | None:
        """Index of the highest nonzero coefficient; None for the zero polynomial."""
        return self.mask.bit_length() - 1 if self.mask else None

    def coeff(self, k: int) -> int:
        return (self.mask >> k) & 1

    def __bool__(self) -> bool:
        return self.mask != 0

    def __add__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        return BinaryPolynomial(self.mask ^ other.mask)

    def __mul__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        a, b, acc = self.mask, other.mask, 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        return BinaryPolynomial(acc)

    def __mod__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        if not isinstance(other, BinaryPolynomial):
            return NotImplemented
        if not other.mask:
            raise ZeroDivisionError("division by the zero polynomial")
        a, n = self.mask, other.mask.bit_length()
        while a.bit_length() >= n:
            a ^= other.mask << (a.bit_length() - n)
        return BinaryPolynomial(a)

    def __pow__(self, k: int) -> "BinaryPolynomial":
        if k < 0:
            raise ValueError("exponent must be >= 0")
        result, base = BinaryPolynomial(1), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    @classmethod
    def parse(cls, text: str) -> "BinaryPolynomial":
        """Parse the text form (``x^5+x^4+1``, ``x``, ``1``, ``0``) or a ``0x`` hex mask."""
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial")
        if s[:2].lower() == "0x":
            try:
                return cls(int(s, 16))
            except ValueError:
                raise ValueError(f"bad hex polynomial mask {text!r}") from None
        if s == "0":
            return cls(0)
        mask = 0
        for term in s.split("+"):
            if term == "1":
                k = 0
            elif term == "x":
                k = 1
            elif term.startswith("x^"):
                try:
                    k = int(term[2:])
                except ValueError:
                    raise ValueError(f"bad polynomial term {term!r} in {text!r}") from None
                if k < 0:
                    raise ValueError(f"negative exponent in {text!r}")
            else:
                raise ValueError(f"bad polynomial term {term!r} in {text!r}")
            if (mask >> k) & 1:
                raise ValueError(f"duplicate term x^{k} in {text!r}")
            mask |= 1 << k
        return cls(mask)

    def __str__(self) -> str:
        if not self.mask:
            return "0"
        return "+".join("1" if k == 0 else "x" if k == 1 else f"x^{k}"
                        for k in range(self.mask.bit_length() - 1, -1, -1) if (self.mask >> k) & 1)

    def __repr__(self) -> str:
        return f"BinaryPolynomial({self})"


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return tuple(factors)


def _mulmod(u: int, v: int, m: int) -> int:
    """u * v mod m on masks; u must already be reduced mod m."""
    top, acc = 1 << (m.bit_length() - 1), 0
    while v:
        if v & 1:
            acc ^= u
        v, u = v >> 1, u << 1
        if u & top:
            u ^= m
    return acc


def _xpow(k: int, m: int) -> int:
    """x^k mod m on masks, for m of degree >= 1."""
    result, base = 1, _mulmod(1, 2, m)  # x mod m
    while k:
        if k & 1:
            result = _mulmod(result, base, m)
        base = _mulmod(base, base, m)
        k >>= 1
    return result


def _solve(rows: Iterable[tuple[int, int]], n: int) -> tuple[int, list[int]] | None:
    """Solve parity(mask & c) = bit for an n-bit mask c by Gauss-Jordan elimination.

    Reads the (mask, bit) rows lazily and returns None at the first one that
    contradicts the rows before it.  Otherwise returns (c0, basis): the
    solutions are c0 xor every sum of basis vectors, one per free bit, so the
    rank is n - len(basis).
    """
    pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> row, free of every other pivot bit
    for mask, bit in rows:
        for p, (pmask, pbit) in pivots.items():
            if mask >> p & 1:
                mask, bit = mask ^ pmask, bit ^ pbit
        if not mask:
            if bit:
                return None
            continue
        p = mask.bit_length() - 1
        for q, (qmask, qbit) in pivots.items():
            if qmask >> p & 1:
                pivots[q] = qmask ^ mask, qbit ^ bit
        pivots[p] = mask, bit
    c0 = sum(bit << p for p, (_, bit) in pivots.items())
    basis = [(1 << f) | sum(1 << p for p, (mask, _) in pivots.items() if mask >> f & 1)
             for f in range(n) if f not in pivots]
    return c0, basis


@lru_cache(maxsize=None)
def poly_is_primitive(p: BinaryPolynomial) -> bool:
    """True iff p is primitive over GF(2): irreducible with x of maximal order.

    Checking the order of x alone settles it: if x has order 2^L - 1 modulo p,
    the unit group of GF(2)[x]/(p) must contain all 2^L - 1 nonzero residues,
    which already forces p irreducible.
    """
    deg = p.degree
    if deg is None or deg < 1:
        raise ValueError("primitivity is defined for degree >= 1")
    if deg > FACTOR_DEGREE_CAP:
        raise UnsupportedSizeError(
            f"degree {deg} exceeds the factorization cap {FACTOR_DEGREE_CAP}"
        )
    if not p.mask & 1:  # x divides p
        return False
    order = (1 << deg) - 1
    return _xpow(order, p.mask) == 1 and all(
        _xpow(order // q, p.mask) != 1 for q in _prime_factors(order))


def mod_inverse(u: int, m: int) -> int:
    """The v in [1, m-1] with u*v = 1 (mod m)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(u, -1, m)
    except ValueError:
        raise ValueError(f"{u} has no inverse modulo {m}") from None


def coset_min_poly(n: int, pa: BinaryPolynomial) -> BinaryPolynomial:
    """Minimal polynomial over GF(2) of alpha^n, alpha a root of primitive pa.

    Runs Berlekamp-Massey over bit 0 of beta^k mod pa, beta = x^n mod pa.
    That sequence is nonzero (beta^0 = 1) and obeys the recurrence of beta's
    minimal polynomial; being irreducible, that polynomial is also the
    sequence's own minimal polynomial, and its degree of at most A makes the
    first 2A bits enough for Berlekamp-Massey to find it.
    """
    if not poly_is_primitive(pa):
        raise ValueError(f"{pa} is not primitive")
    a = pa.degree
    m = (1 << a) - 1
    if not 1 <= n < m:
        raise ValueError(f"exponent must lie in [1, {m})")
    beta = _xpow(n, pa.mask)
    power, bits = 1, []
    for _ in range(2 * a):
        bits.append(power & 1)
        power = _mulmod(power, beta, pa.mask)
    return berlekamp_massey(bits)[1]


def berlekamp_massey(bits: Iterable[int]) -> tuple[int, BinaryPolynomial]:
    """Minimal LFSR length and characteristic polynomial of a bit sequence.

    Returns (lc, conn) where conn = x^lc + c_{lc-1} x^{lc-1} + ... + c_0 and
    the recurrence b[k+lc] = sum_i c_i * b[k+i] regenerates the input.  The
    all-zero sequence gives (0, 1).
    """
    c, b = 1, 1  # feedback masks, bit i = coefficient of x^i
    lc, m = 0, -1
    window = 0  # bit i = input bit n - i
    for n, s in enumerate(bits):
        s = int(s)
        if s not in (0, 1):
            raise ValueError("sequence bits must be 0 or 1")
        window = (window << 1) | s
        if (c & window).bit_count() & 1:  # discrepancy
            t = c
            c ^= b << (n - m)
            if 2 * lc <= n:
                lc, m, b = n + 1 - lc, n, t
    return lc, BinaryPolynomial(sum(1 << (lc - i) for i in range(lc + 1) if (c >> i) & 1))
