"""Arithmetic over GF(2)[x].

Polynomials over GF(2) are held as integer bit masks: bit k of the mask is
the coefficient of x^k, so x^5 + x^4 + x^3 + x^2 + 1 is 0b111101 = 0x3D.
The mask representation is canonical by construction: no coefficient can sit
above the degree, and the zero polynomial is mask 0 with degree ``None``.

The text format is a sum of ``x^k`` terms in descending powers, with ``x``
for k = 1 and ``1`` for k = 0.  ``BinaryPolynomial.parse`` also accepts a
hex mask prefixed with ``0x``; ``str()`` always prints the text form.
Exponents and hex digits are ASCII only, and no exponent may exceed
``PARSE_DEGREE_CAP``.  All arithmetic is on masks: ``_mulmod`` is the only
polynomial product, and every power (``_xpow``, ``_powers``, ``_jump``) is a
chain of ``_mulmod`` calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import UnsupportedSizeError

# Primitivity testing needs the full factorization of 2^L - 1; trial
# division past this degree would dominate everything else done here.
FACTOR_DEGREE_CAP = 40

# Highest exponent a polynomial term may carry in text: far above any degree
# the toolkit works at, and low enough that building the mask costs nothing.
PARSE_DEGREE_CAP = 4096

# Exponent bits per row of a jump table.  Width 4 makes a jump 5-8x faster
# than _xpow at degrees 12-61 for a table of 2^4 powers per row; width 8
# jumps up to 1.7x faster again but takes about 7x longer to build.
_JUMP_BITS = 4


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

    def __bool__(self) -> bool:
        return self.mask != 0

    @classmethod
    def parse(cls, text: str) -> "BinaryPolynomial":
        """Parse the text form (``x^5+x^4+1``, ``x``, ``1``, ``0``) or a ``0x`` hex mask."""
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial")
        if s[:2].lower() == "0x":
            if not re.fullmatch("[0-9a-fA-F]+", s[2:]):
                raise ValueError(f"bad hex polynomial mask {text!r}")
            return cls(int(s[2:], 16))
        if s == "0":
            return cls(0)
        mask = 0
        for term in s.split("+"):
            if term == "1":
                k = 0
            elif term == "x":
                k = 1
            elif re.fullmatch(r"x\^[0-9]+", term):
                try:
                    k = int(term[2:])
                except ValueError:  # more digits than Python converts to int
                    raise ValueError(f"exponent of term {term!r} is too long") from None
                if k > PARSE_DEGREE_CAP:
                    raise ValueError(
                        f"exponent of term {term!r} exceeds the degree cap {PARSE_DEGREE_CAP}")
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


def _powers(base: int, count: int, m: int) -> list[int]:
    """base^0 .. base^(count - 1) mod m, for base already reduced mod m."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(_mulmod(powers[-1], base, m))
    return powers


def _xpow(k: int, m: int) -> int:
    """x^k mod m on masks, for m of degree >= 1."""
    result, base = 1, _mulmod(1, 2, m)  # x mod m
    while k:
        if k & 1:
            result = _mulmod(result, base, m)
        base = _mulmod(base, base, m)
        k >>= 1
    return result


def _jump_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds x^(d * 16^i) mod m for d < 16, one row per 4-bit digit of a
    (deg m)-bit exponent: the powers of x that _jump multiplies together."""
    table, base = [], _mulmod(1, 2, m)  # x^(16^i) mod m
    for _ in range(-(-(m.bit_length() - 1) // _JUMP_BITS)):
        row = _powers(base, 1 << _JUMP_BITS, m)
        table.append(tuple(row))
        base = _mulmod(row[-1], base, m)
    return tuple(table)


def _jump(table: tuple[tuple[int, ...], ...], k: int, m: int) -> int:
    """x^k mod m for 0 <= k < 2^(deg m), table = _jump_table(m).

    One table entry per nonzero 4-bit digit of k, multiplied together: at
    most ceil(deg m / 4) multiplies and no squarings.
    """
    result, i = 1, 0
    while k:
        d = k & ((1 << _JUMP_BITS) - 1)
        if d:
            result = table[i][d] if result == 1 else _mulmod(result, table[i][d], m)
        k >>= _JUMP_BITS
        i += 1
    return result


def _eliminate(
    rows: Iterable[tuple[int, int]], pivots: dict[int, tuple[int, int]] | None = None
) -> dict[int, tuple[int, int]] | None:
    """Gauss-Jordan elimination of the rows parity(mask & c) = rhs, read lazily.

    Adds the rows to `pivots` in place, a map an earlier call returned, so a
    caller can extend a system without eliminating its rows again; without
    it, starts from no rows.  The right-hand side is xored along with its
    mask, so one int may carry several right-hand sides as its bits.
    Returns None at the first row that reduces to mask 0 with a nonzero
    right-hand side, leaving `pivots` part-extended.  Otherwise returns the
    map from each pivot bit to its reduced (mask, rhs) row, whose mask is
    free of every other pivot bit.
    """
    if pivots is None:
        pivots = {}
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
    return pivots


def _inverse(masks: list[int]) -> tuple[int, ...]:
    """Inverse of the system parity(masks[i] & c) = v_i, for n independent n-bit masks.

    Eliminates every row with its own index as right-hand side, so pivot p
    ends as mask 1 << p beside the set of rows that sum to it: bit p of the
    solution c is parity(inverse[p] & v), v holding v_i at bit i.
    """
    pivots = _eliminate((mask, 1 << i) for i, mask in enumerate(masks))
    return tuple(pivots[p][1] for p in range(len(masks)))


def _byte_tables(rows: list[int], width: int) -> tuple[tuple[int, ...], ...]:
    """The GF(2) map c -> sum of parity(rows[p] & c) << p, for width-bit c, one table per byte.

    Table k, entry d, is the image of c = d << 8k, so the image of any c is
    the xor of one entry per byte of c: the "Four Russians" tables of
    Arlazarov, Dinic, Kronrod and Faradzev.
    """
    # Column b of the rows, as an int: the image of bit b alone.
    columns = [int("".join(col)[::-1], 2) for col in zip(*(f"{r:0{width}b}" for r in rows))][::-1]
    tables = []
    for k in range(0, width, 8):
        table = [0]
        for column in columns[k:k + 8]:
            table += [entry ^ column for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


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
    return berlekamp_massey(p & 1 for p in _powers(_xpow(n, pa.mask), 2 * a, pa.mask))[1]


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
