"""The shrinking generator and its keystream algebra.

Covers the decimation rule itself plus the three classic keystream facts:
the period (2^A - 1) * 2^(S-1) in closed form, the linear-complexity
interval (A * 2^(S-2), A * 2^(S-1)], and the characteristic polynomial P_D^p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, islice
from math import gcd
from typing import Iterator

from .errors import InconsistentDataError
from .gf2 import (BinaryPolynomial, _byte_tables, _inverse, _jump_table, _mulmod, _powers,
                  _xpow, berlekamp_massey, coset_min_poly)
from .lfsr import BitSequence, LfsrSpec, LfsrState, _block_tables, lfsr_stream


def _check_lengths(a: int, s: int) -> None:
    if s < 1:
        raise ValueError(f"selector length {s} must be >= 1")
    if s >= a:
        raise ValueError(f"selector length {s} must be smaller than data length {a}")
    if gcd(s, a) != 1:
        raise ValueError(f"register lengths {s} and {a} must be coprime")


@dataclass(frozen=True)
class SgSpec:
    """Public parameters: data polynomial pa (degree A), selector polynomial ps (degree S).

    Construction builds the two registers, sra and srs, and does, once, the
    attack's work that depends on nothing but the polynomials: the IC row
    masks R_n = x^(n(2^S - 1)) mod P_A for n < A, the column polynomial P_D,
    the inverse of the column-0 system (R_n, cell (n, 0)) as one table per
    byte of a packed column v (bit n = cell (n, j)), whose entries xor to the
    data state c_{o_j} in ceil(A/8) lookups, a jump table on P_A that reads
    any other row in at most ceil(A/8) - 2 multiplies and a shift, and both
    registers' block tables (256 clocks a step), shared by every spec on the same polynomial.
    """

    pa: BinaryPolynomial
    ps: BinaryPolynomial
    sra: LfsrSpec = field(init=False, repr=False, compare=False)
    srs: LfsrSpec = field(init=False, repr=False, compare=False)
    _rows: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pd: BinaryPolynomial = field(init=False, repr=False, compare=False)
    _col0_tables: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _jumps: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _sra_blocks: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _srs_blocks: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a, s = self.pa.degree, self.ps.degree
        if a is None or s is None or s < 1:
            raise ValueError("both polynomials must have degree >= 1")
        _check_lengths(a, s)
        sra, srs = LfsrSpec(self.pa), LfsrSpec(self.ps)
        m = self.pa.mask
        rows = tuple(_powers(_xpow((1 << s) - 1, m), a, m))  # R_0 .. R_{A-1}
        pd = coset_min_poly((1 << s) - 1, self.pa)
        tables = _byte_tables(_inverse(rows), a)
        for name, value in (("sra", sra), ("srs", srs), ("_rows", rows), ("_pd", pd),
                            ("_col0_tables", tables), ("_jumps", _jump_table(m)),
                            ("_sra_blocks", _block_tables(sra.taps, a)),
                            ("_srs_blocks", _block_tables(srs.taps, s))):
            object.__setattr__(self, name, value)

    @property
    def a_length(self) -> int:
        return self.pa.degree

    @property
    def s_length(self) -> int:
        return self.ps.degree


@dataclass(frozen=True)
class ShrinkingKey:
    """The cryptosystem secret: both registers' initial states."""

    sra_state: LfsrState
    srs_state: LfsrState


def column_poly(spec: SgSpec) -> BinaryPolynomial:
    """Characteristic polynomial P_D shared by all IC columns, built with the spec."""
    return spec._pd


def _keystream(spec: SgSpec, key: ShrinkingKey, n: int) -> Iterator[int]:
    """First n keystream bits, lazily: data bits a_i kept wherever the selector bit s_i is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if key.sra_state.length != spec.a_length:
        raise ValueError(f"SRA state needs {spec.a_length} bits")
    if key.srs_state.length != spec.s_length:
        raise ValueError(f"SRS state needs {spec.s_length} bits")
    a_bits, s_bits = lfsr_stream(spec.sra, key.sra_state), lfsr_stream(spec.srs, key.srs_state)
    return islice(compress(a_bits, s_bits), n)


def shrink(spec: SgSpec, key: ShrinkingKey, n: int) -> BitSequence:
    """First n keystream bits."""
    return BitSequence(_keystream(spec, key, n))


def shrunken_period(a: int, s: int) -> int:
    """Keystream period (2^A - 1) * 2^(S-1)."""
    _check_lengths(a, s)
    return ((1 << a) - 1) << (s - 1)


def lc_bounds(a: int, s: int) -> tuple[int, int]:
    """Keystream linear-complexity bounds (exclusive lower, inclusive upper).

    For S = 1 the fractional lower bound A/2 is floored; callers should flag
    that degenerate case when reporting.
    """
    _check_lengths(a, s)
    if s == 1:
        return a // 2, a
    return a << (s - 2), a << (s - 1)


def verify_shrunken_charpoly(spec: SgSpec, key: ShrinkingKey) -> tuple[BinaryPolynomial, int]:
    """Measure the keystream's characteristic polynomial and factor it as P_D^p.

    Runs Berlekamp-Massey over the first A * 2^S keystream bits: LC <= A * 2^(S-1), so
    that is at least 2 * LC bits, which pin the unique shortest LFSR.  Checks that its
    polynomial is the column polynomial P_D to a power p, 2^(S-2) < p <= 2^(S-1), and
    returns (P_D, p); any other shape signals a convention bug somewhere upstream.
    """
    a, s = spec.a_length, spec.s_length
    lc, conn = berlekamp_massey(shrink(spec, key, a << s))
    pd = column_poly(spec)
    p, rem = divmod(lc, pd.degree)
    power = 1  # deg P_D^k <= lc, so reducing mod x^(lc+1) drops no term
    for _ in range(p):
        power = _mulmod(power, pd.mask, 1 << (lc + 1))
    if rem or power != conn.mask:
        raise InconsistentDataError(f"measured polynomial {conn} is not a power of {pd}")
    if not 4 * p > (1 << s) >= 2 * p:
        raise InconsistentDataError(f"power {p} lies outside (2^(S-2), 2^(S-1)]")
    return pd, p
