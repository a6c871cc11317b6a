"""The shrinking generator and verifiers for its keystream algebra.

Covers the decimation rule itself plus the three classic keystream facts:
the period (2^A - 1) * 2^(S-1), the linear-complexity interval
(A * 2^(S-2), A * 2^(S-1)], and the characteristic polynomial P_D(x)^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InconsistentDataError
from .gf2 import BinaryPolynomial, berlekamp_massey, coset_min_poly
from .lfsr import BitSequence, LfsrSpec, LfsrState, lfsr_stream


def _check_lengths(a: int, s: int) -> None:
    if s < 1:
        raise ValueError(f"selector length {s} must be >= 1")
    if s >= a:
        raise ValueError(f"selector length {s} must be smaller than data length {a}")
    if gcd(s, a) != 1:
        raise ValueError(f"register lengths {s} and {a} must be coprime")


@dataclass(frozen=True)
class SgSpec:
    """Public parameters: data polynomial pa (degree A), selector polynomial ps (degree S)."""

    pa: BinaryPolynomial
    ps: BinaryPolynomial

    def __post_init__(self) -> None:
        a, s = self.pa.degree, self.ps.degree
        if a is None or s is None or s < 1:
            raise ValueError("both polynomials must have degree >= 1")
        _check_lengths(a, s)
        LfsrSpec(self.pa)
        LfsrSpec(self.ps)

    @property
    def a_length(self) -> int:
        return self.pa.degree

    @property
    def s_length(self) -> int:
        return self.ps.degree

    @property
    def sra(self) -> LfsrSpec:
        return LfsrSpec(self.pa)

    @property
    def srs(self) -> LfsrSpec:
        return LfsrSpec(self.ps)


@dataclass(frozen=True)
class ShrinkingKey:
    """The cryptosystem secret: both registers' initial states."""

    sra_state: LfsrState
    srs_state: LfsrState


def column_poly(spec: SgSpec) -> BinaryPolynomial:
    """Characteristic polynomial P_D shared by all IC columns."""
    return coset_min_poly((1 << spec.s_length) - 1, spec.pa)


def _check_key(spec: SgSpec, key: ShrinkingKey) -> None:
    if key.sra_state.length != spec.a_length:
        raise ValueError(f"SRA state needs {spec.a_length} bits")
    if key.srs_state.length != spec.s_length:
        raise ValueError(f"SRS state needs {spec.s_length} bits")


def shrink(spec: SgSpec, key: ShrinkingKey, n: int) -> BitSequence:
    """First n keystream bits: data bits a_i kept wherever the selector bit s_i is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_key(spec, key)
    a_bits = lfsr_stream(spec.sra, key.sra_state)
    s_bits = lfsr_stream(spec.srs, key.srs_state)
    out = []
    while len(out) < n:
        a = next(a_bits)
        if next(s_bits):
            out.append(a)
    return BitSequence(out)


def shrunken_period(a: int, s: int) -> int:
    """Keystream period (2^A - 1) * 2^(S-1)."""
    _check_lengths(a, s)
    return ((1 << a) - 1) << (s - 1)


def measure_shrunken_period(spec: SgSpec, key: ShrinkingKey) -> int:
    """Count emitted bits until the joint register state pair first recurs.

    Measuring on the state pair rather than on the output string avoids false
    early periods of an output prefix.
    """
    _check_key(spec, key)
    a_taps, s_taps = spec.sra.taps, spec.srs.taps
    a_top, s_top = spec.a_length - 1, spec.s_length - 1
    a_reg = sum(b << i for i, b in enumerate(key.sra_state.bits))
    s_reg = sum(b << i for i, b in enumerate(key.srs_state.bits))
    start = (a_reg, s_reg)
    emitted = 0
    while True:
        if s_reg & 1:
            emitted += 1
        a_reg = (a_reg >> 1) | (((a_reg & a_taps).bit_count() & 1) << a_top)
        s_reg = (s_reg >> 1) | (((s_reg & s_taps).bit_count() & 1) << s_top)
        if (a_reg, s_reg) == start:
            return emitted


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

    Runs Berlekamp-Massey over one full keystream period and checks that the
    connection polynomial is the column polynomial P_D raised to an integer
    power p with 2^(S-2) < p <= 2^(S-1).  Returns (P_D, p); any other shape
    signals a convention bug somewhere upstream.
    """
    _check_key(spec, key)
    a, s = spec.a_length, spec.s_length
    lc, conn = berlekamp_massey(shrink(spec, key, shrunken_period(a, s)))
    pd = column_poly(spec)
    p, rem = divmod(lc, pd.degree)
    if rem or pd ** p != conn:
        raise InconsistentDataError(f"measured polynomial {conn} is not a power of {pd}")
    if not 4 * p > (1 << s) >= 2 * p:
        raise InconsistentDataError(f"power {p} lies outside (2^(S-2), 2^(S-1)]")
    return pd, p
