"""The shrinking generator and its keystream algebra.

Covers the decimation rule itself plus the three classic keystream facts:
the period (2^A - 1) * 2^(S-1) in closed form, the linear-complexity
interval (A * 2^(S-2), A * 2^(S-1)], and the characteristic polynomial P_D^p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, islice
from math import gcd
from typing import Iterator

from .errors import InconsistentDataError
from .gf2 import (BinaryPolynomial, _byte_tables, _inverse, _jump_table, _mulmod, _powers,
                  _xpow, berlekamp_massey, coset_min_poly)
from .lfsr import (_BITS, _BLOCK_BITS, BitSequence, LfsrSpec, LfsrState, _block_tables, _state_mask,
                   _step, _window)

# Keystream bits per chunk of IC rows, or clocks per decimated chunk (see _keystream).
_CHUNK = 1 << 16
# IC rows that must fit both a call and a chunk before _keystream fills IC columns.
_MIN_ROWS = 8


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


def _column_offsets(spec: SgSpec, w: int, columns: int) -> list[int]:
    """o_0 .. o_{columns-1}, the positions of the first 1s in the selector sequence from
    state w (bit i = s_i): at most S apart, all within its first 2^S - 1 bits."""
    s = spec.s_length
    bits = f"{_window(w, spec._srs_blocks, s, min(columns * s, (1 << s) - 1)):b}"[::-1].encode()
    return list(islice(compress(count(), bits.translate(_BITS)), columns))


def _digits(reg: int, tables: tuple[tuple[int, ...], ...], length: int, text: bytes,
            clocks: int) -> tuple[int, bytes]:
    """reg clocked whole blocks until text, extended by their output as ASCII '0'/'1' digits
    in clock order, holds at least clocks digits; the new state and the extended text."""
    steps = []
    for _ in range(-(-(clocks - len(text)) // _BLOCK_BITS)):
        reg, out = _step(reg, tables, length)
        steps.append(out)
    # A 1 above the last clock's bit keeps the leading 0 digits; the reversal drops it.
    top = 1 << len(steps) * _BLOCK_BITS
    return reg, text + f"{top | int.from_bytes(b''.join(steps), 'little'):b}".encode()[:0:-1]


def _ic_rows(spec: SgSpec, key: ShrinkingKey, n: int) -> Iterator[bytearray]:
    """First n keystream bits, one chunk of R = _CHUNK / 2^(S-1) whole IC rows at a time.

    Takes the offsets o_0 .. o_{2^(S-1)-1} once, from one selector period.  Each chunk, or
    the fewer rows left for the last, steps the data register through its R (2^S - 1)
    clocks, formats them once as ASCII digits in clock order, keeping the digits past the
    chunk for the next, and fills column j with one strided copy of every (2^S - 1)-th
    digit from o_j; one translate maps the chunk to 0/1 bytes, and the chunk that reaches
    n bits is cut there, past at most one row of unused clocks.
    """
    s, a = spec.s_length, spec.a_length
    period, width = (1 << s) - 1, 1 << (s - 1)
    offsets = _column_offsets(spec, _state_mask(key.srs_state), width)
    reg, text = _state_mask(key.sra_state), b""
    while n > 0:
        rows = min(_CHUNK >> (s - 1), -(-n // width))
        clocks = rows * period
        reg, text = _digits(reg, spec._sra_blocks, a, text, clocks)
        chunk = bytearray(rows * width)
        for j, o in enumerate(offsets):
            chunk[j::width] = text[o:clocks:period]
        text = text[clocks:]
        chunk = chunk.translate(_BITS)
        del chunk[n:]
        n -= len(chunk)
        yield chunk
        del chunk  # no chunk outlives its consumer's turn


def _decimated(spec: SgSpec, key: ShrinkingKey, n: int) -> Iterator[bytearray]:
    """First n keystream bits, both registers clocked about min(2n, _CHUNK) clocks a chunk:
    about twice the bits still wanted, as half the clocks are kept.  One compress keeps the
    data digits where the selector's are 1, and the chunk that reaches n bits is cut there."""
    sel, data = _state_mask(key.srs_state), _state_mask(key.sra_state)
    while n > 0:
        clocks = min(2 * n, _CHUNK)
        sel, kept = _digits(sel, spec._srs_blocks, spec.s_length, b"", clocks)
        data, text = _digits(data, spec._sra_blocks, spec.a_length, b"", clocks)
        chunk = bytearray(compress(text, kept.translate(_BITS))).translate(_BITS)
        del chunk[n:], kept, text
        n -= len(chunk)
        yield chunk
        del chunk


def _keystream(spec: SgSpec, key: ShrinkingKey, n: int) -> Iterator[bytearray]:
    """First n keystream bits as 0/1 bytes, lazily, one chunk at a time.

    Keystream bits are the data bits a_u where selector bit s_u is 1.  The selector has
    period 2^S - 1 and 2^(S-1) ones in each period, so keystream bit r 2^(S-1) + j, IC
    cell (r, j), is data bit r (2^S - 1) + o_j, o_j the position of the (j+1)-th selector
    1.  When _MIN_ROWS rows of 2^(S-1) bits fit both n and _CHUNK, that is S <= 14 and n
    at least _MIN_ROWS rows, _ic_rows fills each IC column of a chunk of rows with one
    strided copy and clocks only the data register past the first selector period.  A
    column costs one Python step per chunk however many rows it holds, so for fewer rows,
    short calls or wide rows, _decimated clocks both registers and keeps the data bits
    where the selector's are 1 with one compress, at about three times the per-bit cost
    of IC columns over many rows.  Either way a call steps O(n) clocks and holds O(_CHUNK)
    bytes at once, whatever S is.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if key.sra_state.length != spec.a_length:
        raise ValueError(f"SRA state needs {spec.a_length} bits")
    if key.srs_state.length != spec.s_length:
        raise ValueError(f"SRS state needs {spec.s_length} bits")
    if _MIN_ROWS << (spec.s_length - 1) <= min(n, _CHUNK):
        return _ic_rows(spec, key, n)
    return _decimated(spec, key, n)


def shrink(spec: SgSpec, key: ShrinkingKey, n: int) -> BitSequence:
    """First n keystream bits, joined from their chunks."""
    return BitSequence(b"".join(_keystream(spec, key, n)))


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
