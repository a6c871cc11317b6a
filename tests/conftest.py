"""Shared fixtures: known-answer generator data and a vetted polynomial table."""

import random

import pytest

import oracles
from shrinkgen import (
    AttackInput,
    BinaryPolynomial,
    KnownBits,
    LfsrState,
    SgSpec,
    ShrinkingKey,
    shrink,
)

# One vetted primitive polynomial per degree (standard tables); test_gf2
# re-derives primitivity for each entry so the table and the tester
# cross-validate each other.
PRIMITIVE_POLYS = {
    1: "x+1",
    2: "x^2+x+1",
    3: "x^3+x+1",
    4: "x^4+x+1",
    5: "x^5+x^2+1",
    6: "x^6+x+1",
    7: "x^7+x^3+1",
    8: "x^8+x^4+x^3+x^2+1",
    10: "x^10+x^3+1",
    12: "x^12+x^6+x^4+x+1",
    21: "x^21+x^2+1",
    31: "x^31+x^3+1",
}

# Known-answer data for the classic worked example: A = 5, S = 4, key
# (10011, 1101).  All values were pinned from hand simulation of the
# recurrences and are re-derived by the oracle-backed tests.
KAT_PA = "x^5+x^4+x^3+x^2+1"
KAT_PS = "x^4+x^3+1"
KAT_SRA = "10011"
KAT_SRS = "1101"
KAT_SUB_MATRIX = ("1011", "1001", "0101", "0111", "0001")
KAT_PD = "x^5+x^3+x^2+x+1"
KAT_ROW_POSITIONS = (0, 29, 27, 25, 23)
KAT_OFFSETS = (0, 1, 3)
KAT_D0_HEAD = (1, 1, 0, 0, 0)
KAT_D0_TAIL = {23: 1, 25: 1, 26: 0, 27: 0, 28: 1, 29: 0, 30: 0}
KAT_LC = 40
KAT_P = 8

# Row-major 7x4 interleaved sequence whose four columns are shifts of the
# PN-sequence of x^3+x+1.
INTERLEAVED_SEQ = "1111101000110101100101101100"
INTERLEAVED_POLY = "x^3+x+1"
INTERLEAVED_SIZE = 4


def primitive(degree: int) -> BinaryPolynomial:
    return BinaryPolynomial.parse(PRIMITIVE_POLYS[degree])


def make_spec(a: int, s: int) -> SgSpec:
    return SgSpec(primitive(a), primitive(s))


def random_state(rng: random.Random, length: int, first_bit: int | None = None) -> LfsrState:
    while True:
        bits = [rng.randint(0, 1) for _ in range(length)]
        if first_bit is not None:
            bits[0] = first_bit
        if any(bits):
            return LfsrState(tuple(bits))


def random_key(rng: random.Random, spec: SgSpec, s0: int | None = None) -> ShrinkingKey:
    return ShrinkingKey(
        random_state(rng, spec.a_length),
        random_state(rng, spec.s_length, first_bit=s0),
    )


def submatrix_known(spec: SgSpec, key: ShrinkingKey) -> KnownBits:
    """The A*S known bits covering the top-left A x S cells of the IC."""
    a, s = spec.a_length, spec.s_length
    cols = 1 << (s - 1)
    z = shrink(spec, key, (a - 1) * cols + s)
    return KnownBits({n * cols + j: z[n * cols + j] for n in range(a) for j in range(s)})


def oracle_keys(attack_input: AttackInput) -> list[ShrinkingKey]:
    """Every canonical key consistent with the known bits, from `oracles.exhaustive_keys`."""
    pa, ps = (oracles.mask_to_list(p.mask) for p in (attack_input.spec.pa, attack_input.spec.ps))
    keys = oracles.exhaustive_keys(pa, ps, dict(attack_input.known.items()))
    return [ShrinkingKey(LfsrState(sra), LfsrState(srs)) for sra, srs in keys]


@pytest.fixture(scope="session")
def kat_spec() -> SgSpec:
    return SgSpec(BinaryPolynomial.parse(KAT_PA), BinaryPolynomial.parse(KAT_PS))


@pytest.fixture(scope="session")
def kat_key() -> ShrinkingKey:
    return ShrinkingKey(LfsrState.parse(KAT_SRA), LfsrState.parse(KAT_SRS))


@pytest.fixture(scope="session")
def kat_known() -> KnownBits:
    entries = {}
    for n, row in enumerate(KAT_SUB_MATRIX):
        for j, ch in enumerate(row):
            entries[8 * n + j] = int(ch)
    return KnownBits(entries)


@pytest.fixture(scope="session")
def kat_keystream(kat_spec, kat_key):
    return shrink(kat_spec, kat_key, 248)
