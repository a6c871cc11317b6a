"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
from contextlib import contextmanager
from dataclasses import dataclass
from math import gcd
from time import perf_counter

import pytest

import oracles
from conftest import (
    KAT_D0_HEAD,
    KAT_D0_TAIL,
    KAT_LC,
    KAT_OFFSETS,
    KAT_P,
    KAT_PD,
    KAT_SRA,
    KAT_SRS,
    INTERLEAVED_POLY,
    INTERLEAVED_SEQ,
    INTERLEAVED_SIZE,
    make_spec,
    oracle_keys,
    random_key,
    submatrix_known,
)
from shrinkgen import (
    AttackInput,
    BinaryPolynomial,
    BitSequence,
    KnownBits,
    SgSpec,
    ShrinkingKey,
    attack,
    berlekamp_massey,
    brute_force,
    build_ic,
    column_poly,
    lc_bounds,
    shrink,
    shrunken_period,
    verify_shrunken_charpoly,
)

SOUNDNESS_PAIRS = ((5, 2), (5, 4), (7, 3), (7, 5), (8, 3))
SPECTRUM_PAIRS = ((3, 2), (5, 2), (5, 4), (7, 3), (7, 5))
ORACLE_PAIRS = ((5, 3), (5, 4), (7, 2))


@contextmanager
def criterion(number, description):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")


@dataclass
class Trial:
    spec: SgSpec
    key: ShrinkingKey
    known: KnownBits
    result: object
    canonical: bool


@pytest.fixture(scope="module")
def soundness_sweep():
    """Attack trials shared by criteria 5, 7 and 8."""
    rng = random.Random(0xC0FFEE)
    trials = []
    start = perf_counter()
    for a, s in SOUNDNESS_PAIRS:
        spec = make_spec(a, s)
        for _ in range(100):
            key = random_key(rng, spec, s0=1)
            known = submatrix_known(spec, key)
            trials.append(Trial(spec, key, known, attack(AttackInput(spec, known)), True))
        for _ in range(25):
            key = random_key(rng, spec, s0=0)
            known = submatrix_known(spec, key)
            trials.append(Trial(spec, key, known, attack(AttackInput(spec, known)), False))
    return trials, perf_counter() - start


def test_criterion_1_worked_example_end_to_end(kat_spec, kat_known):
    with criterion(1, "worked-example attack recovers both states exactly, < 1 s"):
        start = perf_counter()
        result = attack(AttackInput(kat_spec, kat_known))
        elapsed = perf_counter() - start
        assert str(result.sra_state) == KAT_SRA
        assert str(result.srs_state) == KAT_SRS
        assert tuple(result.offsets) == KAT_OFFSETS
        assert result.column_poly == BinaryPolynomial.parse(KAT_PD)
        assert elapsed < 1.0, f"attack took {elapsed:.3f} s"


def test_criterion_2_first_column_values(kat_keystream):
    with criterion(2, "IC first column matches the known-answer rows exactly"):
        ic = build_ic(KnownBits.from_prefix(kat_keystream), 5, 4)
        head = tuple(ic.cell(n, 0) for n in range(5))
        assert head == KAT_D0_HEAD
        for row, bit in KAT_D0_TAIL.items():
            assert ic.cell(row, 0) == bit


def test_criterion_3_period_formula():
    with criterion(3, "exact keystream period equals (2^A-1)*2^(S-1) for all A <= 8, < 10 s"):
        rng = random.Random(0x5EED)
        start = perf_counter()
        pairs = [(a, s) for a in range(2, 9) for s in range(1, a) if gcd(s, a) == 1]
        assert len(pairs) == 21
        for a, s in pairs:
            spec = make_spec(a, s)
            key = random_key(rng, spec)
            expect = shrunken_period(a, s)
            window = list(shrink(spec, key, 2 * expect))
            assert oracles.exact_period(window, expect) == expect
        elapsed = perf_counter() - start
        assert elapsed < 10.0, f"period sweep took {elapsed:.1f} s"


def test_criterion_4_linear_complexity(kat_spec, kat_key, kat_keystream):
    with criterion(4, "LC bounds and P_D^p factorization hold, worked example gives LC 40, < 30 s"):
        start = perf_counter()
        lc, conn = berlekamp_massey(kat_keystream)
        assert lc == KAT_LC
        pd, power = oracles.mask_to_list(BinaryPolynomial.parse(KAT_PD).mask), [1]
        for _ in range(KAT_P):
            power = oracles.poly_mul(power, pd)
        assert conn.mask == oracles.list_to_mask(power)
        rng = random.Random(0xFEED)
        for a, s in SPECTRUM_PAIRS:
            spec = make_spec(a, s)
            low, high = lc_bounds(a, s)
            pd_expect = column_poly(spec)
            for _ in range(20):
                key = random_key(rng, spec)
                pd, p = verify_shrunken_charpoly(spec, key)  # raises unless conn = P_D^p
                assert pd == pd_expect
                assert 4 * p > (1 << s) >= 2 * p
                assert low < pd.degree * p <= high
        elapsed = perf_counter() - start
        assert elapsed < 30.0, f"LC sweep took {elapsed:.1f} s"


def test_criterion_5_attack_soundness(soundness_sweep):
    with criterion(5, "attack recovers the true key (canonical) or a regenerating key, < 60 s"):
        trials, elapsed = soundness_sweep
        assert len(trials) == 125 * len(SOUNDNESS_PAIRS)
        for t in trials:
            if t.canonical:
                assert t.result.sra_state == t.key.sra_state
                assert t.result.srs_state == t.key.srs_state
            else:
                period = shrunken_period(t.spec.a_length, t.spec.s_length)
                recovered = ShrinkingKey(t.result.sra_state, t.result.srs_state)
                assert shrink(t.spec, recovered, period) == shrink(t.spec, t.key, period)
        assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f} s"


def test_criterion_6_oracle_equivalence():
    with criterion(6, "brute force finds exactly the attack's key, < 60 s"):
        rng = random.Random(0xACE)
        start = perf_counter()
        for a, s in ORACLE_PAIRS:
            spec = make_spec(a, s)
            for _ in range(20):
                key = random_key(rng, spec, s0=1)
                known = submatrix_known(spec, key)
                result = attack(AttackInput(spec, known))
                keys = oracle_keys(AttackInput(spec, known))
                assert keys == [ShrinkingKey(result.sra_state, result.srs_state)]
                assert brute_force(AttackInput(spec, known)) == keys
        elapsed = perf_counter() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_7_work_bound(soundness_sweep):
    with criterion(7, "at most 2S-1 window comparisons, only the A*S designated bits consumed"):
        trials, _ = soundness_sweep
        for t in trials:
            a, s = t.spec.a_length, t.spec.s_length
            assert t.result.work.comparisons <= 2 * s - 1
            assert len(t.known) == a * s  # the designated cells are the whole input
        # feeding extra bits leaves the result unchanged
        for t in trials[:: len(trials) // 10]:
            a, s = t.spec.a_length, t.spec.s_length
            cols = 1 << (s - 1)
            wider = KnownBits.from_prefix(shrink(t.spec, t.key, (a - 1) * cols + s + 16))
            assert attack(AttackInput(t.spec, wider)) == t.result


def test_criterion_8_interleaved(soundness_sweep):
    with criterion(8, "known-answer interleaved sequence and every sweep keystream pass the check"):
        seq = BitSequence.parse(INTERLEAVED_SEQ)
        f = oracles.mask_to_list(BinaryPolynomial.parse(INTERLEAVED_POLY).mask)
        assert oracles.is_interleaved(seq, INTERLEAVED_SIZE, f)
        trials, _ = soundness_sweep
        for t in trials:
            a, s = t.spec.a_length, t.spec.s_length
            z = shrink(t.spec, t.key, shrunken_period(a, s))
            assert oracles.is_interleaved(z, 1 << (s - 1), oracles.mask_to_list(column_poly(t.spec).mask))
