"""LFSR generation and PN-sequence properties against direct-recurrence oracles."""

import random
from math import gcd

import pytest

import oracles
from conftest import primitive
from shrinkgen import (
    BinaryPolynomial,
    BitSequence,
    LfsrSpec,
    LfsrState,
    berlekamp_massey,
    coset_min_poly,
    lfsr_generate,
    mod_inverse,
)


class TestBitSequence:
    def test_parse_and_str(self):
        seq = BitSequence.parse(" 10 0\n11 ")
        assert str(seq) == "10011"
        assert seq.bits == (1, 0, 0, 1, 1)

    def test_parse_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitSequence.parse("10021")

    def test_period_validation(self):
        BitSequence((1, 0, 1, 0), period=2)
        with pytest.raises(ValueError):
            BitSequence((1, 0, 1, 1), period=2)
        with pytest.raises(ValueError):
            BitSequence((1, 0, 1), period=2)
        with pytest.raises(ValueError):
            BitSequence((), period=1)

    def test_cyclic_access(self):
        seq = BitSequence((1, 0, 0), period=3)
        assert [seq.at(i) for i in range(6)] == [1, 0, 0, 1, 0, 0]
        with pytest.raises(ValueError):
            BitSequence((1, 0)).at(0)


class TestLfsrState:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LfsrState((0, 0, 0))

    def test_parse(self):
        assert LfsrState.parse("10011").bits == (1, 0, 0, 1, 1)
        with pytest.raises(ValueError):
            LfsrState.parse("10a1")


class TestLfsrSpec:
    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            LfsrSpec(BinaryPolynomial.parse("x^2+1"))

    def test_properties(self):
        spec = LfsrSpec(BinaryPolynomial.parse("x^4+x^3+1"))
        assert spec.length == 4
        assert spec.period == 15
        assert spec.taps == 0b1001


class TestLfsrGenerate:
    def test_first_bits_are_the_state(self):
        spec = LfsrSpec(BinaryPolynomial.parse("x^5+x^4+x^3+x^2+1"))
        out = lfsr_generate(spec, LfsrState.parse("10011"), 5)
        assert out.bits == (1, 0, 0, 1, 1)

    def test_selector_period_and_balance(self):
        spec = LfsrSpec(BinaryPolynomial.parse("x^4+x^3+1"))
        out = lfsr_generate(spec, LfsrState.parse("1101"), 15)
        assert out.period == 15
        assert sum(out) == 8

    def test_length_mismatch(self):
        spec = LfsrSpec(BinaryPolynomial.parse("x^4+x^3+1"))
        with pytest.raises(ValueError):
            lfsr_generate(spec, LfsrState.parse("110"), 4)

    def test_negative_n(self):
        spec = LfsrSpec(primitive(3))
        with pytest.raises(ValueError):
            lfsr_generate(spec, LfsrState.parse("101"), -1)

    def test_matches_direct_recurrence(self):
        rng = random.Random(23)
        for degree in (2, 3, 5, 7, 8):
            poly = primitive(degree)
            spec = LfsrSpec(poly)
            charpoly = oracles.mask_to_list(poly.mask)
            for _ in range(10):
                bits = [rng.randint(0, 1) for _ in range(degree)]
                if not any(bits):
                    bits[-1] = 1
                got = lfsr_generate(spec, LfsrState(tuple(bits)), 4 * degree)
                assert list(got) == oracles.lfsr_run(charpoly, bits, 4 * degree)

    def test_period_declared_only_on_whole_periods(self):
        spec = LfsrSpec(primitive(3))
        state = LfsrState.parse("100")
        assert lfsr_generate(spec, state, 14).period == 7
        assert lfsr_generate(spec, state, 10).period is None
        assert lfsr_generate(spec, state, 0).period is None


class TestPnProperties:
    def test_period_exhaustive_small_lengths(self):
        for degree in (1, 2, 3, 4, 5, 6):
            poly = primitive(degree)
            charpoly = oracles.mask_to_list(poly.mask)
            for mask in range(1, 1 << degree):
                state = [(mask >> i) & 1 for i in range(degree)]
                assert oracles.lfsr_min_period(charpoly, state) == (1 << degree) - 1

    def test_period_sampled_larger_lengths(self):
        rng = random.Random(31)
        for degree in (7, 8, 10, 12):
            charpoly = oracles.mask_to_list(primitive(degree).mask)
            for _ in range(3):
                state = [rng.randint(0, 1) for _ in range(degree)]
                if not any(state):
                    state[0] = 1
                assert oracles.lfsr_min_period(charpoly, state) == (1 << degree) - 1

    def test_balance(self):
        for degree in (3, 5, 8):
            spec = LfsrSpec(primitive(degree))
            state = LfsrState((1,) + (0,) * (degree - 1))
            period = lfsr_generate(spec, state, spec.period)
            assert sum(period) == 1 << (degree - 1)

    def test_each_nonzero_window_occurs_once(self):
        for degree in (3, 4, 5, 6):
            spec = LfsrSpec(primitive(degree))
            pn = lfsr_generate(spec, LfsrState((1,) + (0,) * (degree - 1)), spec.period)
            seen = {}
            for p in range(spec.period):
                w = tuple(pn.at(p + i) for i in range(degree))
                assert w not in seen
                seen[w] = p
            assert len(seen) == spec.period  # all nonzero windows, each exactly once


class TestDecimate:
    def test_known_columns(self, kat_spec, kat_key):
        a_seq = lfsr_generate(kat_spec.sra, kat_key.sra_state, 31)
        assert tuple(a_seq.at(15 * k) for k in range(5)) == (1, 1, 0, 0, 0)
        assert tuple(a_seq.at(15 * k + 1) for k in range(5)) == (0, 0, 1, 1, 0)

    def test_shift_invariance(self):
        rng = random.Random(43)
        for degree in (4, 5, 7):
            spec = LfsrSpec(primitive(degree))
            t = spec.period
            pn = lfsr_generate(spec, LfsrState((1,) + (0,) * (degree - 1)), t)
            for _ in range(5):
                ratio = rng.randrange(1, t)
                if gcd(ratio, t) != 1:
                    continue
                offset = rng.randrange(1, t)
                rot = mod_inverse(ratio, t) * offset % t
                for k in range(t):
                    assert pn.at(offset + k * ratio) == pn.at((rot + k) * ratio)

    def test_decimation_by_selector_period_gives_column_poly(self):
        for a, s in [(5, 4), (5, 2), (7, 3)]:
            spec = LfsrSpec(primitive(a))
            pn = lfsr_generate(spec, LfsrState((1,) + (0,) * (a - 1)), spec.period)
            pd = coset_min_poly((1 << s) - 1, primitive(a))
            for offset in range(spec.period):
                column = [pn.at(offset + k * ((1 << s) - 1)) for k in range(spec.period)]
                assert berlekamp_massey(column) == (a, pd)
