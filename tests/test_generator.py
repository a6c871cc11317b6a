"""Shrinking-generator behavior: decimation rule, period, linear complexity."""

import dataclasses
import inspect
import random
import re
from itertools import compress
from math import gcd

import pytest

import oracles
from conftest import KAT_P, KAT_PD, make_spec, primitive, random_key
from shrinkgen import (
    BinaryPolynomial,
    InconsistentDataError,
    LfsrSpec,
    LfsrState,
    SgSpec,
    ShrinkingKey,
    berlekamp_massey,
    column_poly,
    lc_bounds,
    lfsr_generate,
    shrink,
    shrunken_period,
    verify_shrunken_charpoly,
)
from shrinkgen import generator
from shrinkgen.generator import _CHUNK, _MIN_ROWS
from shrinkgen.lfsr import _BLOCK_BITS


class TestSgSpec:
    def test_equal_lengths_rejected(self):
        p = BinaryPolynomial.parse("x^4+x^3+1")
        with pytest.raises(ValueError):
            SgSpec(p, p)

    def test_non_coprime_lengths_rejected(self):
        with pytest.raises(ValueError):
            SgSpec(primitive(4), primitive(2))

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            SgSpec(BinaryPolynomial.parse("x^5+x^4+1"), primitive(2))

    def test_selector_longer_than_data_rejected(self):
        with pytest.raises(ValueError):
            SgSpec(primitive(3), primitive(5))

    def test_degenerate_selector_admitted(self):
        spec = SgSpec(primitive(3), primitive(1))
        assert spec.s_length == 1

    def test_value_semantics_ignore_the_tables(self):
        # the registers and tables built with a spec are fields outside equality, hash and repr
        pa, ps = primitive(7), primitive(3)
        spec = SgSpec(pa, ps)
        assert list(inspect.signature(SgSpec).parameters) == ["pa", "ps"]
        assert spec == SgSpec(pa, ps) and hash(spec) == hash(SgSpec(pa, ps))
        assert spec != SgSpec(pa, primitive(2))
        assert repr(spec) == f"SgSpec(pa={pa!r}, ps={ps!r})"
        other = dataclasses.replace(spec, ps=primitive(2))
        assert other == SgSpec(pa, primitive(2))
        assert other._pd == column_poly(SgSpec(pa, primitive(2))) != spec._pd

    def test_register_specs_built_once(self):
        spec = make_spec(7, 3)
        assert spec.sra is spec.sra and spec.sra == LfsrSpec(primitive(7))
        assert spec.srs is spec.srs and spec.srs == LfsrSpec(primitive(3))
        for name in ("sra", "srs"):
            with pytest.raises(AttributeError):
                setattr(spec, name, LfsrSpec(primitive(5)))

    @pytest.mark.parametrize("pa, ps, message", [
        ("x^4+x^3+1", "1", "both polynomials must have degree >= 1"),
        ("x^4+x^3+1", "x^4+x+1", "selector length 4 must be smaller than data length 4"),
        ("x^4+x+1", "x^2+x+1", "register lengths 2 and 4 must be coprime"),
        ("x^5+x^4+1", "x^2+x+1", "x^5+x^4+1 is not primitive"),
        ("x^5+x^2+1", "x^2+1", "x^2+1 is not primitive"),
    ])
    def test_validation_precedes_the_tables(self, monkeypatch, pa, ps, message):
        def unreachable(*args):
            raise AssertionError("tables built for an invalid spec")

        monkeypatch.setattr("shrinkgen.generator._powers", unreachable)
        monkeypatch.setattr("shrinkgen.generator._inverse", unreachable)
        monkeypatch.setattr("shrinkgen.generator._byte_tables", unreachable)
        monkeypatch.setattr("shrinkgen.generator._jump_table", unreachable)
        monkeypatch.setattr("shrinkgen.generator.coset_min_poly", unreachable)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SgSpec(BinaryPolynomial.parse(pa), BinaryPolynomial.parse(ps))


class TestShrink:
    def test_known_first_bits(self, kat_spec, kat_key):
        assert shrink(kat_spec, kat_key, 4).bits == (1, 0, 1, 1)

    def test_known_submatrix(self, kat_spec, kat_key, kat_known):
        z = shrink(kat_spec, kat_key, 36)
        for pos, bit in kat_known.items():
            assert z[pos] == bit

    def test_empty(self, kat_spec, kat_key):
        assert len(shrink(kat_spec, kat_key, 0)) == 0

    def test_output_length_counts_selector_ones(self):
        rng = random.Random(3)
        spec = make_spec(5, 3)
        for _ in range(20):
            key = random_key(rng, spec)
            t = rng.randrange(1, 60)
            s_bits = lfsr_generate(spec.srs, key.srs_state, t)
            emitted = sum(s_bits)
            assert len(shrink(spec, key, emitted)) == emitted

    def test_key_length_mismatch(self, kat_spec):
        key = ShrinkingKey(LfsrState.parse("101"), LfsrState.parse("1101"))
        with pytest.raises(ValueError):
            shrink(kat_spec, key, 4)

    def test_shifted_key_same_keystream(self, kat_spec, kat_key):
        # key with selector starting 0: shifting both registers to the first
        # selector 1 yields the canonical key producing the same keystream
        key0 = ShrinkingKey(LfsrState.parse("10011"), LfsrState.parse("0110"))
        a_seq = lfsr_generate(kat_spec.sra, key0.sra_state, 31)
        s_seq = lfsr_generate(kat_spec.srs, key0.srs_state, 15)
        first_one = list(s_seq).index(1)
        canonical = ShrinkingKey(
            LfsrState(tuple(a_seq[(first_one + i) % 31] for i in range(5))),
            LfsrState(tuple(s_seq[(first_one + i) % 15] for i in range(4))),
        )
        assert shrink(kat_spec, key0, 248) == shrink(kat_spec, canonical, 248)

    @pytest.mark.parametrize("a,s", [(12, 7), (21, 8), (12, 1)])
    def test_matches_direct_recurrences_across_block_seams(self, a, s):
        # the data register runs _BLOCK_BITS clocks per step, and a step's clocks past a chunk
        # of rows carry into the next; this crosses 17 steps.  S = 1 keeps every data bit
        rng = random.Random(131 * a + s)
        spec = make_spec(a, s)
        pa, ps = (oracles.mask_to_list(p.mask) for p in (spec.pa, spec.ps))
        clocks = 17 * _BLOCK_BITS + 3
        for _ in range(3):
            key = random_key(rng, spec)
            data = oracles.lfsr_run(pa, list(key.sra_state.bits), clocks)
            selector = oracles.lfsr_run(ps, list(key.srs_state.bits), clocks)
            expected = list(compress(data, selector))
            assert list(shrink(spec, key, len(expected))) == expected

    @pytest.mark.parametrize("a,s", [(5, 4), (12, 7), (21, 8), (31, 5)])
    def test_cut_at_each_block_pair_seam(self, a, s):
        # registers step 256 clocks at a time, and shrink cuts the last step's bits at n: so n
        # at the kept-bit count of each of the first four steps, and one either side
        rng = random.Random(37 * a + s)
        spec = make_spec(a, s)
        pa, ps = (oracles.mask_to_list(p.mask) for p in (spec.pa, spec.ps))
        for _ in range(2):
            key = random_key(rng, spec)
            sra, srs = list(key.sra_state.bits), list(key.srs_state.bits)
            expected = oracles.shrunken_run(pa, ps, sra, srs, 5 * _BLOCK_BITS)
            selector = oracles.lfsr_run(ps, srs, 4 * _BLOCK_BITS)
            seams = [sum(selector[:k * _BLOCK_BITS]) for k in range(1, 5)]
            assert seams[-1] < len(expected)
            for n in sorted({m + d for m in seams for d in (-1, 0, 1)}):
                assert shrink(spec, key, n).bits == tuple(expected[:n])

    @pytest.mark.parametrize("a,s", [(5, 4), (12, 7), (21, 8), (31, 5), (12, 1), (31, 11)])
    def test_cut_at_each_row_and_chunk_seam(self, a, s):
        # below _MIN_ROWS IC rows of 2^(S-1) bits shrink decimates; from there it fills whole
        # rows, _CHUNK bits a chunk, and cuts the last chunk at n: so n at the ends of rows 1-3
        # and _MIN_ROWS to _MIN_ROWS + 2 and of the first three chunks, and one either side.
        # The selector starts with 0 where S > 1, so column 0 is not data bit 0
        spec = make_spec(a, s)
        cols = 1 << (s - 1)
        assert _CHUNK % (_MIN_ROWS * cols) == 0
        key = random_key(random.Random(43 * a + s), spec, s0=0 if s > 1 else None)
        pa, ps = (oracles.mask_to_list(p.mask) for p in (spec.pa, spec.ps))
        rows = 3 * _CHUNK // cols + 1
        expected = oracles.shrunken_run(pa, ps, list(key.sra_state.bits), list(key.srs_state.bits),
                                        rows * ((1 << s) - 1))
        assert len(expected) == rows * cols
        ends = [1, 2, 3, _MIN_ROWS, _MIN_ROWS + 1, _MIN_ROWS + 2]
        seams = [k * cols for k in ends] + [k * _CHUNK for k in (1, 2, 3)]
        for n in sorted({m + d for m in seams for d in (-1, 0, 1)}):
            assert list(shrink(spec, key, n)) == expected[:n], n

    def test_cut_across_decimated_chunks(self):
        # rows of 2^19 bits are too wide for IC columns, so shrink decimates about
        # min(2n, _CHUNK) clocks a chunk: n where that minimum turns, at the kept-bit count
        # of the first _CHUNK clocks, and across several chunks, and one either side of each
        spec = make_spec(31, 20)
        key = random_key(random.Random(53), spec, s0=0)
        pa, ps = (oracles.mask_to_list(p.mask) for p in (spec.pa, spec.ps))
        sra, srs = list(key.sra_state.bits), list(key.srs_state.bits)
        expected = oracles.shrunken_run(pa, ps, sra, srs, 5 * _CHUNK)
        first = sum(oracles.lfsr_run(ps, srs, _CHUNK))
        for n in sorted({m + d for m in (_CHUNK // 2, first, 2 * _CHUNK) for d in (-1, 0, 1)}):
            assert list(shrink(spec, key, n)) == expected[:n], n

    @pytest.mark.parametrize("a,s", [(31, 29), (31, 30)])
    def test_few_bits_step_few_blocks_at_any_selector_length(self, monkeypatch, a, s):
        # n bits take O(n) clocks, not a selector period of 2^S - 1 clocks
        spec = make_spec(a, s)
        key = random_key(random.Random(7 * a + s), spec, s0=0)
        pa, ps = (oracles.mask_to_list(p.mask) for p in (spec.pa, spec.ps))
        expected = oracles.shrunken_run(pa, ps, list(key.sra_state.bits), list(key.srs_state.bits),
                                        4000)
        steps, step = [], generator._step

        def counted(*args):
            steps.append(args)
            assert len(steps) <= 100, "a short call stepped more than 100 blocks"
            return step(*args)

        monkeypatch.setattr(generator, "_step", counted)
        for n in (1, 2, 1000):
            steps.clear()
            assert list(shrink(spec, key, n)) == expected[:n], n
            assert len(steps) <= 4 * (n // _BLOCK_BITS + 2), n


class TestShrunkenPeriod:
    def test_formula_values(self):
        assert shrunken_period(5, 4) == 248
        assert shrunken_period(3, 2) == 14
        assert shrunken_period(6, 1) == 63

    def test_simulation_oracle(self, kat_spec, kat_key):
        z = shrink(kat_spec, kat_key, 2 * 248)
        assert oracles.exact_period(list(z), 248) == 248

        spec = make_spec(3, 2)
        key = ShrinkingKey(LfsrState.parse("101"), LfsrState.parse("11"))
        z = shrink(spec, key, 2 * 14)
        assert oracles.exact_period(list(z), 14) == 14

    def test_degenerate_selector_equals_data_sequence(self):
        spec = make_spec(4, 1)
        key = ShrinkingKey(LfsrState.parse("1011"), LfsrState.parse("1"))
        assert shrunken_period(4, 1) == 15
        assert shrink(spec, key, 15).bits == lfsr_generate(spec.sra, key.sra_state, 15).bits

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            shrunken_period(4, 4)
        with pytest.raises(ValueError):
            shrunken_period(6, 2)
        with pytest.raises(ValueError):
            shrunken_period(3, 0)


class TestLcBounds:
    def test_known_values(self):
        assert lc_bounds(5, 4) == (20, 40)
        assert lc_bounds(3, 2) == (3, 6)

    def test_degenerate_selector_floors(self):
        assert lc_bounds(5, 1) == (2, 5)
        assert lc_bounds(4, 1) == (2, 4)

    def test_measured_lc_lands_in_interval(self):
        rng = random.Random(17)
        for a, s in [(3, 2), (5, 2), (5, 4), (7, 3), (8, 3)]:
            spec = make_spec(a, s)
            low, high = lc_bounds(a, s)
            for _ in range(5):
                key = random_key(rng, spec)
                lc, _ = berlekamp_massey(shrink(spec, key, shrunken_period(a, s)))
                assert low < lc <= high


class TestVerifyShrunkenCharpoly:
    def test_known_value(self, kat_spec, kat_key):
        pd, p = verify_shrunken_charpoly(kat_spec, kat_key)
        assert pd == BinaryPolynomial.parse(KAT_PD)
        assert p == KAT_P

    def test_small_pair_forces_p(self):
        rng = random.Random(19)
        spec = make_spec(3, 2)
        for _ in range(10):
            _, p = verify_shrunken_charpoly(spec, random_key(rng, spec))
            assert p == 2  # the only integer in (1, 2]

    def test_degenerate_selector(self):
        spec = make_spec(4, 1)
        key = ShrinkingKey(LfsrState.parse("0101"), LfsrState.parse("1"))
        assert verify_shrunken_charpoly(spec, key) == (spec.pa, 1)

    def test_rejects_other_shapes(self, kat_spec, kat_key, monkeypatch):
        pd = oracles.mask_to_list(BinaryPolynomial.parse(KAT_PD).mask)
        power = [1]
        for _ in range(KAT_P):
            power = oracles.poly_mul(power, pd)
        wrong = oracles.list_to_mask(power) ^ 0b10  # P_D^8 with the x coefficient flipped
        for measured, message in [
            ((40, BinaryPolynomial(wrong)), "is not a power of"),
            ((39, BinaryPolynomial(wrong >> 1)), "is not a power of"),
            ((5, BinaryPolynomial.parse(KAT_PD)), "power 1 lies outside (2^(S-2), 2^(S-1)]"),
        ]:
            monkeypatch.setattr("shrinkgen.generator.berlekamp_massey", lambda bits: measured)
            with pytest.raises(InconsistentDataError, match=re.escape(message)):
                verify_shrunken_charpoly(kat_spec, kat_key)


def assert_prefix_matches_full_period(spec, key):
    """The prefix check gives what the whole period gives, and the period is interleaved under P_D.

    analyze prints interleaved=true once verify_shrunken_charpoly returns.
    """
    a, s = spec.a_length, spec.s_length
    z = shrink(spec, key, shrunken_period(a, s))
    lc, conn = berlekamp_massey(z)
    pd = column_poly(spec)
    p, rem = divmod(lc, pd.degree)
    power = [1]
    for _ in range(p):
        power = oracles.poly_mul(power, oracles.mask_to_list(pd.mask))
    assert rem == 0 and oracles.list_to_mask(power) == conn.mask
    assert verify_shrunken_charpoly(spec, key) == (pd, p)
    assert oracles.is_interleaved(z, 1 << (s - 1), oracles.mask_to_list(pd.mask))


class TestPrefixMatchesFullPeriod:
    """The A * 2^S-bit prefix gives what one whole period gives, for A >= 3."""

    @pytest.mark.parametrize("a, s", [(a, s) for a in range(3, 11) for s in range(1, a)
                                      if gcd(a, s) == 1], ids=str)
    def test_random_keys(self, a, s):
        rng = random.Random(a * 100 + s)
        spec = make_spec(a, s)
        # Berlekamp-Massey over a whole period is quadratic: one key where it runs past 2^15 bits
        for _ in range(3 if shrunken_period(a, s) < 1 << 15 else 1):
            assert_prefix_matches_full_period(spec, random_key(rng, spec))

    def test_known_example(self, kat_spec, kat_key):
        assert_prefix_matches_full_period(kat_spec, kat_key)

    def test_degenerate_selector(self):
        key = ShrinkingKey(LfsrState.parse("0101"), LfsrState.parse("1"))
        assert_prefix_matches_full_period(make_spec(4, 1), key)
