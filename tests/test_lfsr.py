"""LFSR generation and PN-sequence properties against direct-recurrence oracles."""

import random
from itertools import islice
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import PRIMITIVE_POLYS, primitive
from shrinkgen import (
    BinaryPolynomial,
    BitSequence,
    LfsrSpec,
    LfsrState,
    berlekamp_massey,
    coset_min_poly,
    lfsr_generate,
    lfsr_stream,
    mod_inverse,
)
from shrinkgen.lfsr import _BLOCK_BITS

# Text close to a bit string: 0s and 1s mixed with whitespace and near misses.
BIT_TEXT = st.text(alphabet="01 \n\t2a\u0661")


class TestBitSequence:
    def test_parse_and_str(self):
        seq = BitSequence.parse(" 10 0\n11 ")
        assert str(seq) == "10011"
        assert seq.bits == (1, 0, 0, 1, 1)

    def test_parse_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitSequence.parse("10021")

    @pytest.mark.parametrize("text", ["10\u06611", "1\u00e90", "\u0661", "1\x000", "1\ud8000"])
    def test_parse_rejects_non_ascii_and_control_characters(self, text):
        with pytest.raises(ValueError) as got:
            BitSequence.parse(text)
        assert str(got.value) == "bit strings may only contain '0' and '1'"

    @given(st.lists(st.integers(0, 1) | st.booleans(), max_size=300))
    def test_str_lists_each_bit(self, bits):
        assert str(BitSequence(bits)) == "".join("01"[b] for b in bits)

    @pytest.mark.parametrize("item", [True, False, "1", "0", 1.0, 2, -1, "2", "a", None])
    def test_constructor_accepts_and_rejects_as_the_per_item_check(self, item):
        def per_item(bits):  # the constructor's check, one Python step per item
            bits = tuple(int(b) for b in bits)
            if any(b not in (0, 1) for b in bits):
                raise ValueError("sequence bits must be 0 or 1")
            return bits

        items = [1, 0, item, 1]
        try:
            expected = per_item(items)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                BitSequence(items)
            assert str(got.value) == str(exc)
        else:
            assert BitSequence(items).bits == expected

    def test_bytes_argument_equals_the_same_ints(self):
        seq, ints = BitSequence(b"\x00\x01"), BitSequence([0, 1])
        assert seq == ints and seq.bits == ints.bits == (0, 1)
        assert str(seq) == str(ints) == "01" and hash(seq) == hash(ints)
        assert (seq[0], seq[1], seq[-1]) == (ints[0], ints[1], ints[-1]) == (0, 1, 1)
        assert seq[:1] == ints[:1] == (0,) and seq[::-1] == ints[::-1] == (1, 0)
        assert type(seq[0]) is int and type(seq[:1]) is tuple

    def test_bytes_argument_rejects_a_non_bit(self):
        with pytest.raises(ValueError) as got:
            BitSequence(b"\x00\x02")
        assert str(got.value) == "sequence bits must be 0 or 1"

    @given(st.text() | BIT_TEXT)
    def test_parse_returns_bits_or_raises_value_error(self, text):
        try:
            seq = BitSequence.parse(text)
        except ValueError:
            return
        assert BitSequence.parse(str(seq)) == seq


class TestLfsrState:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            LfsrState((0, 0, 0))

    @given(st.lists(st.integers(0, 1) | st.booleans(), min_size=1, max_size=64).filter(any))
    def test_str_lists_each_bit(self, bits):
        assert str(LfsrState(tuple(bits))) == "".join("01"[b] for b in bits)

    @given(st.lists(st.integers(-1, 2) | st.booleans() | st.sampled_from(["0", "1", "2", 1.0]),
                    max_size=8) | st.text("012", max_size=8))
    def test_validation_accepts_and_rejects_as_a_per_bit_check(self, bits):
        # the same inputs pass, with the same bits and the same first message, as under
        # a check of one bit at a time
        try:
            ints = tuple(int(b) for b in bits)
            if not ints:
                raise ValueError("state must have at least one bit")
            if any(b not in (0, 1) for b in ints):
                raise ValueError("state bits must be 0 or 1")
            if not any(ints):
                raise ValueError("state must not be all-zero")
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                LfsrState(bits)
        else:
            assert LfsrState(bits).bits == ints

    def test_parse(self):
        assert LfsrState.parse("10011").bits == (1, 0, 0, 1, 1)
        with pytest.raises(ValueError):
            LfsrState.parse("10a1")

    @given(st.text() | BIT_TEXT)
    def test_parse_returns_a_state_or_raises_value_error(self, text):
        try:
            state = LfsrState.parse(text)
        except ValueError:
            return
        assert LfsrState.parse(str(state)) == state and any(state.bits)


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
        assert lfsr_generate(spec, LfsrState.parse("1101"), 30).bits[15:] == out.bits
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


class TestBlockStream:
    """lfsr_stream runs _BLOCK_BITS clocks per step; no block seam may show."""

    LENGTHS = [0, 1, _BLOCK_BITS - 1, _BLOCK_BITS, _BLOCK_BITS + 1, 3 * _BLOCK_BITS + 5]

    @pytest.mark.parametrize("degree", sorted(PRIMITIVE_POLYS))
    def test_matches_direct_recurrence_across_blocks(self, degree):
        rng = random.Random(59 * degree)
        poly = primitive(degree)
        spec, charpoly = LfsrSpec(poly), oracles.mask_to_list(poly.mask)
        lengths = self.LENGTHS + ([spec.period, spec.period + 1] if degree <= 12 else [])
        for _ in range(4):
            bits = [rng.randint(0, 1) for _ in range(degree)]
            if not any(bits):
                bits[rng.randrange(degree)] = 1
            expected = oracles.lfsr_run(charpoly, bits, max(lengths))
            for n in lengths:
                assert list(islice(lfsr_stream(spec, LfsrState(tuple(bits))), n)) == expected[:n]
                assert list(lfsr_generate(spec, LfsrState(tuple(bits)), n)) == expected[:n]


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
                w = tuple(pn[(p + i) % spec.period] for i in range(degree))
                assert w not in seen
                seen[w] = p
            assert len(seen) == spec.period  # all nonzero windows, each exactly once


class TestDecimate:
    def test_known_columns(self, kat_spec, kat_key):
        a_seq = lfsr_generate(kat_spec.sra, kat_key.sra_state, 31)
        assert tuple(a_seq[15 * k % 31] for k in range(5)) == (1, 1, 0, 0, 0)
        assert tuple(a_seq[(15 * k + 1) % 31] for k in range(5)) == (0, 0, 1, 1, 0)

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
                    assert pn[(offset + k * ratio) % t] == pn[(rot + k) * ratio % t]

    def test_decimation_by_selector_period_gives_column_poly(self):
        for a, s in [(5, 4), (5, 2), (7, 3)]:
            spec = LfsrSpec(primitive(a))
            pn = lfsr_generate(spec, LfsrState((1,) + (0,) * (a - 1)), spec.period)
            pd = coset_min_poly((1 << s) - 1, primitive(a))
            for offset in range(spec.period):
                column = [pn[(offset + k * ((1 << s) - 1)) % spec.period] for k in range(spec.period)]
                assert berlekamp_massey(column) == (a, pd)
