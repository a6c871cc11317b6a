"""GF(2)[x] arithmetic against schoolbook references."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import PRIMITIVE_POLYS, primitive
from shrinkgen import (
    BinaryPolynomial,
    LfsrSpec,
    LfsrState,
    UnsupportedSizeError,
    berlekamp_massey,
    coset_min_poly,
    lfsr_generate,
    mod_inverse,
    poly_is_primitive,
)

masks = st.integers(min_value=0, max_value=(1 << 16) - 1)
moduli = st.integers(min_value=2, max_value=(1 << 12) - 1)


class TestBinaryPolynomial:
    def test_text_round_trip(self):
        for text in ["x^5+x^4+x^3+x^2+1", "x^3+x+1", "x", "1", "0", "x^2+x"]:
            assert str(BinaryPolynomial.parse(text)) == text

    def test_hex_mask(self):
        assert BinaryPolynomial.parse("0x3D") == BinaryPolynomial.parse("x^5+x^4+x^3+x^2+1")
        assert BinaryPolynomial.parse(" 0x 1") == BinaryPolynomial(1)

    def test_whitespace_ignored(self):
        assert BinaryPolynomial.parse(" x^4 + x^3 + 1 ") == BinaryPolynomial.parse("x^4+x^3+1")

    @pytest.mark.parametrize("bad", ["", "x^-1", "y+1", "x^4+x^4", "2", "x^", "0xZZ"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            BinaryPolynomial.parse(bad)

    def test_zero_degree_sentinel(self):
        assert BinaryPolynomial(0).degree is None
        assert BinaryPolynomial(1).degree == 0

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError):
            BinaryPolynomial(-1)

    @given(masks)
    def test_mask_is_canonical(self, m):
        p = BinaryPolynomial(m)
        if p.degree is not None:
            assert p.coeff(p.degree) == 1


class TestPolyMulMod:
    def test_squaring_has_no_cross_term(self):
        xp1 = BinaryPolynomial.parse("x+1")
        m = BinaryPolynomial.parse("x^3+x+1")
        assert (xp1 * xp1) % m == BinaryPolynomial.parse("x^2+1")

    def test_reduction_by_modulus(self):
        # x^4 * x = x^5, one long-division step below the modulus
        a = BinaryPolynomial.parse("x^4")
        b = BinaryPolynomial.parse("x")
        m = BinaryPolynomial.parse("x^5+x^4+x^3+x^2+1")
        expect = oracles.poly_mulmod(
            oracles.mask_to_list(a.mask), oracles.mask_to_list(b.mask), oracles.mask_to_list(m.mask)
        )
        assert oracles.list_to_mask(expect) == BinaryPolynomial.parse("x^4+x^3+x^2+1").mask
        assert (a * b) % m == BinaryPolynomial.parse("x^4+x^3+x^2+1")

    @given(masks, moduli)
    def test_multiplicative_identity(self, am, mm):
        a, one, m = BinaryPolynomial(am), BinaryPolynomial(1), BinaryPolynomial(mm)
        assert (a * one) % m == a % m

    @given(masks, masks, moduli)
    def test_matches_schoolbook_reference(self, am, bm, mm):
        got = (BinaryPolynomial(am) * BinaryPolynomial(bm)) % BinaryPolynomial(mm)
        ref = oracles.poly_mulmod(
            oracles.mask_to_list(am), oracles.mask_to_list(bm), oracles.mask_to_list(mm)
        )
        assert got.mask == oracles.list_to_mask(ref)

    @given(masks, masks, masks, moduli)
    def test_ring_laws(self, am, bm, cm, mm):
        a, b, c = BinaryPolynomial(am), BinaryPolynomial(bm), BinaryPolynomial(cm)
        m = BinaryPolynomial(mm)
        assert (a * b) % m == (b * a) % m
        assert ((a * b) % m * c) % m == (a * ((b * c) % m)) % m
        assert (a * (b + c)) % m == (a * b) % m + (a * c) % m


class TestPrimitivity:
    def test_vetted_table(self):
        for degree, text in PRIMITIVE_POLYS.items():
            p = BinaryPolynomial.parse(text)
            assert p.degree == degree
            assert poly_is_primitive(p)

    def test_known_generator_polynomials(self):
        assert poly_is_primitive(BinaryPolynomial.parse("x^5+x^4+x^3+x^2+1"))
        assert poly_is_primitive(BinaryPolynomial.parse("x^4+x^3+1"))

    def test_reducible_square(self):
        assert not poly_is_primitive(BinaryPolynomial.parse("x^2+1"))

    def test_irreducible_but_not_primitive(self):
        # order of x is 5, not 15
        p = BinaryPolynomial.parse("x^4+x^3+x^2+x+1")
        plist = oracles.mask_to_list(p.mask)
        assert oracles.is_irreducible(plist)
        assert oracles.order_of_x(plist) == 5
        assert not poly_is_primitive(p)

    def test_matches_order_oracle_small_degrees(self):
        for mask in range(2, 1 << 7):
            p = BinaryPolynomial(mask)
            plist = oracles.mask_to_list(mask)
            ref = oracles.order_of_x(plist) == (1 << p.degree) - 1
            assert poly_is_primitive(p) == ref, str(p)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedSizeError):
            poly_is_primitive(BinaryPolynomial((1 << 41) | 0b1011))

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_is_primitive(BinaryPolynomial(1))
        with pytest.raises(ValueError):
            poly_is_primitive(BinaryPolynomial(0))


class TestModInverse:
    def test_known_values(self):
        assert mod_inverse(15, 31) == 29
        assert mod_inverse(1, 31) == 1
        assert mod_inverse(3, 7) == 5  # exhaustive: 3*5 = 15 = 2*7 + 1

    def test_exhaustive_search_agrees(self):
        for v in range(1, 7):
            if 3 * v % 7 == 1:
                assert v == mod_inverse(3, 7)

    @pytest.mark.parametrize("m", [2, 7, 31, 255, 4369, 65535])
    def test_inverse_property_exhaustive(self, m):
        for u in range(1, m):
            if math.gcd(u, m) != 1:
                continue
            v = mod_inverse(u, m)
            assert 1 <= v < m
            assert u * v % m == 1

    def test_no_inverse(self):
        with pytest.raises(ValueError):
            mod_inverse(4, 8)
        with pytest.raises(ValueError):
            mod_inverse(0, 5)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_inverse(1, 1)


class TestCosetMinPoly:
    def test_known_value(self):
        pa = BinaryPolynomial.parse("x^5+x^4+x^3+x^2+1")
        assert coset_min_poly(15, pa) == BinaryPolynomial.parse("x^5+x^3+x^2+x+1")

    def test_coset_of_one_gives_pa(self):
        pa = BinaryPolynomial.parse("x^5+x^4+x^3+x^2+1")
        assert coset_min_poly(1, pa) == pa
        assert coset_min_poly(2, pa) == pa  # 2 lies in the coset of 1

    def test_root_degree_irreducibility(self):
        # an irreducible pd with alpha^n as a root, whose degree is the size
        # of n's orbit under doubling, is the minimal polynomial of alpha^n
        for a in range(2, 9):
            pa = primitive(a)
            pa_list = oracles.mask_to_list(pa.mask)
            m = (1 << a) - 1
            root = [1]
            for n in range(1, m):
                root = oracles.poly_mulmod(root, [0, 1], pa_list)  # alpha^n
                pd = coset_min_poly(n, pa)
                value = []
                for k in range(pd.degree, -1, -1):
                    value = oracles.poly_mulmod(value, root, pa_list)
                    if pd.coeff(k):
                        value = oracles.mask_to_list(oracles.list_to_mask(value) ^ 1)
                assert value == [], (a, n)
                assert oracles.is_irreducible(oracles.mask_to_list(pd.mask))
                orbit, e = {n}, 2 * n % m
                while e not in orbit:
                    orbit.add(e)
                    e = 2 * e % m
                assert pd.degree == len(orbit)

    def test_non_primitive_modulus_rejected(self):
        with pytest.raises(ValueError):
            coset_min_poly(3, BinaryPolynomial.parse("x^4+x^3+x^2+x+1"))

    def test_exponent_bounds(self):
        pa = primitive(5)
        with pytest.raises(ValueError):
            coset_min_poly(0, pa)
        with pytest.raises(ValueError):
            coset_min_poly(31, pa)


class TestBerlekampMassey:
    def test_all_zero(self):
        assert berlekamp_massey([0] * 32) == (0, BinaryPolynomial(1))
        assert berlekamp_massey([]) == (0, BinaryPolynomial(1))

    def test_all_ones(self):
        assert berlekamp_massey([1] * 8) == (1, BinaryPolynomial.parse("x+1"))

    def test_recovers_lfsr_charpoly(self):
        rng = random.Random(7)
        for degree in (2, 3, 4, 5, 6, 7, 8, 10):
            poly = primitive(degree)
            spec = LfsrSpec(poly)
            for _ in range(5):
                bits = [rng.randint(0, 1) for _ in range(degree)]
                if not any(bits):
                    bits[0] = 1
                seq = lfsr_generate(spec, LfsrState(tuple(bits)), 2 * degree)
                assert berlekamp_massey(seq) == (degree, poly)

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 1), max_size=40))
    def test_connection_poly_regenerates_input(self, bits):
        lc, conn = berlekamp_massey(bits)
        assert lc <= len(bits)
        assert conn.degree == lc or (lc == 0 and conn == BinaryPolynomial(1))
        regen = oracles.lfsr_run(oracles.mask_to_list(conn.mask), bits[:lc], len(bits)) if lc else [0] * len(bits)
        assert regen == list(bits)

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 1), max_size=12))
    def test_minimality_by_exhaustion(self, bits):
        lc, _ = berlekamp_massey(bits)
        for shorter in range(lc):
            for mask in range(1 << shorter, 1 << (shorter + 1)):
                charpoly = oracles.mask_to_list(mask)
                if shorter and oracles.lfsr_run(charpoly, bits[:shorter], len(bits)) == list(bits):
                    pytest.fail(f"length-{shorter} register {mask:b} regenerates the input")

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            berlekamp_massey([0, 2, 1])
