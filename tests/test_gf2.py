"""GF(2)[x] arithmetic against schoolbook references."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import PRIMITIVE_POLYS, primitive
from shrinkgen import (
    PARSE_DEGREE_CAP,
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
from shrinkgen.gf2 import _eliminate, _jump, _jump_table, _mulmod, _xpow

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

    @pytest.mark.parametrize("bad", ["", "x^-1", "y+1", "x^4+x^4", "2", "x^", "0xZZ", "0x",
                                     "x^3_0", "x^\u0665", "0x3_D", "x^100000000000000000000+1",
                                     pytest.param("x^" + "9" * 5000 + "+1", id="x^<5000 nines>+1")])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError) as exc:
            BinaryPolynomial.parse(bad)
        assert "set_int_max_str_digits" not in str(exc.value)

    def test_exponent_cap(self):
        assert BinaryPolynomial.parse(f"x^{PARSE_DEGREE_CAP}+1").degree == PARSE_DEGREE_CAP
        for k in (PARSE_DEGREE_CAP + 1, 10**6):
            with pytest.raises(ValueError) as exc:
                BinaryPolynomial.parse(f"x^{PARSE_DEGREE_CAP}+x^{k}+1")
            assert str(exc.value) == (
                f"exponent of term 'x^{k}' exceeds the degree cap {PARSE_DEGREE_CAP}")

    @settings(max_examples=300)
    @given(st.text() | st.text(alphabet="x^+0123456789abcdefX \n\u0665_-"))
    def test_parse_returns_a_polynomial_or_raises_value_error(self, text):
        try:
            p = BinaryPolynomial.parse(text)
        except ValueError:
            return
        assert BinaryPolynomial.parse(str(p)) == p

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
            assert p.mask >> p.degree == 1


class TestPolyMulMod:
    def test_squaring_has_no_cross_term(self):
        xp1 = BinaryPolynomial.parse("x+1").mask
        m = BinaryPolynomial.parse("x^3+x+1").mask
        assert _mulmod(xp1, xp1, m) == BinaryPolynomial.parse("x^2+1").mask

    def test_reduction_by_modulus(self):
        # x^4 * x = x^5, one long-division step below the modulus
        a = BinaryPolynomial.parse("x^4")
        b = BinaryPolynomial.parse("x")
        m = BinaryPolynomial.parse("x^5+x^4+x^3+x^2+1")
        expect = oracles.poly_mulmod(
            oracles.mask_to_list(a.mask), oracles.mask_to_list(b.mask), oracles.mask_to_list(m.mask)
        )
        assert oracles.list_to_mask(expect) == BinaryPolynomial.parse("x^4+x^3+x^2+1").mask
        assert _mulmod(a.mask, b.mask, m.mask) == BinaryPolynomial.parse("x^4+x^3+x^2+1").mask

    @given(masks, moduli)
    def test_multiplicative_identity(self, am, mm):
        a = _mulmod(1, am, mm)
        assert _mulmod(a, 1, mm) == a
        ref = oracles.poly_divmod(oracles.mask_to_list(am), oracles.mask_to_list(mm))[1]
        assert a == oracles.list_to_mask(ref)

    @given(masks, masks, moduli, st.integers(min_value=0, max_value=63))
    def test_matches_schoolbook_reference(self, am, bm, mm, k):
        got = _mulmod(_mulmod(1, am, mm), bm, mm)
        m = oracles.mask_to_list(mm)
        ref = oracles.poly_mulmod(oracles.mask_to_list(am), oracles.mask_to_list(bm), m)
        assert got == oracles.list_to_mask(ref)
        power = oracles.poly_divmod([1], m)[1]
        for _ in range(k):
            power = oracles.poly_mulmod(power, [0, 1], m)
        assert _xpow(k, mm) == oracles.list_to_mask(power)

    @given(masks, masks, masks, moduli)
    def test_ring_laws(self, am, bm, cm, mm):
        a, b, c = (_mulmod(1, v, mm) for v in (am, bm, cm))
        assert _mulmod(a, b, mm) == _mulmod(b, a, mm)
        assert _mulmod(_mulmod(a, b, mm), c, mm) == _mulmod(a, _mulmod(b, c, mm), mm)
        assert _mulmod(a, b ^ c, mm) == _mulmod(a, b, mm) ^ _mulmod(a, c, mm)


class TestJump:
    @pytest.mark.parametrize("a", [a for a in PRIMITIVE_POLYS if a <= 12])
    def test_every_exponent_of_a_period(self, a):
        m = primitive(a).mask
        table = _jump_table(m)
        assert len(table) == -(-a // 8)
        assert all(_jump(table, k, m) == _xpow(k, m) for k in range((1 << a) - 1))

    @pytest.mark.parametrize("a", [21, 31])
    def test_sampled_exponents(self, a):
        m = primitive(a).mask
        table = _jump_table(m)
        rng = random.Random(a)
        ks = [0, (1 << a) - 2] + [rng.randrange((1 << a) - 1) for _ in range(1000)]
        assert all(_jump(table, k, m) == _xpow(k, m) for k in ks)

    @given(moduli, st.data())
    def test_any_modulus(self, mm, data):
        # the table needs no primitive modulus: a product that comes back to 1 still reads right
        k = data.draw(st.integers(0, (1 << (mm.bit_length() - 1)) - 1))
        assert _jump(_jump_table(mm), k, mm) == _xpow(k, mm)


class TestEliminate:
    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1)), max_size=10), st.data())
    def test_extending_a_system_matches_one_pass(self, rows, data):
        # rows added to an earlier call's pivots give the pivots of all rows at once,
        # and a system is consistent exactly when some 6-bit c satisfies every row
        k = data.draw(st.integers(0, len(rows)))
        first = _eliminate(rows[:k])
        extended = None if first is None else _eliminate(rows[k:], first)
        assert extended == _eliminate(rows)
        solvable = any(all((mask & c).bit_count() % 2 == bit for mask, bit in rows) for c in range(64))
        assert (extended is not None) == solvable


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
                    if pd.mask >> k & 1:
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
