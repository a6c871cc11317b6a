"""Two-phase key recovery, its invariants, and key enumeration by guess-and-solve."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    KAT_D0_HEAD,
    KAT_D0_TAIL,
    KAT_OFFSETS,
    KAT_PD,
    KAT_ROW_POSITIONS,
    KAT_SRA,
    KAT_SRS,
    PRIMITIVE_POLYS,
    make_spec,
    oracle_keys,
    primitive,
    random_key,
    submatrix_known,
)
from shrinkgen import (
    AttackInput,
    BinaryPolynomial,
    InconsistentDataError,
    InsufficientInputError,
    InterceptedDataError,
    KnownBits,
    LfsrState,
    OffsetVector,
    SgSpec,
    ShrinkingKey,
    UnsupportedSizeError,
    attack,
    berlekamp_massey,
    brute_force,
    build_ic,
    column_poly,
    extend_column,
    ic_source_index,
    lfsr_generate,
    mod_inverse,
    recover_srs,
    row_positions,
    shrink,
    shrunken_period,
)
from shrinkgen.attack import _Reader, _check_regeneration
from shrinkgen.gf2 import _xpow


class TestColumnPoly:
    def test_known_value(self, kat_spec):
        assert column_poly(kat_spec) == BinaryPolynomial.parse(KAT_PD)

    def test_degenerate_selector(self):
        spec = make_spec(4, 1)
        assert column_poly(spec) == spec.pa

    def test_matches_decimation_oracle(self):
        spec = make_spec(7, 3)
        pn = lfsr_generate(spec.sra, LfsrState((1,) + (0,) * 6), 127)
        assert berlekamp_massey([pn.at(7 * k) for k in range(127)]) == (7, column_poly(spec))


class TestRowPositions:
    def test_known_values(self):
        assert row_positions(5, 4) == KAT_ROW_POSITIONS

    def test_first_is_zero(self):
        for a, s in [(5, 4), (3, 2), (7, 3), (8, 5)]:
            assert row_positions(a, s)[0] == 0

    def test_exhaustive_congruence_oracle(self):
        assert row_positions(3, 2) == (0, 5, 3)
        for a, s in [(3, 2), (5, 4), (7, 3)]:
            rows = (1 << a) - 1
            ratio = (1 << s) - 1
            got = row_positions(a, s)
            for i in range(a):
                assert got[i] == oracles.solve_scaled_congruence(ratio, i, rows)


class TestExtendColumn:
    def test_known_column(self, kat_spec):
        pd = column_poly(kat_spec)
        d0 = extend_column(KAT_D0_HEAD, pd)
        assert d0.period == 31
        for row, bit in KAT_D0_TAIL.items():
            assert d0[row] == bit

    def test_degenerate_selector_returns_data_sequence(self):
        spec = make_spec(5, 1)
        state = LfsrState.parse("10110")
        out = extend_column(state.bits, column_poly(spec))
        assert out == lfsr_generate(spec.sra, state, 31)

    def test_extension_passes_berlekamp_massey(self):
        rng = random.Random(53)
        pd = column_poly(make_spec(7, 3))
        for _ in range(10):
            bits = [rng.randint(0, 1) for _ in range(7)]
            if not any(bits):
                bits[3] = 1
            assert berlekamp_massey(extend_column(bits, pd)) == (7, pd)

    def test_all_zero_window_rejected(self, kat_spec):
        with pytest.raises(InconsistentDataError):
            extend_column((0,) * 5, column_poly(kat_spec))

    def test_wrong_length_rejected(self, kat_spec):
        with pytest.raises(ValueError):
            extend_column((1, 0, 1), column_poly(kat_spec))

    def test_jump_read_matches_full_column(self):
        # cell t of a column is parity((x^t mod P) & c0), c0 bit i = cell i
        rng = random.Random(83)
        for degree in (d for d in PRIMITIVE_POLYS if d <= 8):
            pd = primitive(degree)
            c0 = rng.randrange(1, 1 << degree)
            column = extend_column([(c0 >> i) & 1 for i in range(degree)], pd)
            for t in range((1 << degree) - 1):
                assert (_xpow(t, pd.mask) & c0).bit_count() & 1 == column[t], (degree, c0, t)


class TestRecoverSrs:
    def _d0(self, spec, attack_input):
        a = spec.a_length
        ic = build_ic(attack_input.known, a, spec.s_length)
        return extend_column([ic.cell(n, 0) for n in range(a)], column_poly(spec))

    def test_known_example(self, kat_spec, kat_key, kat_known):
        attack_input = AttackInput(kat_spec, kat_known)
        state, offsets = recover_srs(attack_input, self._d0(kat_spec, attack_input), kat_key.sra_state)
        assert str(state) == KAT_SRS
        assert tuple(offsets) == KAT_OFFSETS

    def test_all_ones_selector_gives_consecutive_offsets(self):
        spec = make_spec(5, 4)
        key = ShrinkingKey(LfsrState.parse("10010"), LfsrState.parse("1111"))
        attack_input = AttackInput(spec, submatrix_known(spec, key))
        state, offsets = recover_srs(attack_input, self._d0(spec, attack_input), key.sra_state)
        assert state == key.srs_state
        assert tuple(offsets) == (0, 1, 2, 3)

    def test_random_keys_match_truth(self):
        rng = random.Random(61)
        spec = make_spec(5, 4)
        for _ in range(100):
            key = random_key(rng, spec, s0=1)
            attack_input = AttackInput(spec, submatrix_known(spec, key))
            state, _ = recover_srs(attack_input, self._d0(spec, attack_input), key.sra_state)
            assert state == key.srs_state

    def test_mismatched_sra_rejected(self, kat_spec, kat_known):
        attack_input = AttackInput(kat_spec, kat_known)
        with pytest.raises(ValueError):
            recover_srs(attack_input, self._d0(kat_spec, attack_input), LfsrState.parse("11111"))

    def test_corrupted_column_rejected(self, kat_spec, kat_key, kat_known):
        # flip one bit of column 1 so no candidate offset matches
        corrupted = {p: (b ^ 1 if p == 1 else b) for p, b in kat_known.items()}
        attack_input = AttackInput(kat_spec, KnownBits(corrupted))
        with pytest.raises(InconsistentDataError):
            recover_srs(attack_input, self._d0(kat_spec, attack_input), kat_key.sra_state)


class TestAttack:
    def test_known_example_end_to_end(self, kat_spec, kat_known):
        result = attack(AttackInput(kat_spec, kat_known))
        assert str(result.sra_state) == KAT_SRA
        assert str(result.srs_state) == KAT_SRS
        assert tuple(result.offsets) == KAT_OFFSETS
        assert result.row_positions == KAT_ROW_POSITIONS
        assert result.column_poly == BinaryPolynomial.parse(KAT_PD)
        assert result.work.comparisons == 3
        assert result.work.column_bits_expanded == 16

    def test_serialization(self, kat_spec, kat_known):
        text = attack(AttackInput(kat_spec, kat_known)).to_text()
        assert text == (
            "sra_state=10011\n"
            "srs_state=1101\n"
            "offsets=0,1,3\n"
            "pd=x^5+x^3+x^2+x+1\n"
            "comparisons=3\n"
        )

    def test_degenerate_selector(self):
        spec = make_spec(5, 1)
        key = ShrinkingKey(LfsrState.parse("01101"), LfsrState.parse("1"))
        z = shrink(spec, key, 5)
        result = attack(AttackInput(spec, KnownBits.from_prefix(z)))
        assert result.sra_state.bits == z.bits
        assert str(result.srs_state) == "1"
        assert result.work.comparisons == 0

    def test_insufficient_input_refused(self, kat_spec, kat_known):
        partial = KnownBits({p: b for p, b in kat_known.items() if p != 19})
        with pytest.raises(InsufficientInputError):
            attack(AttackInput(kat_spec, partial))

    def test_all_zero_first_column_rejected(self, kat_spec, kat_known):
        zeroed = {p: (0 if p % 8 == 0 else b) for p, b in kat_known.items()}
        with pytest.raises(InconsistentDataError, match="sra-recovery"):
            attack(AttackInput(kat_spec, KnownBits(zeroed)))

    def test_phase_label_on_corrupted_data(self, kat_spec, kat_known):
        # a selector sequence never runs S = 4 zeros, so column 1 is tried at offsets 1..4 only
        corrupted = {p: (b ^ 1 if p == 1 else b) for p, b in kat_known.items()}
        message = "^srs-recovery: no offset candidate up to 4 matches column 1$"
        with pytest.raises(InconsistentDataError, match=message):
            attack(AttackInput(kat_spec, KnownBits(corrupted)))

    def test_unmatched_corner_column_checked_by_jumps(self, kat_spec, kat_known):
        # phase two settles the KAT selector at column 2 (offsets 0,1,3), so a flip in
        # column 3 is found by the final check, read on P_A at the flipped cell's position
        for n in range(5):
            pos = 8 * n + 3
            corrupted = {p: b ^ (p == pos) for p, b in kat_known.items()}
            label = "^regeneration-check: recovered key disagrees with the known bit"
            message = f"{label} at position {pos}$"
            with pytest.raises(InconsistentDataError, match=message):
                attack(AttackInput(kat_spec, KnownBits(corrupted)))

    def test_flipped_far_bit_named_at_its_position(self):
        # far bits of the key are accepted; one flipped far bit is named at its own position
        rng = random.Random(113)
        for a, s in [(5, 4), (7, 3), (12, 7), (21, 8)]:
            spec = make_spec(a, s)
            key = random_key(rng, spec, s0=1)
            corner = dict(submatrix_known(spec, key).items())
            z = shrink(spec, key, min(shrunken_period(a, s), 4096))
            far = {p: z[p] for p in rng.sample(sorted(set(range(len(z))) - set(corner)), 6)}
            result = attack(AttackInput(spec, KnownBits({**corner, **far})))
            assert ShrinkingKey(result.sra_state, result.srs_state) == key
            flip = rng.choice(sorted(far))
            far[flip] ^= 1
            with pytest.raises(InconsistentDataError, match=f"known bit at position {flip}$"):
                attack(AttackInput(spec, KnownBits({**corner, **far})))

    def test_known_bits_past_one_period(self, kat_spec, kat_key, kat_known):
        # the keystream has period 248, so position 537 is the key's bit 41 again
        known = dict(kat_known.items())
        known[537] = shrink(kat_spec, kat_key, 538)[537]
        result = attack(AttackInput(kat_spec, KnownBits(known)))
        assert ShrinkingKey(result.sra_state, result.srs_state) == kat_key
        known[537] ^= 1
        with pytest.raises(InconsistentDataError, match="at position 537$"):
            attack(AttackInput(kat_spec, KnownBits(known)))

    def test_offset_match_is_unique_and_cross_checked(self):
        # the scan's match is the only one among all candidates
        rng = random.Random(67)
        for a, s in [(5, 4), (7, 3), (5, 2)]:
            spec = make_spec(a, s)
            rows = (1 << a) - 1
            inv = mod_inverse((1 << s) - 1, rows)
            for _ in range(20):
                key = random_key(rng, spec, s0=1)
                known = submatrix_known(spec, key)
                result = attack(AttackInput(spec, known))
                assert result.sra_state == key.sra_state
                assert result.srs_state == key.srs_state
                ic = build_ic(known, a, s)
                d0 = extend_column([ic.cell(n, 0) for n in range(a)], result.column_poly)
                for j, o_j in enumerate(result.offsets):
                    if j == 0:
                        continue
                    col = tuple(ic.cell(n, j) for n in range(a))
                    matches = [
                        o for o in range(1, (1 << s) - 1)
                        if all(d0.at(o * inv % rows + i) == col[i] for i in range(a))
                    ]
                    assert matches == [o_j]

    def test_work_bound(self):
        rng = random.Random(71)
        for a, s in [(5, 2), (5, 4), (7, 5)]:
            spec = make_spec(a, s)
            for _ in range(50):
                key = random_key(rng, spec, s0=1)
                result = attack(AttackInput(spec, submatrix_known(spec, key)))
                assert result.work.comparisons <= 2 * s - 1
                assert result.work.column_bits_expanded <= a + (2 * s - 1) * a

    @pytest.mark.parametrize("s", [3, 5, 8])
    def test_data_register_of_31_bits(self, s):
        rng = random.Random(89 + s)
        spec = make_spec(31, s)
        key = random_key(rng, spec, s0=1)
        known = submatrix_known(spec, key)
        result = attack(AttackInput(spec, known))
        assert ShrinkingKey(result.sra_state, result.srs_state) == key
        flipped = rng.choice(known.positions())
        corrupted = {p: b ^ (p == flipped) for p, b in known.items()}
        with pytest.raises(InterceptedDataError):
            attack(AttackInput(spec, KnownBits(corrupted)))

    def test_data_economy(self, kat_spec, kat_key, kat_known):
        # extra known bits do not change the result, and deleting any
        # non-required bit does not either
        z = shrink(kat_spec, kat_key, 60)
        full = KnownBits.from_prefix(z)
        baseline = attack(AttackInput(kat_spec, kat_known))
        assert attack(AttackInput(kat_spec, full)) == baseline
        required = set(kat_known.positions())
        for extra in set(full.positions()) - required:
            pruned = KnownBits({p: b for p, b in full.items() if p != extra})
            assert attack(AttackInput(kat_spec, pruned)) == baseline

    def test_canonicalization_for_selector_starting_zero(self):
        rng = random.Random(73)
        spec = make_spec(5, 4)
        t = 248
        for _ in range(20):
            key = random_key(rng, spec, s0=0)
            z = shrink(spec, key, t)
            result = attack(AttackInput(spec, submatrix_known(spec, key)))
            assert result.srs_state.bits[0] == 1
            recovered = ShrinkingKey(result.sra_state, result.srs_state)
            assert shrink(spec, recovered, t) == z


def selector_ones(spec, key):
    """Offsets o_j of the 1s in one selector period, from `oracles`."""
    s = spec.s_length
    selector = oracles.lfsr_run(oracles.mask_to_list(spec.ps.mask), list(key.srs_state.bits), (1 << s) - 1)
    return oracles.one_positions(selector)


def ic_identity_bit(spec, key, pos):
    """Keystream bit pos by the IC identity, in the list arithmetic of `oracles`.

    Bit n * 2^(S-1) + j is data bit t = (n * (2^S - 1) + o_j) mod (2^A - 1),
    o_j the position of the (j+1)-th 1 in the selector's first period, and
    data bit t is the state bits weighted by the coefficients of x^t mod P_A.
    """
    a, s = spec.a_length, spec.s_length
    n, j = divmod(pos, 1 << (s - 1))
    t = (n * ((1 << s) - 1) + selector_ones(spec, key)[j]) % ((1 << a) - 1)
    pa, power, square = oracles.mask_to_list(spec.pa.mask), [1], [0, 1]
    while t:
        if t & 1:
            power = oracles.poly_mulmod(power, square, pa)
        square = oracles.poly_mulmod(square, square, pa)
        t >>= 1
    return sum(c & b for c, b in zip(power, key.sra_state.bits)) % 2


class TestRegenerationCheck:
    @pytest.mark.parametrize("a,s", [(5, 2), (5, 3), (5, 4), (7, 3), (7, 5)])
    def test_jump_reads_match_shrink(self, a, s):
        # a full period is accepted; flipped bits are reported at the lowest flipped position
        rng = random.Random(103 * a + s)
        spec = make_spec(a, s)
        period = shrunken_period(a, s)
        for s0 in (0, 0, 1, None):
            key = random_key(rng, spec, s0=s0)
            z = shrink(spec, key, period)
            _check_regeneration(_Reader(spec), key, KnownBits.from_prefix(z).items())
            single = [(p,) for p in {0, period - 1} | set(rng.sample(range(period), 32))]
            pairs = [tuple(sorted(rng.sample(range(period), 2))) for _ in range(8)]
            for flips in single + pairs:
                flipped = KnownBits.from_prefix(b ^ (i in flips) for i, b in enumerate(z)).items()
                message = f"^recovered key disagrees with the known bit at position {flips[0]}$"
                with pytest.raises(InconsistentDataError, match=message):
                    _check_regeneration(_Reader(spec), key, flipped)

    def test_ic_identity_oracle_matches_shrink(self):
        rng = random.Random(107)
        spec = make_spec(7, 3)
        for s0 in (0, 1):
            key = random_key(rng, spec, s0=s0)
            z = shrink(spec, key, shrunken_period(7, 3))
            assert [ic_identity_bit(spec, key, p) for p in range(len(z))] == list(z)

    @pytest.mark.parametrize("a,s", [(21, 5), (31, 3)])
    def test_last_bit_of_the_period_costs_one_jump(self, a, s):
        # shrinking up to this bit would take (2^A - 1) * 2^(S-1) keystream bits
        rng = random.Random(109 * a + s)
        spec = make_spec(a, s)
        key = random_key(rng, spec, s0=1)
        last = shrunken_period(a, s) - 1
        known = dict(submatrix_known(spec, key).items())
        known[last] = ic_identity_bit(spec, key, last)
        result = attack(AttackInput(spec, KnownBits(known)))
        assert ShrinkingKey(result.sra_state, result.srs_state) == key
        known[last] ^= 1
        with pytest.raises(InterceptedDataError, match=f"at position {last}$"):
            attack(AttackInput(spec, KnownBits(known)))


def state_per_column(reader, key, ones):
    """c_{o_j} for each o_j in ones: the key's data state clocked o_j times."""
    c, states = sum(b << i for i, b in enumerate(key.sra_state.bits)), []
    for o in range(ones[-1] + 1):
        if o in ones:
            states.append(c)
        c = reader.clock(c)
    return states


class TestReader:
    @pytest.mark.parametrize("a,s", [(5, 2), (5, 4), (7, 3)])
    def test_full_period_matches_shrink_and_ic_source_index(self, a, s):
        # cell (n, j) = parity(R_n & c_{o_j}) is keystream bit n * 2^(S-1) + j and data bit
        # o_0 + ic_source_index(n, j) under the offsets counted from o_0, for either selector phase
        rng = random.Random(139 * a + s)
        spec = make_spec(a, s)
        reader = _Reader(spec)
        for s0 in (0, 1):
            key = random_key(rng, spec, s0=s0)
            z = shrink(spec, key, shrunken_period(a, s))
            a_seq = lfsr_generate(spec.sra, key.sra_state, (1 << a) - 1)
            ones = selector_ones(spec, key)
            offsets = OffsetVector(tuple(o - ones[0] for o in ones))
            states = state_per_column(reader, key, ones)
            cells = list(reader.cells(KnownBits.from_prefix(z).items()))
            assert len(cells) == len(z)
            for pos, j, bit, row in cells:
                n = pos >> (s - 1)
                t = ones[0] + ic_source_index(n, j, offsets, a, s)
                assert (row & states[j]).bit_count() & 1 == bit == a_seq.at(t), (s0, pos)

    @pytest.mark.parametrize("a,s", [(21, 5), (31, 3)])
    def test_sampled_cells(self, a, s):
        # random rows are jumps, a row right below the last one read is one multiply
        rng = random.Random(149 * a + s)
        spec = make_spec(a, s)
        reader = _Reader(spec)
        cols = 1 << (s - 1)
        for s0 in (0, 1):
            key = random_key(rng, spec, s0=s0)
            z = shrink(spec, key, 4096)
            a_seq = lfsr_generate(spec.sra, key.sra_state, 8192)
            ones = selector_ones(spec, key)
            offsets = OffsetVector(tuple(o - ones[0] for o in ones))
            states = state_per_column(reader, key, ones)
            positions = sorted({p + d for p in rng.sample(range(4096 - cols), 48) for d in (0, cols)})
            for pos, j, bit, row in reader.cells((p, z[p]) for p in positions):
                t = ones[0] + ic_source_index(pos // cols, j, offsets, a, s)
                assert (row & states[j]).bit_count() & 1 == bit == a_seq[t], (s0, pos)


# sha256 of `digest_outcomes`, computed with the attack that read cells on the column
# polynomial P_D, so the P_A reader must reproduce its results exactly.
OUTCOME_DIGEST = "0d66e8c235f57af1ccd3ed59eba36b3d55b6f21142461b123b9f391cc5f98673"
DIGEST_SIZES = [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 5), (8, 3), (8, 5), (12, 5), (12, 7),
                (21, 5), (21, 8)]


def digest_outcomes():
    """One outcome per seeded input, 25 inputs per size: the result text and work counters
    of a returned key, or the class of the exception raised.

    The inputs cycle through six kinds: a genuine corner; a corner plus eight far bits;
    one and two flipped corner cells; a corner plus eight far bits, one of them flipped;
    a corner missing one cell.  Keys may have either selector phase.
    """
    rng = random.Random(137)
    for a, s in DIGEST_SIZES:
        spec = make_spec(a, s)
        for i in range(25):
            key = random_key(rng, spec)
            known = dict(submatrix_known(spec, key).items())
            corner, kind = sorted(known), i % 6
            if kind in (1, 4):
                z = shrink(spec, key, min(shrunken_period(a, s), 4096))
                far = rng.sample(sorted(set(range(len(z))) - set(known)), 8)
                known.update((p, z[p]) for p in far)
                if kind == 4:
                    known[rng.choice(far)] ^= 1
            elif kind in (2, 3):
                for p in rng.sample(corner, kind - 1):
                    known[p] ^= 1
            elif kind == 5:
                del known[rng.choice(corner)]
            try:
                result = attack(AttackInput(spec, KnownBits(known)))
            except InterceptedDataError as exc:
                yield type(exc).__name__
            else:
                yield result.to_text() + f"work={result.work.comparisons},{result.work.column_bits_expanded}"


def test_outcome_digest():
    # pins to_text(), the work counters and the exception classes over 300 inputs
    outcomes = list(digest_outcomes())
    assert len(outcomes) == 300
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == OUTCOME_DIGEST


@st.composite
def corners_with_flips(draw):
    """A genuine top-left corner at a small size with zero to two cells flipped."""
    a, s = draw(st.sampled_from([(5, 2), (5, 3), (5, 4), (7, 2), (7, 3)]))
    spec = make_spec(a, s)
    sra = draw(st.lists(st.integers(0, 1), min_size=a, max_size=a).filter(any))
    srs = [1] + draw(st.lists(st.integers(0, 1), min_size=s - 1, max_size=s - 1))
    key = ShrinkingKey(LfsrState(tuple(sra)), LfsrState(tuple(srs)))
    known = dict(submatrix_known(spec, key).items())
    for p in draw(st.lists(st.sampled_from(sorted(known)), max_size=2, unique=True)):
        known[p] ^= 1
    return AttackInput(spec, KnownBits(known))


@st.composite
def sparse_intercepts(draw):
    """Known bits of a random key at any positions up to one period + 40, zero to two flipped."""
    a, s = draw(st.sampled_from([(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 5)]))
    spec = make_spec(a, s)
    sra = draw(st.lists(st.integers(0, 1), min_size=a, max_size=a).filter(any))
    srs = draw(st.lists(st.integers(0, 1), min_size=s, max_size=s).filter(any))
    end = shrunken_period(a, s) + 40
    positions = draw(st.lists(st.integers(0, end), max_size=a * s + 3, unique=True))
    z = shrink(spec, ShrinkingKey(LfsrState(tuple(sra)), LfsrState(tuple(srs))), end + 1)
    known = {p: z[p] for p in positions}
    for p in draw(st.lists(st.sampled_from(positions), max_size=2, unique=True)) if positions else ():
        known[p] ^= 1
    return AttackInput(spec, KnownBits(known))


class TestContract:
    @settings(max_examples=150, deadline=None)
    @given(corners_with_flips())
    def test_attack_agrees_with_exhaustive_search(self, attack_input):
        # a key that regenerates every known bit is returned exactly; with none, the attack refuses
        keys = oracle_keys(attack_input)
        try:
            result = attack(attack_input)
        except InterceptedDataError:
            assert keys == []
        else:
            assert keys == [ShrinkingKey(result.sra_state, result.srs_state)]


class TestBruteForce:
    def test_known_example_unique_key(self, kat_spec, kat_known):
        keys = brute_force(AttackInput(kat_spec, kat_known))
        assert keys == [ShrinkingKey(LfsrState.parse(KAT_SRA), LfsrState.parse(KAT_SRS))]

    def test_empty_known_returns_all_candidates(self, kat_spec):
        keys = brute_force(AttackInput(kat_spec, KnownBits({})))
        assert len(keys) == 31 * 8
        assert len(set(keys)) == 248
        assert all(k.srs_state.bits[0] == 1 for k in keys)

    def test_contradictory_known_returns_nothing(self, kat_spec):
        # an all-zero first IC column is a PN-sequence window that never
        # occurs, so no candidate key can produce it
        contradiction = KnownBits({8 * n: 0 for n in range(5)})
        assert brute_force(AttackInput(kat_spec, contradiction)) == []

    def test_budget_cap(self):
        spec = SgSpec(primitive(21), primitive(5))
        with pytest.raises(UnsupportedSizeError):
            brute_force(AttackInput(spec, KnownBits({})))

    def test_deterministic_order(self, kat_spec):
        partial = KnownBits({0: 1})
        first = brute_force(AttackInput(kat_spec, partial))
        second = brute_force(AttackInput(kat_spec, partial))
        assert first == second
        states = [(k.sra_state.bits, k.srs_state.bits) for k in first]
        assert states == sorted(states)

    def test_oracle_equivalence_with_attack(self):
        rng = random.Random(79)
        for a, s in [(5, 3), (5, 4), (7, 2)]:
            spec = make_spec(a, s)
            for _ in range(10):
                key = random_key(rng, spec, s0=1)
                known = submatrix_known(spec, key)
                result = attack(AttackInput(spec, known))
                keys = brute_force(AttackInput(spec, known))
                assert keys == oracle_keys(AttackInput(spec, known))
                assert keys == [ShrinkingKey(result.sra_state, result.srs_state)]

    @settings(max_examples=100, deadline=None)
    @given(sparse_intercepts())
    @example(AttackInput(make_spec(7, 5), KnownBits({})))
    def test_matches_exhaustive_search(self, attack_input):
        assert brute_force(attack_input) == oracle_keys(attack_input)

    @pytest.mark.parametrize("a,s", [(21, 5), (21, 8), (31, 3)])
    def test_whole_corner_at_benchmark_sizes(self, a, s):
        # a whole corner has rank A under every selector guess, so nothing is left to enumerate
        rng = random.Random(127 * a + s)
        spec = make_spec(a, s)
        known = dict(submatrix_known(spec, random_key(rng, spec)).items())
        result = attack(AttackInput(spec, KnownBits(known)))
        keys = brute_force(AttackInput(spec, KnownBits(known)))
        assert keys == [ShrinkingKey(result.sra_state, result.srs_state)]
        known[rng.choice(sorted(known))] ^= 1
        assert brute_force(AttackInput(spec, KnownBits(known))) == []
        with pytest.raises(InterceptedDataError):
            attack(AttackInput(spec, KnownBits(known)))

    def test_budget_counts_free_bits_after_solving(self):
        # nine column-0 cells at (31,3) have rank 9, leaving 2 selector bits plus 22 free data bits
        spec = make_spec(31, 3)
        known = submatrix_known(spec, random_key(random.Random(131), spec))
        column = KnownBits({p: b for p, b in known.items() if p % 4 == 0 and p < 4 * 9})
        with pytest.raises(UnsupportedSizeError, match=r"^\(S - 1\) \+ \(A - rank\) = 24 .*\(23\)$"):
            brute_force(AttackInput(spec, column))
