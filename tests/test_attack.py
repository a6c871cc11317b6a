"""Two-phase key recovery, its invariants, and key enumeration by a pruned selector search."""

import hashlib
import importlib
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import ic_source_index
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
    BRUTE_FORCE_MAX_BITS,
    AttackInput,
    BinaryPolynomial,
    BitSequence,
    InconsistentDataError,
    InsufficientInputError,
    InterceptedDataError,
    KnownBits,
    LfsrState,
    SgSpec,
    ShrinkingKey,
    UnsupportedSizeError,
    attack,
    berlekamp_massey,
    brute_force,
    build_ic,
    column_poly,
    coset_min_poly,
    extend_column,
    lfsr_generate,
    mod_inverse,
    recover_srs,
    row_positions,
    shrink,
    shrunken_period,
)
from shrinkgen.attack import _check_regeneration, _column_offsets, _corner, _row_reader, _solve
from shrinkgen import gf2
from shrinkgen.gf2 import _inverse, _powers, _xpow
from shrinkgen.lfsr import _block_tables, _window


class TestColumnPoly:
    def test_known_value(self, kat_spec):
        assert column_poly(kat_spec) == BinaryPolynomial.parse(KAT_PD)

    def test_degenerate_selector(self):
        spec = make_spec(4, 1)
        assert column_poly(spec) == spec.pa

    def test_matches_decimation_oracle(self):
        spec = make_spec(7, 3)
        pn = lfsr_generate(spec.sra, LfsrState((1,) + (0,) * 6), 127)
        assert berlekamp_massey([pn[7 * k % 127] for k in range(127)]) == (7, column_poly(spec))


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
        assert len(d0) == 31
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

    def test_short_column_rejected(self, kat_spec, kat_key, kat_known):
        attack_input = AttackInput(kat_spec, kat_known)
        d0 = BitSequence(self._d0(kat_spec, attack_input).bits[:30])
        with pytest.raises(ValueError, match="full column of period 31"):
            recover_srs(attack_input, d0, kat_key.sra_state)

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
        assert result.column_poly == BinaryPolynomial.parse(KAT_PD)
        assert result.work.comparisons == 3
        assert result.work.column_bits_expanded == 15  # A = 5 cells per offset solved

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

    def test_builds_no_block_tables(self):
        # both searches run the registers' block steps on the tables their spec holds, so
        # neither builds a block or jump table, or looks one up in the shared caches
        rng = random.Random(113)
        inputs = []
        for a, s in [(12, 7), (8, 3)]:
            spec = make_spec(a, s)
            key = random_key(rng, spec, s0=1)
            inputs.append((AttackInput(spec, KnownBits.from_prefix(shrink(spec, key, 1000))), key))
        _block_tables.cache_clear()
        gf2._jump_table.cache_clear()
        for attack_input, key in inputs:
            result = attack(attack_input)
            assert ShrinkingKey(result.sra_state, result.srs_state) == key
        assert key in brute_force(inputs[-1][0])
        assert _block_tables.cache_info().currsize == gf2._jump_table.cache_info().currsize == 0

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

    def test_each_step_labels_its_own_failure(self, kat_spec, kat_known):
        # one failure per labelled step of attack: the error keeps its type, carries the
        # step's label in front of its message, and chains the unlabelled error as its cause
        def flipped(pos):
            return {p: b ^ (p == pos) for p, b in kat_known.items()}

        zeroed = {p: 0 if p % 8 == 0 else b for p, b in kat_known.items()}
        cases = [
            ("sra-recovery", zeroed, "a genuine column never contains an all-zero window"),
            ("srs-recovery", flipped(1), "no offset candidate up to 4 matches column 1"),
            ("regeneration-check", flipped(19),
             "recovered key disagrees with the known bit at position 19"),
        ]
        for label, known, message in cases:
            with pytest.raises(InconsistentDataError) as caught:
                attack(AttackInput(kat_spec, KnownBits(known)))
            exc = caught.value
            assert str(exc) == f"{label}: {message}"
            assert type(exc.__cause__) is type(exc) and str(exc.__cause__) == message

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
                        if all(d0[(o * inv + i) % rows] == col[i] for i in range(a))
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
                assert result.work.column_bits_expanded == a * len(result.offsets) <= a * s

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


def data_window(spec, key, bits):
    """The key's data bits a_0 .. a_{bits-1} as one int, bit u = a_u, by `oracles.lfsr_run`."""
    pa = oracles.mask_to_list(spec.pa.mask)
    return oracles.list_to_mask(oracles.lfsr_run(pa, list(key.sra_state.bits), bits))


def check_regeneration(spec, key, known):
    """_check_regeneration of the key against known bits that hold the whole corner; the
    key's offsets and data bits come from the list oracles, 255 bits past o_J + A for the
    far rows' shifts."""
    columns, far = _corner(AttackInput(spec, known))
    offsets = selector_ones(spec, key)
    window = data_window(spec, key, offsets[-1] + spec.a_length + 255)
    _check_regeneration(spec, window, offsets, columns, [_solve(spec, v) for v in columns], far)


class TestRegenerationCheck:
    @pytest.mark.parametrize("a,s", [(5, 2), (5, 3), (5, 4), (7, 3), (7, 5)])
    def test_jump_reads_match_shrink(self, a, s):
        # a full period is accepted; flipped bits, in corner columns and far cells alike, are
        # reported at the lowest flipped position, for keys of either selector phase
        rng = random.Random(103 * a + s)
        spec = make_spec(a, s)
        period = shrunken_period(a, s)
        for s0 in (0, 0, 1, None):
            key = random_key(rng, spec, s0=s0)
            z = shrink(spec, key, period)
            check_regeneration(spec, key, KnownBits.from_prefix(z))
            single = [(p,) for p in {0, period - 1} | set(rng.sample(range(period), 32))]
            pairs = [tuple(sorted(rng.sample(range(period), 2))) for _ in range(8)]
            for flips in single + pairs:
                flipped = KnownBits.from_prefix(b ^ (i in flips) for i, b in enumerate(z))
                message = f"^recovered key disagrees with the known bit at position {flips[0]}$"
                with pytest.raises(InconsistentDataError, match=message):
                    check_regeneration(spec, key, flipped)

    @pytest.mark.parametrize("a,s", [(5, 4), (12, 7), (21, 8)])
    def test_several_flips_named_at_the_lowest(self, a, s):
        # Flips in the corner columns phase two leaves to the check (j >= len(offsets)) and
        # in far bits at once: the attack names the lowest of them, as a per-cell walk does.
        rng = random.Random(199 * a + s)
        spec, cols, checked = make_spec(a, s), 1 << (s - 1), 0
        pa, ps = oracles.mask_to_list(spec.pa.mask), oracles.mask_to_list(spec.ps.mask)
        for _ in range(8):
            key = random_key(rng, spec, s0=1)
            corner = dict(submatrix_known(spec, key).items())
            offsets = attack(AttackInput(spec, KnownBits(corner))).offsets
            later = [p for p in sorted(corner) if p % cols >= len(offsets)]
            if not later:
                continue
            z = shrink(spec, key, min(shrunken_period(a, s), 4096))
            far = {p: z[p] for p in rng.sample(sorted(set(range(len(z))) - set(corner)), 8)}
            known = {**corner, **far}
            flips = rng.sample(later, min(3, len(later))) + rng.sample(sorted(far), 3)
            for p in flips:
                known[p] ^= 1
            walk = oracles.first_disagreement(pa, ps, key.sra_state.bits, key.srs_state.bits, known)
            assert walk == min(flips)
            message = f"^regeneration-check: recovered key disagrees with the known bit at position {walk}$"
            with pytest.raises(InconsistentDataError, match=message):
                attack(AttackInput(spec, KnownBits(known)))
            checked += 1
        assert checked >= 4

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


def cell_reader(spec, key, ones):
    """(n, j) -> cell (n, j) as the check reads it, parity((M << (r + o_j)) & w), with (M, r)
    from _row_reader, o_j = ones[j] and w the key's data bits up to a_{max(ones) + A + 254},
    by oracles."""
    window = data_window(spec, key, max(ones) + spec.a_length + 255)
    row_of = _row_reader(spec)

    def cell(n, j):
        row, r = row_of(n)
        return (row << (r + ones[j]) & window).bit_count() & 1

    return cell


class TestReader:
    @pytest.mark.parametrize("a,s", [(5, 2), (5, 4), (7, 3)])
    def test_full_period_matches_shrink_and_ic_source_index(self, a, s):
        # cell (n, j) = parity(M & c_{o_j + r}) is keystream bit n * 2^(S-1) + j and data bit
        # o_0 + ic_source_index(n, j) under the offsets counted from o_0, for either selector phase
        rng = random.Random(139 * a + s)
        spec = make_spec(a, s)
        for s0 in (0, 1):
            key = random_key(rng, spec, s0=s0)
            z = shrink(spec, key, shrunken_period(a, s))
            a_seq = lfsr_generate(spec.sra, key.sra_state, (1 << a) - 1)
            ones = selector_ones(spec, key)
            offsets = tuple(o - ones[0] for o in ones)
            read = cell_reader(spec, key, ones)
            for pos, bit in enumerate(z):
                n, j = divmod(pos, 1 << (s - 1))
                t = ones[0] + ic_source_index(n, j, offsets, a, s)
                cell = read(n, j)
                assert cell == bit == a_seq[t % len(a_seq)], (s0, pos)

    @pytest.mark.parametrize("a,s", [(21, 5), (31, 3)])
    def test_sampled_cells(self, a, s):
        # random rows, each read by one jump, and the row right below each of them
        rng = random.Random(149 * a + s)
        spec = make_spec(a, s)
        cols = 1 << (s - 1)
        for s0 in (0, 1):
            key = random_key(rng, spec, s0=s0)
            z = shrink(spec, key, 4096)
            a_seq = lfsr_generate(spec.sra, key.sra_state, 8192)
            ones = selector_ones(spec, key)
            offsets = tuple(o - ones[0] for o in ones)
            read = cell_reader(spec, key, ones)
            positions = sorted({p + d for p in rng.sample(range(4096 - cols), 48) for d in (0, cols)})
            for pos in positions:
                n, j = divmod(pos, cols)
                t = ones[0] + ic_source_index(n, j, offsets, a, s)
                cell = read(n, j)
                assert cell == z[pos] == a_seq[t], (s0, pos)


    @pytest.mark.parametrize("a,s", [(21, 5), (31, 3)])
    def test_far_rows_match_xpow(self, a, s):
        # rows up to 10^12, far apart or right below the row before: a row below A is R_n
        # itself, and any other is split as R_n = x^(256q) * x^r, x^(256q) read by one jump
        rng = random.Random(157 * a + s)
        spec = make_spec(a, s)
        ratio, period, m = (1 << s) - 1, (1 << a) - 1, spec.pa.mask
        rows = {n + d for n in (rng.randrange(10**12) for _ in range(200)) for d in (0, 1)}
        rows |= {0, a - 1, a, a + 1, 10**12}
        row_of = _row_reader(spec)
        for n in sorted(rows):
            k = n * ratio % period
            expect = (_xpow(k, m), 0) if n < a else (_xpow(k >> 8 << 8, m), k & 255)
            assert row_of(n) == expect, n

    @pytest.mark.parametrize("a,s", [(12, 7), (21, 5), (31, 3)])
    def test_far_row_costs_at_most_a_quarter_a_multiplies(self, monkeypatch, a, s):
        # counts multiplies, not time: an attack on the corner plus one known bit in a far
        # row and one in the row right below it reads each of the two rows by one jump over
        # the exponent's upper digits, at most ceil(A/8) - 2 multiplies, one per nonzero
        # 8-bit digit past the second; the lowest digit is a shift of the data window, so
        # at A = 12 nothing multiplies
        calls, mulmod = [], gf2._mulmod

        def counted(u, v, m):
            calls.append(m)
            return mulmod(u, v, m)

        monkeypatch.setattr(gf2, "_mulmod", counted)
        monkeypatch.setattr(importlib.import_module("shrinkgen.attack"), "_mulmod", counted)
        rng = random.Random(163 * a + s)
        spec = make_spec(a, s)
        cols, counts = 1 << (s - 1), []
        for _ in range(20):
            key = random_key(rng, spec, s0=1)
            known = dict(submatrix_known(spec, key).items())
            n = rng.randrange(a + 1, (1 << a) - 2)
            for pos in (n * cols + rng.randrange(cols), (n + 1) * cols + rng.randrange(cols)):
                known[pos] = ic_identity_bit(spec, key, pos)
            calls.clear()
            result = attack(AttackInput(spec, KnownBits(known)))
            assert ShrinkingKey(result.sra_state, result.srs_state) == key
            counts.append(len(calls))
        bound = 2 * max(0, -(-a // 8) - 2)
        assert max(counts) <= bound and (max(counts) > 0) == (bound > 0), counts

    @pytest.mark.parametrize("bits", [2568, 6000])
    def test_dense_prefix_costs_one_jump_per_row(self, monkeypatch, bits):
        # A contiguous (21,8) prefix: 2,568 bits end on the corner's last cell, so every row
        # sits below A and nothing jumps, while 6,000 bits reach row 46.  Each distinct row
        # at or past A costs one jump of at most ceil(21/8) - 2 = 1 multiply, not one per cell.
        spec = make_spec(21, 8)
        key = random_key(random.Random(211 + bits), spec, s0=1)
        known = KnownBits.from_prefix(shrink(spec, key, bits))
        module = importlib.import_module("shrinkgen.attack")
        jumps, calls, jump, mulmod = [], [], module._jump, gf2._mulmod

        def counted_jump(table, k, m):
            jumps.append(k)
            return jump(table, k, m)

        def counted(u, v, m):
            calls.append(m)
            return mulmod(u, v, m)

        monkeypatch.setattr(module, "_jump", counted_jump)
        monkeypatch.setattr(gf2, "_mulmod", counted)
        result = attack(AttackInput(spec, known))
        assert ShrinkingKey(result.sra_state, result.srs_state) == key
        rows = {p >> 7 for p in range(bits)} - set(range(21))
        assert len(jumps) == len(rows) == max(0, -(-bits // 128) - 21)
        assert len(calls) <= len(rows), (len(calls), len(rows))


class TestBlockReads:
    @pytest.mark.parametrize("a,s", [(5, 4), (12, 7), (21, 8), (31, 5)])
    def test_window_holds_the_data_bits(self, a, s):
        # the data bits from a state, one block step per 256 bits, across block boundaries
        rng = random.Random(223 * a + s)
        spec = make_spec(a, s)
        for bits in (1, a, 255, 256, 257, 600):
            key = random_key(rng, spec)
            window = _window(oracles.list_to_mask(key.sra_state.bits), spec._sra_blocks, a, bits)
            assert window & ((1 << bits) - 1) == data_window(spec, key, bits), bits
            assert window.bit_length() <= -(-bits // 256) * 256

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 10])
    def test_column_offsets_are_the_selector_ones(self, s):
        # the first 1, S of them and all 2^(S-1) of one period, which spans four block
        # steps at S = 10, from every selector state, or 64 of them at S = 10
        spec = make_spec(11, s)
        ps = oracles.mask_to_list(spec.ps.mask)
        states = range(1, 1 << s) if s < 10 else random.Random(233).sample(range(1, 1 << s), 64)
        for w in states:
            state = [w >> i & 1 for i in range(s)]
            ones = oracles.one_positions(oracles.lfsr_run(ps, state, (1 << s) - 1))
            assert len(ones) == 1 << (s - 1)
            for columns in (1, s, len(ones)):
                assert _column_offsets(spec, w, columns) == ones[:columns], (w, columns)


TABLE_SIZES = [(a, s) for a in range(2, 13) for s in range(1, a) if gcd(a, s) == 1]
TABLE_SIZES += [(21, 5), (21, 8), (31, 3), (31, 5)]


class TestSpecTables:
    """The per-spec work an SgSpec does once, against the per-call computations it replaces."""

    @pytest.mark.parametrize("a,s", TABLE_SIZES)
    def test_rows_and_column_poly(self, a, s):
        spec = make_spec(a, s)
        ratio = (1 << s) - 1
        assert spec._rows == tuple(_xpow(n * ratio, spec.pa.mask) for n in range(a))
        assert spec._pd == column_poly(spec) == coset_min_poly(ratio, spec.pa)

    @pytest.mark.parametrize("a,s", TABLE_SIZES)
    def test_jump_table(self, a, s):
        spec = make_spec(a, s)
        # one row per 8-bit place of an A-bit exponent, as long as the digits that place holds
        assert len(spec._jumps) == -(-a // 8)
        for i, row in enumerate(spec._jumps):
            assert row == tuple(_xpow(d << 8 * i, spec.pa.mask) for d in range(1 << min(8, a - 8 * i)))

    @pytest.mark.parametrize("a,s", TABLE_SIZES)
    def test_inverse_rows_read_the_strategic_cells(self, a, s):
        # row i is x^(n_i) mod P_D, the column-0 cell that holds data bit a_i, and also
        # (x^((2^S - 1)^-1) mod P_D)^i, since n_i = i (2^S - 1)^-1 mod 2^A - 1
        spec = make_spec(a, s)
        pd = spec._pd.mask
        inverse = _inverse(spec._rows)
        assert inverse == tuple(_xpow(n, pd) for n in row_positions(a, s))
        step = _xpow(mod_inverse((1 << s) - 1, (1 << a) - 1), pd)
        assert inverse == tuple(_powers(step, a, pd))

    @pytest.mark.parametrize("a,s", TABLE_SIZES)
    def test_phase_one_matches_elimination(self, a, s):
        # any A cells of any column, genuine or not, packed by _corner, solve to the
        # elimination's state
        spec = make_spec(a, s)
        cols = 1 << (s - 1)
        rng = random.Random(151 * a + s)
        for _ in range(8):
            v, j = rng.randrange(1, 1 << a), rng.randrange(s)
            bits = [v >> n & 1 for n in range(a)]
            known = {n * cols + i: bits[n] if i == j else 0 for n in range(a) for i in range(s)}
            columns, far = _corner(AttackInput(spec, KnownBits(known)))
            assert columns[j] == v and far == []
            solution = oracles.solve_unique(spec._rows, bits, a)
            assert _solve(spec, columns[j]) == oracles.list_to_mask(solution)

    @pytest.mark.parametrize("a,s", TABLE_SIZES)
    def test_table_solve_matches_parity_solve(self, a, s):
        # Every column v at A <= 12, and 200 random ones above, against bit p =
        # parity(inverse_p & v).  Both maps are linear, so the elimination oracle checks
        # them on the unit columns, which settles every v, and on 50 random ones.
        spec = make_spec(a, s)
        inverse = _inverse(spec._rows)
        rng = random.Random(167 * a + s)
        vs = range(1 << a) if a <= 12 else [rng.randrange(1 << a) for _ in range(200)]
        for v in vs:
            c = sum(((inv & v).bit_count() & 1) << p for p, inv in enumerate(inverse))
            assert _solve(spec, v) == c, v
        for v in [1 << n for n in range(a)] + [rng.randrange(1 << a) for _ in range(50)]:
            solution = oracles.solve_unique(spec._rows, [v >> n & 1 for n in range(a)], a)
            assert _solve(spec, v) == oracles.list_to_mask(solution), v

    @staticmethod
    def first_attack_growth(attack_input):
        """How much more the first of two attacks on attack_input takes than the second: its
        extra tracemalloc peak, in bytes, and the misses it adds to the shared table caches.

        The peaks also move with interpreter state that earlier calls leave behind (run on
        its own, a process's first attacks peak 10-90 bytes apart), so the peak is checked
        against the second call's plus PEAK_SLACK, below the about 460 bytes that
        building the smallest table, the (5,4) jump table, on first use adds; the misses
        are exact.
        """
        caches = (_block_tables, gf2._jump_table)
        misses, peaks = [cache.cache_info().misses for cache in caches], []
        for _ in range(2):
            tracemalloc.start()
            try:
                attack(attack_input)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            if len(peaks) == 1:
                misses = [cache.cache_info().misses - m for cache, m in zip(caches, misses)]
        return peaks[0] - peaks[1], misses

    PEAK_SLACK = 256

    @pytest.mark.parametrize("a,s", [(5, 4), (12, 7), (21, 8), (31, 5)])
    def test_tables_built_with_the_spec(self, a, s):
        # nothing is built on the first attack: it looks up no table and peaks no higher
        # than the second one, up to the slack
        rng = random.Random(181 * a + s)
        spec = SgSpec(primitive(a), primitive(s))
        known = submatrix_known(spec, random_key(rng, spec, s0=1))
        growth, misses = self.first_attack_growth(AttackInput(spec, known))
        assert misses == [0, 0] and growth <= self.PEAK_SLACK, (growth, misses)

    @pytest.mark.parametrize("a,s", [(5, 4), (12, 7), (21, 8), (31, 5)])
    def test_far_tables_built_with_the_spec(self, a, s):
        # The same on a corner plus far bits in the highest column, whose offset and data
        # bits come from block steps, in a row below A and in a row past it, read by a
        # jump.  The shared table caches are emptied once the spec is made, so a table
        # built on first use would show in the first call's misses and peak.
        rng = random.Random(181 * a + s)
        spec = SgSpec(primitive(a), primitive(s))
        key = random_key(rng, spec, s0=1)
        known, top = dict(submatrix_known(spec, key).items()), (1 << (s - 1)) - 1
        for n in (a - 1, a + 7):
            known[n << (s - 1) | top] = ic_identity_bit(spec, key, n << (s - 1) | top)
        attack_input = AttackInput(spec, KnownBits(known))
        _block_tables.cache_clear()
        gf2._jump_table.cache_clear()
        growth, misses = self.first_attack_growth(attack_input)
        assert misses == [0, 0] and growth <= self.PEAK_SLACK, (growth, misses)


COLUMN_STATE_SIZES = [(5, 4), (8, 3), (12, 7), (21, 8), (31, 5)]


def data_states(spec, key, count):
    """c_0 .. c_{count-1} and the selector's 1-positions o_0 .. o_{S-1}, by the list oracles."""
    a, s = spec.a_length, spec.s_length
    data = oracles.lfsr_run(oracles.mask_to_list(spec.pa.mask), key.sra_state.bits, count + a)
    sel = oracles.lfsr_run(oracles.mask_to_list(spec.ps.mask), key.srs_state.bits, 1 << s)
    states = [oracles.list_to_mask(data[o:o + a]) for o in range(count)]
    return states, oracles.one_positions(sel)[:s]


class TestColumnState:
    @pytest.mark.parametrize("a,s", COLUMN_STATE_SIZES)
    def test_each_column_solves_to_its_clocked_data_state(self, a, s):
        # _corner packs column j's A cells into one int, which _solve turns into c_{o_j}
        spec = make_spec(a, s)
        cols = 1 << (s - 1)
        rng = random.Random(173 * a + s)
        for _ in range(6):
            key = random_key(rng, spec)
            known = dict(submatrix_known(spec, key).items())
            states, offsets = data_states(spec, key, 1 << s)
            columns, far = _corner(AttackInput(spec, KnownBits(known)))
            assert far == []
            for j in range(s):
                cells = [known[n * cols + j] for n in range(a)]
                assert columns[j] == sum(bit << n for n, bit in enumerate(cells))
                got = _solve(spec, columns[j])
                solution = oracles.list_to_mask(oracles.solve_unique(spec._rows, cells, a))
                assert got == states[offsets[j]] == solution, (key, j)

    @pytest.mark.parametrize("a,s", COLUMN_STATE_SIZES)
    def test_flipped_cell_fails_its_column(self, a, s):
        # Phase two solves column j once, so a flipped cell there leaves no candidate
        # offset matching, unless the flipped column's state happens to be the data
        # state at another candidate offset: those flips are counted, not asserted.
        spec = make_spec(a, s)
        cols = 1 << (s - 1)
        rng = random.Random(179 * a + s)
        checked = 0
        for _ in range(6):
            key = random_key(rng, spec, s0=1)
            known = dict(submatrix_known(spec, key).items())
            columns, _ = _corner(AttackInput(spec, KnownBits(known)))
            offsets = attack(AttackInput(spec, KnownBits(known))).offsets
            states = data_states(spec, key, 1 << s)[0]
            j = rng.randrange(1, len(offsets))
            last = offsets[j - 1] + s
            for n in range(a):
                flipped = {p: b ^ (p == n * cols + j) for p, b in known.items()}
                if _solve(spec, columns[j] ^ 1 << n) in states[offsets[j - 1] + 1:last + 1]:
                    continue
                checked += 1
                message = f"^srs-recovery: no offset candidate up to {last} matches column {j}$"
                with pytest.raises(InconsistentDataError, match=message):
                    attack(AttackInput(spec, KnownBits(flipped)))
        assert checked >= 5 * a


# sha256 of `digest_outcomes`, computed with the attack that matched phase two's candidate
# offsets row by row, so solving each column's state must reproduce its results exactly.
OUTCOME_DIGEST = "4b76f9ebdde56a31f10a56c8043ed6f23a93aa6bcd3c31f2247847d99fac2d42"
DIGEST_SIZES = [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 5), (8, 3), (8, 5), (12, 5), (12, 7),
                (21, 5), (21, 8)]


def digest_outcomes():
    """One outcome per seeded input, 25 inputs per size: the result text and comparisons
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
                assert result.work.column_bits_expanded == a * len(result.offsets)
                yield result.to_text() + f"work={result.work.comparisons}"


def test_outcome_digest():
    # pins to_text(), the comparisons and the exception classes over 300 inputs
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

    def test_result_memory_at_full_budget(self):
        # (10,3) with no known bits returns all 4,092 keys; at this call's peak bytes per
        # key, the 2^(BRUTE_FORCE_MAX_BITS - 1) keys the budget admits stay within 256 MiB
        spec = make_spec(10, 3)
        tracemalloc.start()
        try:
            keys = brute_force(AttackInput(spec, KnownBits({})))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(keys) == 1023 * 4
        assert peak / len(keys) * (1 << (BRUTE_FORCE_MAX_BITS - 1)) <= 256 << 20

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

    @pytest.mark.parametrize("a,s", [(12, 7), (21, 5), (21, 8), (31, 3)])
    def test_whole_corner_at_benchmark_sizes(self, a, s):
        # a whole corner has rank A under every selector state, so nothing is left to enumerate
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

    def test_row_zero_cells_cost_no_multiply(self, monkeypatch):
        # On a 50-bit (21,8) prefix every known bit sits in row 0, where R_0 = 1, so a cell
        # at offset o is x^o itself: the only multiplies left grow the table of x^o, one
        # per offset below 2^S - 1 (the parent multiplied R_0 * x^o too, about 1,700 per call).
        calls, mulmod = [], gf2._mulmod

        def counted(u, v, m):
            calls.append(v)
            return mulmod(u, v, m)

        monkeypatch.setattr(gf2, "_mulmod", counted)
        monkeypatch.setattr(importlib.import_module("shrinkgen.attack"), "_mulmod", counted)
        rng = random.Random(197)
        spec = make_spec(21, 8)
        for _ in range(4):
            key = random_key(rng, spec, s0=1)
            calls.clear()
            assert brute_force(AttackInput(spec, KnownBits.from_prefix(shrink(spec, key, 50)))) == [key]
            assert set(calls) == {2} and len(calls) <= (1 << 8) - 2, len(calls)

    @pytest.mark.parametrize("o,bit,bits", [(1, 1, 24), (3, 1, 25), (3, 0, 24)])
    def test_budget_error_names_the_first_consistent_state_over_it(self, o, bit, bits):
        # At (31,3), eight column-0 cells have rank 8.  One more cell in column 1, row
        # n = -o / 7 mod 2^31 - 1, reads data bit 0 under every selector state whose column 1
        # sits at offset o: 110 and 111 for o = 1, 100 for o = 3, the first in product order.
        # There it repeats cell (0, 0), rank 8 and 2 + 23 = 25 bits, or contradicts it when
        # its bit differs; every other state has rank 9 and 24 bits, so all four states but
        # the contradicted ones exceed the budget, and the error names the first of them.
        spec = make_spec(31, 3)
        period = (1 << 31) - 1
        known = {4 * n: 1 for n in range(8)}
        known[4 * (-o * mod_inverse(7, period) % period) + 1] = bit
        message = (f"(S - 1) + (A - rank) = {bits} key bits to enumerate exceed "
                   "the exhaustive-search budget (18)")
        with pytest.raises(UnsupportedSizeError) as raised:
            brute_force(AttackInput(spec, KnownBits(known)))
        assert str(raised.value) == message

    @pytest.mark.parametrize("a,s", [(5, 4), (8, 3)])
    def test_each_flipped_corner_cell_matches_exhaustive_search(self, a, s):
        # each one-cell corruption of a whole corner, key for key against the exhaustive search
        rng = random.Random(191 * a + s)
        spec = make_spec(a, s)
        for _ in range(2):
            known = dict(submatrix_known(spec, random_key(rng, spec)).items())
            for p in sorted(known):
                flipped = AttackInput(spec, KnownBits({q: b ^ (q == p) for q, b in known.items()}))
                assert brute_force(flipped) == oracle_keys(flipped), p

    @pytest.mark.parametrize("a,s", [(5, 4), (8, 3), (10, 3)])
    def test_seeded_root_matches_exhaustive_search(self, monkeypatch, a, s):
        # With column 0's top A cells known, the root is their table solve, of rank A, so
        # nothing is eliminated; whole corners and one-flip corners give the exhaustive
        # search's keys in its order.
        module = importlib.import_module("shrinkgen.attack")
        eliminated, eliminate = [], module._eliminate

        def counted(rows, pivots=None):
            eliminated.append(pivots)
            return eliminate(rows, pivots)

        monkeypatch.setattr(module, "_eliminate", counted)
        rng = random.Random(227 * a + s)
        spec = make_spec(a, s)
        for _ in range(2):
            known = dict(submatrix_known(spec, random_key(rng, spec)).items())
            whole = AttackInput(spec, KnownBits(known))
            assert brute_force(whole) == oracle_keys(whole)
            for p in rng.sample(sorted(known), 5):
                flipped = AttackInput(spec, KnownBits({q: b ^ (q == p) for q, b in known.items()}))
                assert brute_force(flipped) == oracle_keys(flipped), p
        assert eliminated == []

    def test_budget_counts_free_bits_after_solving(self):
        # nine column-0 cells at (31,3) have rank 9, leaving 2 selector bits plus 22 free data bits
        spec = make_spec(31, 3)
        known = submatrix_known(spec, random_key(random.Random(131), spec))
        column = KnownBits({p: b for p, b in known.items() if p % 4 == 0 and p < 4 * 9})
        with pytest.raises(UnsupportedSizeError, match=r"^\(S - 1\) \+ \(A - rank\) = 24 .*\(18\)$"):
            brute_force(AttackInput(spec, column))
