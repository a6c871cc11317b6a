"""Interleaved-configuration structure, and the interleaving that analyze reports."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import ic_source_index
from conftest import (
    INTERLEAVED_POLY,
    INTERLEAVED_SEQ,
    INTERLEAVED_SIZE,
    KAT_SUB_MATRIX,
    make_spec,
    random_key,
)
from shrinkgen import (
    BinaryPolynomial,
    BitSequence,
    InconsistentDataError,
    KnownBits,
    LfsrState,
    berlekamp_massey,
    build_ic,
    column_poly,
    lfsr_generate,
    shrink,
    shrunken_period,
    verify_shrunken_charpoly,
)
from shrinkgen.cli import run


def is_interleaved(seq, m, f: BinaryPolynomial) -> bool:
    """The oracle's check with f given as a package polynomial."""
    return oracles.is_interleaved(seq, m, oracles.mask_to_list(f.mask))


class TestKnownBits:
    def test_parse_file_format(self):
        text = "# intercepted\n0 1   # first bit\n1 0\n\n8 1\n"
        known = KnownBits.parse(text)
        assert dict(known.items()) == {0: 1, 1: 0, 8: 1}

    def test_parse_rejects_descending_positions(self):
        with pytest.raises(ValueError):
            KnownBits.parse("3 1\n2 0\n")

    def test_parse_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            KnownBits.parse("0 2\n")
        with pytest.raises(ValueError):
            KnownBits.parse("0\n")
        with pytest.raises(ValueError):
            KnownBits.parse("a 1\n")
        for line in ["1_0 1", "+3 1", "\u0665 1", "3 \u0661"]:  # ASCII digits only
            with pytest.raises(ValueError):
                KnownBits.parse(line + "\n")
        for line in ["9" * 5000 + " 1", "0 " + "9" * 5000]:  # past Python's int-string limit
            with pytest.raises(ValueError, match="^line 1: ") as exc:
                KnownBits.parse(line + "\n")
            assert "set_int_max_str_digits" not in str(exc.value)

    @given(st.text() | st.text(alphabet="0123456789 \n\t#-+_\u0665"))
    def test_parse_returns_known_bits_or_raises_value_error(self, text):
        try:
            known = KnownBits.parse(text)
        except ValueError:
            return
        positions = known.positions()
        assert list(positions) == sorted(set(positions))
        assert all(bit in (0, 1) for _, bit in known.items())

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            KnownBits([(3, 1), (3, 1)])

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            KnownBits({-1: 0})

    def test_from_prefix(self):
        known = KnownBits.from_prefix((1, 0, 1))
        assert dict(known.items()) == {0: 1, 1: 0, 2: 1}

    @pytest.mark.parametrize("a,s,n", [(5, 4, 0), (5, 4, 248), (12, 7, 5000)])
    def test_from_prefix_of_a_bit_sequence_matches_the_checked_path(self, a, s, n):
        # a BitSequence skips the per-item checks and the sort; a list of its bits takes them
        spec = make_spec(a, s)
        z = shrink(spec, random_key(random.Random(a + n), spec), n)
        fast, checked = KnownBits.from_prefix(z), KnownBits.from_prefix(list(z))
        assert fast == checked and hash(fast) == hash(checked)
        assert fast.positions() == tuple(range(n)) and list(fast.items()) == list(enumerate(z))


class TestBuildIc:
    def test_known_submatrix_placement(self, kat_known):
        ic = build_ic(kat_known, 5, 4)
        assert ic.rows == 31 and ic.cols == 8
        for n, row in enumerate(KAT_SUB_MATRIX):
            for j, ch in enumerate(row):
                assert ic.cell(n, j) == int(ch)
        assert len(ic) == 20
        assert ic.cell(0, 4) is None
        assert ic.cell(30, 7) is None

    def test_full_period_round_trip(self, kat_spec, kat_key, kat_keystream):
        ic = build_ic(KnownBits.from_prefix(kat_keystream), 5, 4)
        assert len(ic) == 248
        read_back = [ic.cell(n, j) for n in range(31) for j in range(8)]
        assert read_back == list(kat_keystream)

    def test_empty(self):
        assert len(build_ic(KnownBits({}), 5, 4)) == 0

    def test_out_of_range_position(self):
        with pytest.raises(ValueError):
            build_ic(KnownBits({248: 1}), 5, 4)

    def test_out_of_range_cell(self, kat_known):
        ic = build_ic(kat_known, 5, 4)
        for row, col in [(31, 0), (0, 8)]:
            with pytest.raises(ValueError, match="outside a 31x8 matrix"):
                ic.cell(row, col)

    def test_dump_format(self, kat_known):
        lines = list(build_ic(kat_known, 5, 4).lines())
        assert len(lines) == 31
        assert lines[0] == "1011...."
        assert lines[4] == "0001...."
        assert lines[30] == "........"

    def test_lines_are_built_as_read(self):
        # a matrix of 2^21 - 1 rows hands out its first rows without building the rest
        lines = build_ic(KnownBits({1: 1}), 21, 5).lines()
        assert next(lines) == ".1" + "." * 14
        assert next(lines) == "." * 16


class TestIcSourceIndex:
    def test_origin(self):
        assert ic_source_index(0, 0, (0,), 5, 4) == 0

    def test_known_rows(self):
        offsets = (0, 1, 3)
        assert ic_source_index(23, 0, offsets, 5, 4) == 4
        assert ic_source_index(29, 0, offsets, 5, 4) == 1

    def test_unknown_offset(self):
        with pytest.raises(IndexError):
            ic_source_index(0, 2, (0, 1), 5, 4)

    def test_range_checks(self):
        offsets = (0,)
        with pytest.raises(ValueError):
            ic_source_index(31, 0, offsets, 5, 4)
        with pytest.raises(ValueError):
            ic_source_index(0, 8, offsets, 5, 4)

    def test_consistency_with_ground_truth(self):
        # with the true offsets, every IC cell is the indexed data bit
        rng = random.Random(29)
        for a, s in [(5, 4), (5, 2), (7, 3)]:
            spec = make_spec(a, s)
            key = random_key(rng, spec, s0=1)
            t = shrunken_period(a, s)
            a_seq = lfsr_generate(spec.sra, key.sra_state, (1 << a) - 1)
            s_seq = lfsr_generate(spec.srs, key.srs_state, (1 << s) - 1)
            offsets = tuple(oracles.one_positions(list(s_seq)))
            assert len(offsets) == 1 << (s - 1)
            for pos, bit in enumerate(shrink(spec, key, t)):
                n, j = divmod(pos, 1 << (s - 1))
                assert bit == a_seq[ic_source_index(n, j, offsets, a, s)]

    def test_offsets_match_selector_ones(self):
        # o_j is the position of the (j+1)-th 1 in the selector sequence,
        # both for the ground truth and for what the attack recovers
        from shrinkgen import AttackInput, attack
        from conftest import submatrix_known

        rng = random.Random(37)
        spec = make_spec(5, 4)
        for _ in range(10):
            key = random_key(rng, spec, s0=1)
            s_seq = list(lfsr_generate(spec.srs, key.srs_state, 15))
            ones = oracles.one_positions(s_seq)
            assert ones[0] == 0
            assert len(ones) == 8
            result = attack(AttackInput(spec, submatrix_known(spec, key)))
            recovered = tuple(result.offsets)
            assert recovered == tuple(ones[: len(recovered)])


class TestColumnProperty:
    def test_full_columns_share_the_column_poly(self, kat_spec, kat_key, kat_keystream):
        ic = build_ic(KnownBits.from_prefix(kat_keystream), 5, 4)
        pd = column_poly(kat_spec)
        for j in range(8):
            col = [ic.cell(n, j) for n in range(31)]
            assert berlekamp_massey(col) == (5, pd)


class TestIsInterleaved:
    def test_known_interleaved_sequence(self):
        seq = BitSequence.parse(INTERLEAVED_SEQ)
        f = BinaryPolynomial.parse(INTERLEAVED_POLY)
        assert is_interleaved(seq, INTERLEAVED_SIZE, f)

    def test_single_bit_flip_breaks_it(self):
        f = BinaryPolynomial.parse(INTERLEAVED_POLY)
        for i in range(len(INTERLEAVED_SEQ)):
            bits = [int(ch) for ch in INTERLEAVED_SEQ]
            bits[i] ^= 1
            assert not is_interleaved(bits, INTERLEAVED_SIZE, f), f"flip at {i}"

    def test_size_one(self):
        spec = make_spec(4, 1)
        pn = lfsr_generate(spec.sra, LfsrState.parse("1011"), 30)
        assert is_interleaved(pn, 1, spec.pa)

    def test_short_input_is_vacuously_consistent(self):
        f = BinaryPolynomial.parse(INTERLEAVED_POLY)
        assert is_interleaved([1, 0, 1, 1], 4, f)

    def test_bad_arguments(self):
        f = BinaryPolynomial.parse(INTERLEAVED_POLY)
        with pytest.raises(ValueError):
            is_interleaved([1, 0], 0, f)
        with pytest.raises(ValueError):
            is_interleaved([1, 0], 2, BinaryPolynomial(1))


class TestShrunkenInterleavedCheck:
    """analyze prints interleaved=true once verify_shrunken_charpoly returns; the oracle agrees."""

    def assert_verified_prefix_is_interleaved(self, spec, key):
        a, s = spec.a_length, spec.s_length
        pd, _ = verify_shrunken_charpoly(spec, key)
        assert is_interleaved(shrink(spec, key, a << s), 1 << (s - 1), pd)

    def test_known_generator(self, kat_spec, kat_key):
        self.assert_verified_prefix_is_interleaved(kat_spec, kat_key)

    def test_random_keys(self):
        rng = random.Random(41)
        for a, s in [(5, 2), (5, 4), (7, 3)]:
            spec = make_spec(a, s)
            for _ in range(50):
                self.assert_verified_prefix_is_interleaved(spec, random_key(rng, spec))

    def test_reads_a_whole_recurrence_window_per_column(self, kat_spec, kat_key, monkeypatch, capsys):
        # the prefix is A * 2^S = 40 bits: 2A = 10 terms in each of the 8 columns,
        # so the last bit is the A-th recurrence step of column 7 and must be read
        def last_bit_flipped(spec, key, n):
            bits = list(shrink(spec, key, n))
            bits[-1] ^= 1
            return BitSequence(bits)

        monkeypatch.setattr("shrinkgen.generator.shrink", last_bit_flipped)
        with pytest.raises(InconsistentDataError):
            verify_shrunken_charpoly(kat_spec, kat_key)
        argv = ["analyze", "--pa", str(kat_spec.pa), "--ps", str(kat_spec.ps),
                "--sra", str(kat_key.sra_state), "--srs", str(kat_key.srs_state)]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_wrong_polynomial_fails_for_s_above_one(self, kat_spec, kat_key):
        z = shrink(kat_spec, kat_key, shrunken_period(5, 4))
        assert not is_interleaved(z, 8, kat_spec.pa)
