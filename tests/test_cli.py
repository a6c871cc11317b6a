"""Command-line behavior: verbs, exit codes, round trips, determinism."""

import hashlib
import io
import random
import shlex
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from math import gcd
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    KAT_PA,
    KAT_PS,
    KAT_SRA,
    KAT_SRS,
    PRIMITIVE_POLYS,
    make_spec,
    random_key,
    submatrix_known,
)
from shrinkgen import (
    PARSE_DEGREE_CAP,
    AttackInput,
    BinaryPolynomial,
    KnownBits,
    LfsrState,
    ShrinkingKey,
    attack,
    build_ic,
    shrink,
    shrunken_period,
)
from shrinkgen import generator
from shrinkgen.cli import run


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """[argv, redirect target, shown stdout] for the README commands that
    write a file or show their output on '# ->' lines."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("shrinkgen "):
            command, _, target = line.partition(" > ")
            examples.append([shlex.split(command)[1:], target.strip() or None, None])
        elif line.startswith("# -> "):
            examples[-1][2] = line[len("# -> "):] + "\n"
        elif line.startswith("#    ") and examples and examples[-1][2] is not None:
            examples[-1][2] += line[len("#    "):] + "\n"
    return [e for e in examples if e[1] or e[2] is not None]


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def known_file(tmp_path, kat_spec, kat_key):
    z = shrink(kat_spec, kat_key, 36)
    lines = ["# intercepted keystream bits"]
    lines += [f"{8 * n + j} {z[8 * n + j]}" for n in range(5) for j in range(4)]
    path = tmp_path / "known.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def keystream_file(tmp_path, kat_spec, kat_key):
    path = tmp_path / "keystream.txt"
    path.write_text(str(shrink(kat_spec, kat_key, 40)) + "\n")
    return str(path)


class TestGen:
    def test_prints_keystream(self, capsys):
        code, out, err = invoke(
            capsys, "gen", "--pa", KAT_PA, "--ps", KAT_PS,
            "--sra", KAT_SRA, "--srs", KAT_SRS, "--n", "8",
        )
        assert (code, err) == (0, "")
        assert out == "10111100\n"

    def test_rejects_bad_state(self, capsys):
        code, _, err = invoke(
            capsys, "gen", "--pa", KAT_PA, "--ps", KAT_PS,
            "--sra", "00000", "--srs", KAT_SRS, "--n", "8",
        )
        assert code == 1
        assert "error:" in err

    def test_negative_n_exits_1(self, capsys):
        code, out, err = invoke(
            capsys, "gen", "--pa", KAT_PA, "--ps", KAT_PS,
            "--sra", KAT_SRA, "--srs", KAT_SRS, "--n", "-1",
        )
        assert (code, out, err) == (1, "", "error: n must be >= 0\n")

    @pytest.mark.parametrize("n", [0, 1, 65535, 65536, 65537, 200000] + [
        pytest.param(rows * 64 + d, id=f"{name}{d:+d}")
        for name, rows in (("row", 1), ("chunk", generator._CHUNK // 64),
                           ("chunk2", 2 * generator._CHUNK // 64), ("chunk3", 3 * generator._CHUNK // 64))
        for d in (-1, 0, 1)
    ])
    def test_chunked_output_is_the_keystream(self, capsys, n):
        # gen writes one text per chunk of IC rows, 1024 rows of 64 bits here; their seams,
        # and a cut inside the first row, must not show
        spec = make_spec(12, 7)
        key = ShrinkingKey(LfsrState.parse("100110111010"), LfsrState.parse("1011001"))
        code, out, err = invoke(
            capsys, "gen", "--pa", str(spec.pa), "--ps", str(spec.ps),
            "--sra", str(key.sra_state), "--srs", str(key.srs_state), "--n", str(n),
        )
        assert (code, err) == (0, "")
        assert out == "".join("01"[b] for b in shrink(spec, key, n)) + "\n"

    def test_output_digest_is_pinned(self, capsys):
        # sha256 of the stdout of a bit-by-bit register walk (commit 3011586), to catch any
        # change in the keystream bytes; the key is test_chunked_output_is_the_keystream's
        spec = make_spec(12, 7)
        code, out, err = invoke(
            capsys, "gen", "--pa", str(spec.pa), "--ps", str(spec.ps),
            "--sra", "100110111010", "--srs", "1011001", "--n", "200003",
        )
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "be82ccc7ae5859a3fac26779925c60ccae7b77453e693f70145b58ab2992dc2d"

    def test_wide_register_output_digest_is_pinned(self, capsys):
        # sha256 of the stdout at commit 8732fae, before shrink kept one block pair at a time;
        # a three-byte data register with a one-byte selector
        code, out, err = invoke(
            capsys, "gen", "--pa", "x^21+x^2+1", "--ps", "x^8+x^4+x^3+x^2+1",
            "--sra", "101100111000111101001", "--srs", "10110011", "--n", "200003",
        )
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "ebaf7ffc729f84697ad8dee53e01130df7fba9f76bd23e8469650415d97325ce"

    def test_all_kept_output_digest_is_pinned(self, capsys):
        # sha256 of the stdout at commit 18f9cb4, before shrink decimated batches of block
        # pairs: at S = 1 the selector is all ones, so every data bit is kept
        code, out, err = invoke(
            capsys, "gen", "--pa", "x^12+x^6+x^4+x+1", "--ps", "x+1",
            "--sra", "100110111010", "--srs", "1", "--n", "200003",
        )
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "10955edcfb4d11ae96998bfe70d8d125c5571f7c4b6d2ee19e8a867f84f2164d"

    def test_many_column_output_digest_is_pinned(self, capsys):
        # sha256 of the stdout at commit 585b0b2, before shrink generated whole IC rows:
        # 1024 columns, and a selector state starting with 0, so column 0 is data bit 1
        code, out, err = invoke(
            capsys, "gen", "--pa", "x^31+x^3+1", "--ps", "x^11+x^2+1",
            "--sra", "1011001110001111010011010111001", "--srs", "01100111010", "--n", "200003",
        )
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "724e4eedb6b4d8dba0c629a742f1f6f44e1d063e95228335744b0229a13b906d"

    def test_peak_memory_does_not_grow_with_n(self):
        class Discard:
            def write(self, text):
                return len(text)

        def peak(n):
            argv = ["gen", "--pa", KAT_PA, "--ps", KAT_PS, "--sra", KAT_SRA, "--srs", KAT_SRS,
                    "--n", str(n)]
            tracemalloc.start()
            try:
                with redirect_stdout(Discard()):
                    assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # builds the registers' block tables once, outside both measurements
        assert peak(4 << 16) <= 1.1 * peak(1 << 16)

    @pytest.mark.parametrize("a,s", [(21, 13), (31, 20)])
    def test_peak_memory_does_not_grow_with_n_at_wide_rows(self, a, s):
        # rows of 4,096 bits still fill IC columns, rows of 2^19 bits are decimated; neither
        # holds a row, a period of offsets or n bits at once
        class Discard:
            def write(self, text):
                return len(text)

        def peak(n):
            argv = ["gen", "--pa", PRIMITIVE_POLYS[a], "--ps", PRIMITIVE_POLYS[s],
                    "--sra", "1" * a, "--srs", "0" + "1" * (s - 1), "--n", str(n)]
            tracemalloc.start()
            try:
                with redirect_stdout(Discard()):
                    assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # builds the registers' block tables once, outside both measurements
        assert peak(4 << 16) <= 1.1 * peak(1 << 16)


class TestAttackVerb:
    def test_known_file(self, capsys, known_file):
        code, out, _ = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", known_file)
        assert code == 0
        assert "sra_state=10011\n" in out
        assert "srs_state=1101\n" in out

    def test_keystream_file(self, capsys, keystream_file):
        code, out, _ = invoke(
            capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--keystream", keystream_file
        )
        assert code == 0
        assert out == (
            "sra_state=10011\n"
            "srs_state=1101\n"
            "offsets=0,1,3\n"
            "pd=x^5+x^3+x^2+x+1\n"
            "comparisons=3\n"
        )

    def test_short_keystream_exits_2(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1011110\n")
        code, _, err = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--keystream", str(path))
        assert code == 2
        assert "error:" in err

    def test_corrupted_known_exits_2(self, capsys, tmp_path, kat_spec, kat_key):
        z = list(shrink(kat_spec, kat_key, 36))
        z[1] ^= 1  # break column 1 so no offset matches
        lines = [f"{8 * n + j} {z[8 * n + j]}" for n in range(5) for j in range(4)]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", str(path))
        assert code == 2
        assert "srs-recovery" in err

    def test_known_bit_past_one_period(self, capsys, tmp_path, known_file, kat_spec, kat_key):
        # the keystream has period 248, so position 537 is the key's bit 41 again
        far = shrink(kat_spec, kat_key, 538)[537]
        path = tmp_path / "far.txt"
        path.write_text(Path(known_file).read_text() + f"537 {far}\n")
        code, out, _ = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", str(path))
        assert (code, out.splitlines()[:2]) == (0, ["sra_state=10011", "srs_state=1101"])
        path.write_text(Path(known_file).read_text() + f"537 {far ^ 1}\n")
        code, _, err = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", str(path))
        assert (code, err) == (2, "error: regeneration-check: recovered key disagrees "
                                  "with the known bit at position 537\n")
        # `ic` dumps one period, so it still refuses the position
        code, _, err = invoke(capsys, "ic", "--pa", KAT_PA, "--ps", KAT_PS, "--known", str(path))
        assert code == 1
        assert "beyond one keystream period" in err

    def test_equal_register_lengths_exit_1(self, capsys, known_file):
        code, _, err = invoke(capsys, "attack", "--pa", KAT_PS, "--ps", KAT_PS, "--known", known_file)
        assert code == 1
        assert "error:" in err

    def test_bad_polynomial_exit_1(self, capsys, known_file):
        code, _, _ = invoke(capsys, "attack", "--pa", "x^5+x^4+x^3", "--ps", KAT_PS, "--known", known_file)
        assert code == 1

    def test_missing_file_exit_1(self, capsys):
        code, _, _ = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", "/nonexistent")
        assert code == 1

    def test_byte_deterministic(self, capsys, known_file):
        _, first, _ = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", known_file)
        _, second, _ = invoke(capsys, "attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", known_file)
        assert first == second

    @pytest.mark.parametrize("a,s", [(5, 4), (12, 7), (21, 8)])
    def test_far_bits_in_every_column_named_as_a_walk_names_them(self, capsys, tmp_path, a, s):
        # One far bit in each column j < 2^(S-1), in rows up to 3A, and 0-3 flips mixed
        # across the far cells and the corner cells the final check reads (columns past
        # phase two's): with no flip the key comes back, and otherwise exit 2 names the
        # lowest flipped position, the one a per-cell walk of both registers names too.
        rng = random.Random(229 * a + s)
        spec, cols, path = make_spec(a, s), 1 << (s - 1), tmp_path / "known.txt"
        pa, ps = (oracles.mask_to_list(p.mask) for p in (spec.pa, spec.ps))
        for flips in (0, 1, 2, 3, 1, 2, 3):
            key = random_key(rng, spec, s0=1)
            corner = dict(submatrix_known(spec, key).items())
            checked = len(attack(AttackInput(spec, KnownBits(corner))).offsets)
            far = [rng.randrange(a if j < s else 0, 3 * a) * cols + j for j in range(cols)]
            z = shrink(spec, key, max(far) + 1)
            known = {**corner, **{p: z[p] for p in far}}
            flipped = rng.sample(far + [p for p in corner if p % cols >= checked], flips)
            for p in flipped:
                known[p] ^= 1
            path.write_text("".join(f"{p} {known[p]}\n" for p in sorted(known)))
            code, out, err = invoke(capsys, "attack", "--pa", str(spec.pa), "--ps", str(spec.ps),
                                    "--known", str(path))
            walk = oracles.first_disagreement(pa, ps, key.sra_state.bits, key.srs_state.bits, known)
            assert walk == min(flipped, default=None)
            if not flipped:
                assert (code, out.splitlines()[:2], err) == (
                    0, [f"sra_state={key.sra_state}", f"srs_state={key.srs_state}"], "")
            else:
                assert (code, err) == (2, "error: regeneration-check: recovered key disagrees "
                                          f"with the known bit at position {walk}\n")


@lru_cache(maxsize=None)
def period_keystream(a, s, sra, srs):
    """One keystream period of the size-(a, s) generator under the key given as bit strings."""
    key = ShrinkingKey(LfsrState.parse(sra), LfsrState.parse(srs))
    return shrink(make_spec(a, s), key, shrunken_period(a, s))


FUZZ_RNG = random.Random(113)
FUZZ_KEYS = {size: [random_key(FUZZ_RNG, make_spec(*size), s0=s0) for s0 in (1, 1, 0)]
             for size in [(5, 3), (12, 7)]}

JUNK_LINES = st.one_of(
    st.binary(max_size=12),
    st.sampled_from([b"", b"# note", b"7", b"1 1 1", b"x 1", b"3 2", b"-1 0", b"0x1f 1", b"\xff"]),
    st.builds(lambda p, b: f"{p} {b}".encode(), st.integers(-3, 1 << 19), st.integers(-1, 2)),
)


@st.composite
def known_files(draw):
    """A known-bits file: the corner with maybe a cell dropped, far bits anywhere in the
    period, maybe a bit or two flipped, and maybe malformed lines inserted anywhere."""
    size = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    key = draw(st.sampled_from(FUZZ_KEYS[size]))
    z = period_keystream(*size, str(key.sra_state), str(key.srs_state))
    a, s = size
    cols = 1 << (s - 1)
    corner = sorted(n * cols + j for n in range(a) for j in range(s))
    dropped = draw(st.sets(st.sampled_from(corner), max_size=1)) if draw(st.booleans()) else set()
    far = draw(st.sets(st.integers(0, len(z) - 1), max_size=6))
    positions = sorted(set(corner) - dropped | far)
    flipped = draw(st.sets(st.sampled_from(positions), max_size=2)) if draw(st.booleans()) else set()
    if far and draw(st.booleans()):
        flipped.add(draw(st.sampled_from(sorted(far))))
    lines = [f"{p} {z[p] ^ (p in flipped)}".encode() for p in positions]
    if draw(st.booleans()):
        for at, junk in draw(st.lists(st.tuples(st.integers(0, len(lines)), JUNK_LINES), max_size=3)):
            lines.insert(at, junk)
    return size, b"\n".join(lines) + b"\n"


class TestAttackKnownFileFuzz:
    @settings(max_examples=80, deadline=None)
    @given(case=known_files())
    def test_exit_code_contract(self, tmp_path_factory, case):
        # exit 0 prints a key that regenerates every known bit; 1 and 2 print one stderr line
        (a, s), data = case
        path = tmp_path_factory.getbasetemp() / "fuzz-known.txt"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["attack", "--pa", PRIMITIVE_POLYS[a], "--ps", PRIMITIVE_POLYS[s],
                        "--known", str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert len(err.splitlines()) == 1
        else:
            assert err == ""
            fields = dict(line.split("=", 1) for line in out.splitlines())
            z = period_keystream(a, s, fields["sra_state"], fields["srs_state"])
            known = KnownBits.parse(path.read_text(encoding="ascii"))
            assert all(z[p] == bit for p, bit in known.items())


class TestBruteVerb:
    def test_single_key(self, capsys, known_file):
        code, out, _ = invoke(capsys, "brute", "--pa", KAT_PA, "--ps", KAT_PS, "--known", known_file)
        assert code == 0
        assert out == "sra_state=10011 srs_state=1101\n"

    def test_whole_corner_at_a_21(self, capsys, tmp_path):
        spec = make_spec(21, 5)
        key = random_key(random.Random(137), spec, s0=1)
        path = tmp_path / "corner.txt"
        path.write_text("".join(f"{p} {b}\n" for p, b in submatrix_known(spec, key).items()))
        code, out, err = invoke(capsys, "brute", "--pa", PRIMITIVE_POLYS[21], "--ps", PRIMITIVE_POLYS[5],
                                "--known", str(path))
        assert (code, err) == (0, "")
        assert out == f"sra_state={key.sra_state} srs_state={key.srs_state}\n"

    def test_over_budget_exits_1(self, capsys, tmp_path):
        # one known bit leaves 4 selector bits plus 20 free data bits, over the budget of 18
        path = tmp_path / "one.txt"
        path.write_text("0 1\n")
        code, out, err = invoke(capsys, "brute", "--pa", PRIMITIVE_POLYS[21], "--ps", PRIMITIVE_POLYS[5],
                                "--known", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("(18)\n")


class TestAnalyzeVerb:
    def test_report(self, capsys):
        code, out, _ = invoke(
            capsys, "analyze", "--pa", KAT_PA, "--ps", KAT_PS, "--sra", KAT_SRA, "--srs", KAT_SRS
        )
        assert code == 0
        assert out == (
            "period=248\n"
            "lc=40\n"
            "lc_low_exclusive=20\n"
            "lc_high_inclusive=40\n"
            "pd=x^5+x^3+x^2+x+1\n"
            "p=8\n"
            "interleaved=true\n"
        )

    @pytest.mark.parametrize("a, s, sra, srs", [
        (5, 4, KAT_SRA, KAT_SRS), (2, 1, "10", "1"), (21, 8, "101001110111101001000", "01001111"),
    ], ids=["5-4", "2-1", "21-8"])
    def test_shrinks_once(self, capsys, monkeypatch, a, s, sra, srs):
        # interleaved=true follows from the verified P_D^p, so no second pass over the prefix
        calls = []
        for name in ("shrink", "_keystream"):  # _keystream also counts a shrink imported elsewhere
            real = getattr(generator, name)
            monkeypatch.setattr(generator, name,
                                lambda *args, name=name, real=real: calls.append(name) or real(*args))
        code, out, err = invoke(capsys, "analyze", "--pa", PRIMITIVE_POLYS[a], "--ps", PRIMITIVE_POLYS[s],
                                "--sra", sra, "--srs", srs)
        assert (code, err) == (0, "") and out.endswith("interleaved=true\n")
        assert calls == ["shrink", "_keystream"]

    def test_degenerate_selector_is_flagged(self, capsys):
        code, out, _ = invoke(
            capsys, "analyze", "--pa", PRIMITIVE_POLYS[4], "--ps", PRIMITIVE_POLYS[1],
            "--sra", "1011", "--srs", "1",
        )
        assert code == 0
        assert "note=S=1" in out
        assert "p=1\n" in out

    @pytest.mark.parametrize("sra", ["01", "10", "11"])
    def test_period_shorter_than_twice_the_linear_complexity(self, capsys, sra):
        # at (2,1) one period is 3 bits, fewer than the 2 * LC = 4 that pin the LFSR
        code, out, err = invoke(
            capsys, "analyze", "--pa", PRIMITIVE_POLYS[2], "--ps", PRIMITIVE_POLYS[1],
            "--sra", sra, "--srs", "1",
        )
        assert (code, err) == (0, "")
        assert "lc=2\n" in out and "p=1\n" in out and "interleaved=true\n" in out

    @pytest.mark.parametrize("a, s, sra, srs, report", [
        (21, 5, "010110010001110000110", "00110", (
            "period=33554416", "lc=336", "lc_low_exclusive=168", "lc_high_inclusive=336",
            "pd=x^21+x^17+x^11+x^9+x^5+x^3+x^2+x+1", "p=16",
        )),
        (21, 8, "101001110111101001000", "01001111", (
            "period=268435328", "lc=2688", "lc_low_exclusive=1344", "lc_high_inclusive=2688",
            "pd=x^21+x^20+x^18+x^17+x^16+x^14+x^13+x^11+x^7+x^6+1", "p=128",
        )),
        (31, 5, "1101000111101111110101010000111", "10011", (
            "period=34359738352", "lc=496", "lc_low_exclusive=248", "lc_high_inclusive=496",
            "pd=x^31+x^30+x^29+x^28+x^27+x^26+x^25+x^24+x^23+x^22+x^21+x^20+x^19+x^18+x^17"
            "+x^16+x^15+x^14+x^13+x^12+x^11+x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^2+x+1",
            "p=16",
        )),
    ], ids=["21-5", "21-8", "31-5"])
    def test_sizes_beyond_a_whole_period(self, capsys, a, s, sra, srs, report):
        # a whole period is 2^25 bits and more here; analyze reads only A * 2^S of them
        start = perf_counter()
        code, out, err = invoke(
            capsys, "analyze", "--pa", PRIMITIVE_POLYS[a], "--ps", PRIMITIVE_POLYS[s],
            "--sra", sra, "--srs", srs,
        )
        elapsed = perf_counter() - start
        assert (code, err) == (0, "")
        assert out == "\n".join(report + ("interleaved=true",)) + "\n"
        assert elapsed < 1.0, f"analyze took {elapsed:.3f} s"


class TestCosetVerb:
    def test_known_value(self, capsys):
        code, out, _ = invoke(capsys, "coset", "--pa", KAT_PA, "--s", "4")
        assert (code, out) == (0, "x^5+x^3+x^2+x+1\n")

    def test_bad_s(self, capsys):
        code, _, _ = invoke(capsys, "coset", "--pa", KAT_PA, "--s", "0")
        assert code == 1

    @pytest.mark.parametrize("pa, s, reason", [
        (PRIMITIVE_POLYS[6], "3", "coprime"),
        (PRIMITIVE_POLYS[6], "6", "smaller than data length"),
        ("0", "3", "degree"),
        ("1", "3", "degree"),
    ])
    def test_rejected_lengths_exit_1(self, capsys, pa, s, reason):
        code, out, err = invoke(capsys, "coset", "--pa", pa, "--s", s)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert reason in err


class TestIcVerb:
    def test_dump(self, capsys, known_file):
        code, out, _ = invoke(capsys, "ic", "--pa", KAT_PA, "--ps", KAT_PS, "--known", known_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 31
        assert lines[0] == "1011...."
        assert lines[4] == "0001...."
        assert all(set(line) <= {"0", "1", "."} for line in lines)

    def test_full_keystream(self, capsys, tmp_path, kat_spec, kat_key):
        path = tmp_path / "full.txt"
        path.write_text(str(shrink(kat_spec, kat_key, 248)))
        code, out, _ = invoke(capsys, "ic", "--pa", KAT_PA, "--ps", KAT_PS, "--keystream", str(path))
        assert code == 0
        assert "." not in out.strip()

    def test_streamed_rows_match_the_whole_matrix_at_the_kat_size(self, capsys, known_file):
        code, out, err = invoke(capsys, "ic", "--pa", KAT_PA, "--ps", KAT_PS, "--known", known_file)
        known = KnownBits.parse(Path(known_file).read_text())
        assert (code, err) == (0, "")
        assert out == whole_matrix_dump(known, 5, 4) == "\n".join(build_ic(known, 5, 4).lines()) + "\n"

    def test_streamed_rows_match_the_whole_matrix_at_8_3(self, capsys, tmp_path):
        spec = make_spec(8, 3)
        z = shrink(spec, random_key(random.Random(167), spec), 700)
        path = tmp_path / "ks.txt"
        path.write_text(f"{z}\n")
        code, out, err = invoke(capsys, "ic", "--pa", PRIMITIVE_POLYS[8], "--ps", PRIMITIVE_POLYS[3],
                                "--keystream", str(path))
        known = KnownBits.from_prefix(z)
        assert (code, err) == (0, "")
        assert out == whole_matrix_dump(known, 8, 3) == "\n".join(build_ic(known, 8, 3).lines()) + "\n"
        assert len(out.splitlines()) == 255


def whole_matrix_dump(known: KnownBits, a: int, s: int) -> str:
    """The IC as one string built cell by cell, the way `ic` printed it before it streamed rows."""
    cols, cells = 1 << (s - 1), dict(known.items())
    return "\n".join("".join(str(cells.get(n * cols + j, ".")) for j in range(cols))
                     for n in range((1 << a) - 1)) + "\n"


def at_most_degree_12(text: str) -> bool:
    """False for text that parses to a polynomial of degree > 12; malformed text passes."""
    try:
        return (BinaryPolynomial.parse(text).degree or 0) <= 12
    except ValueError:
        return True


# Polynomials of degree <= 8 (primitive or not) or any text; states, counts and files any text.
# A count or a selector length is never drawn as digits past its range, so no verb is asked for
# a huge output: `gen --n` stays <= 512.  Free text may draw a polynomial literal from the
# loaded modules, such as x^31+x^3+1, whose 2^31-row IC `ic` and `analyze` would walk, so it
# keeps no polynomial of degree > 12.
FUZZ_POLYS = st.sampled_from(
    [PRIMITIVE_POLYS[d] for d in range(1, 9)] + ["x^4+x^3+x^2+x+1", "x^6+x^3+1", "x^2+1", "x", "1", "0"]
) | st.text(max_size=12).filter(at_most_degree_12)
FUZZ_SPECS = st.sampled_from([(PRIMITIVE_POLYS[a], PRIMITIVE_POLYS[s])
                              for a in range(2, 9) for s in range(1, a) if gcd(a, s) == 1]
                             ) | st.tuples(FUZZ_POLYS, FUZZ_POLYS)
FUZZ_STATES = st.text(alphabet="01", max_size=10) | st.text(max_size=10)
NO_DIGITS = st.text(alphabet=st.characters(blacklist_categories=("Nd",)), max_size=6)
FUZZ_FILES = (
    st.text(max_size=200).map(str.encode)
    | st.text(alphabet="01\n ", max_size=600).map(str.encode)
    | st.lists(st.tuples(st.integers(0, 10**15), st.integers(0, 2)), max_size=12).map(
        lambda pairs: "".join(f"{p} {b}\n" for p, b in pairs).encode())
    | st.binary(max_size=64)
)


def fuzz_state(draw, poly):
    """A state as long as poly's degree, when poly parses to degree <= 10, or any state."""
    try:
        n = BinaryPolynomial.parse(poly).degree or 0
    except ValueError:
        n = 0
    exact = st.text(alphabet="01", min_size=n, max_size=n) if n <= 10 else st.nothing()
    return draw(exact | FUZZ_STATES)


@st.composite
def verb_argvs(draw, verb):
    """(argv, file flag, file contents) for one verb; the flag is None for a verb that reads no
    file, and the contents are None for a file that does not exist."""
    if verb == "coset":
        s = draw(st.integers(-2, 10).map(str) | NO_DIGITS)
        return [verb, "--pa", draw(FUZZ_POLYS), "--s", s], None, None
    pa, ps = draw(FUZZ_SPECS)
    argv = [verb, "--pa", pa, "--ps", ps]
    if verb in ("gen", "analyze"):
        argv += ["--sra", fuzz_state(draw, argv[2]), "--srs", fuzz_state(draw, argv[4])]
        if verb == "gen":
            argv += ["--n", draw(st.integers(-8, 512).map(str) | NO_DIGITS)]
        return argv, None, None
    return argv, draw(st.sampled_from(["--known", "--keystream"])), draw(FUZZ_FILES | st.none())


class TestArgvFuzz:
    @pytest.mark.parametrize("verb", ["gen", "attack", "brute", "analyze", "coset", "ic"])
    @settings(max_examples=100, deadline=None)
    @given(case=st.data())
    def test_exit_code_contract(self, tmp_path_factory, verb, case):
        # every verb returns 0, 1 or 2 without a traceback; a failure prints one stderr line only
        argv, flag, data = case.draw(verb_argvs(verb))
        if flag is not None:
            path = tmp_path_factory.getbasetemp() / f"fuzz-{verb}.txt"
            path.unlink(missing_ok=True)
            if data is not None:
                path.write_bytes(data)
            argv += [flag, str(path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestReadmeExamples:
    def test_shown_output_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        examples = readme_examples()
        assert [argv[0] for argv, _, shown in examples if shown is not None] == [
            "gen", "coset", "attack", "brute", "analyze",
        ]
        for argv, target, shown in examples:
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, ""), argv
            if target:
                (tmp_path / target).write_text(out)
            if shown is not None:
                assert out == shown, argv

    def test_library_block_runs(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})


class TestUsage:
    def test_unknown_verb(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("verb, flags", [
        ("coset", ["--s", "2"]),
        ("gen", ["--ps", KAT_PS, "--sra", KAT_SRA, "--srs", KAT_SRS, "--n", "8"]),
    ], ids=["coset", "gen"])
    def test_huge_exponent_exits_1(self, capsys, verb, flags):
        code, out, err = invoke(capsys, verb, "--pa", "x^100000000000000000000+1", *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exponent_past_the_degree_cap_exits_1(self, capsys):
        term = f"x^{PARSE_DEGREE_CAP + 1}"
        code, out, err = invoke(capsys, "coset", "--pa", f"{term}+1", "--s", "2")
        assert (code, out) == (1, "")
        assert err == f"error: exponent of term '{term}' exceeds the degree cap {PARSE_DEGREE_CAP}\n"

    @settings(max_examples=200, deadline=None)
    @given(text=st.text() | st.text(alphabet="x^+0123456789abcdefX -"), s=st.integers(0, 4))
    def test_coset_exit_code_contract(self, text, s):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(["coset", "--pa", text, "--s", str(s)])
        assert code in (0, 1, 2)
        if code:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1

    def test_number_past_the_int_string_limit_exits_1(self, capsys, tmp_path):
        # Python refuses to convert decimal strings of more than 4,300 digits to int
        nines = "9" * 5000
        path = tmp_path / "huge.txt"
        path.write_text(f"{nines} 1\n")
        for argv in (["coset", "--pa", f"x^{nines}+1", "--s", "2"],
                     ["attack", "--pa", KAT_PA, "--ps", KAT_PS, "--known", str(path)]):
            code, out, err = invoke(capsys, *argv)
            assert (code, out) == (1, ""), argv[0]
            assert err.startswith("error:") and err.count("\n") == 1
            assert "set_int_max_str_digits" not in err

    def test_missing_flags(self, capsys):
        code, _, err = invoke(capsys, "attack", "--pa", KAT_PA)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0


class TestRoundTrip:
    def test_gen_feeds_attack(self, capsys, tmp_path):
        rng = random.Random(83)
        for a, s in [(5, 4), (7, 3), (5, 2), (4, 1)]:
            spec = make_spec(a, s)
            key = random_key(rng, spec, s0=1)
            cols = 1 << (s - 1)
            n = (a - 1) * cols + s
            code, out, _ = invoke(
                capsys, "gen",
                "--pa", PRIMITIVE_POLYS[a], "--ps", PRIMITIVE_POLYS[s],
                "--sra", str(key.sra_state), "--srs", str(key.srs_state), "--n", str(n),
            )
            assert code == 0
            path = tmp_path / f"ks_{a}_{s}.txt"
            path.write_text(out)
            code, out, _ = invoke(
                capsys, "attack",
                "--pa", PRIMITIVE_POLYS[a], "--ps", PRIMITIVE_POLYS[s], "--keystream", str(path),
            )
            assert code == 0
            assert f"sra_state={key.sra_state}\n" in out
            assert f"srs_state={key.srs_state}\n" in out
