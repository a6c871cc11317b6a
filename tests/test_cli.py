"""Command-line behavior: verbs, exit codes, round trips, determinism."""

import io
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from shrinkgen import KnownBits, LfsrState, ShrinkingKey, shrink, shrunken_period
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
        # one known bit leaves 4 selector bits plus 20 free data bits, over the budget of 23
        path = tmp_path / "one.txt"
        path.write_text("0 1\n")
        code, out, err = invoke(capsys, "brute", "--pa", PRIMITIVE_POLYS[21], "--ps", PRIMITIVE_POLYS[5],
                                "--known", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("(23)\n")


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

    def test_degenerate_selector_is_flagged(self, capsys):
        code, out, _ = invoke(
            capsys, "analyze", "--pa", PRIMITIVE_POLYS[4], "--ps", PRIMITIVE_POLYS[1],
            "--sra", "1011", "--srs", "1",
        )
        assert code == 0
        assert "note=S=1" in out
        assert "p=1\n" in out


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


class TestReadmeExamples:
    def test_shown_output_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        examples = readme_examples()
        assert [argv[0] for argv, _, shown in examples if shown is not None] == [
            "gen", "coset", "attack",
        ]
        for argv, target, shown in examples:
            code, out, err = invoke(capsys, *argv)
            assert (code, err) == (0, ""), argv
            if target:
                (tmp_path / target).write_text(out)
            if shown is not None:
                assert out == shown, argv


class TestUsage:
    def test_unknown_verb(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1
        assert "error:" in err

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
