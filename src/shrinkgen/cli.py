"""Command-line surface: generate keystream, inspect the IC, run attacks.

Exit codes: 0 success, 1 malformed input (bad polynomial, non-primitive,
gcd/size violations), 2 inconsistent or insufficient intercepted data.
Results go to standard out, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .attack import AttackInput, attack, brute_force
from .errors import InsufficientInputError, InterceptedDataError
from .generator import (
    SgSpec,
    ShrinkingKey,
    _check_lengths,
    _keystream,
    lc_bounds,
    shrunken_period,
    verify_shrunken_charpoly,
)
from .gf2 import BinaryPolynomial, coset_min_poly
from .interleaved import KnownBits, build_ic
from .lfsr import BitSequence, LfsrState, _bit_text

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_spec_flags(p):
    p.add_argument("--pa", required=True, metavar="POLY",
                   help="data register (SRA) characteristic polynomial")
    p.add_argument("--ps", required=True, metavar="POLY",
                   help="selector register (SRS) characteristic polynomial")


def _add_key_flags(p):
    p.add_argument("--sra", required=True, metavar="BITS",
                   help="SRA initial state, index 0 first")
    p.add_argument("--srs", required=True, metavar="BITS",
                   help="SRS initial state, index 0 first")


def _add_intercept_flags(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--known", metavar="FILE",
                   help="known-bits file: '<position> <bit>' per line")
    g.add_argument("--keystream", metavar="FILE",
                   help="file holding a contiguous keystream prefix as a 0/1 string")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="shrinkgen",
        description="Shrinking-generator toolkit: simulate the keystream and "
                    "recover register states from intercepted bits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="print keystream bits")
    _add_spec_flags(gen)
    _add_key_flags(gen)
    gen.add_argument("--n", required=True, type=int, help="number of keystream bits")

    atk = sub.add_parser("attack", help="recover both register states from intercepted bits")
    _add_spec_flags(atk)
    _add_intercept_flags(atk)

    bru = sub.add_parser("brute", help="every canonical key consistent with the intercepted bits, "
                                       "by guessing the selector and solving for the data register")
    _add_spec_flags(bru)
    _add_intercept_flags(bru)

    ana = sub.add_parser("analyze", help="period, linear complexity and interleaving report")
    _add_spec_flags(ana)
    _add_key_flags(ana)

    cos = sub.add_parser("coset", help="print the column polynomial P_D")
    cos.add_argument("--pa", required=True, metavar="POLY",
                     help="data register characteristic polynomial")
    cos.add_argument("--s", required=True, type=int, help="selector register length S")

    icp = sub.add_parser("ic", help="dump the interleaved configuration matrix")
    _add_spec_flags(icp)
    _add_intercept_flags(icp)

    return parser


def _spec_from(args) -> SgSpec:
    return SgSpec(BinaryPolynomial.parse(args.pa), BinaryPolynomial.parse(args.ps))


def _key_from(args) -> ShrinkingKey:
    return ShrinkingKey(LfsrState.parse(args.sra), LfsrState.parse(args.srs))


def _read_file(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def _known_from(args, spec: SgSpec, submatrix_only: bool) -> KnownBits:
    if args.known is not None:
        return KnownBits.parse(_read_file(args.known))
    bits = BitSequence.parse(_read_file(args.keystream))
    if not submatrix_only:
        return KnownBits.from_prefix(bits)
    a, s = spec.a_length, spec.s_length
    cols = 1 << (s - 1)
    required = (a - 1) * cols + s
    if len(bits) < required:
        raise InsufficientInputError(
            f"keystream prefix holds {len(bits)} bits; "
            f"the top-left {a}x{s} cells need {required}"
        )
    return KnownBits(
        {n * cols + j: bits[n * cols + j] for n in range(a) for j in range(s)}
    )


def _cmd_gen(args) -> None:
    for chunk in _keystream(_spec_from(args), _key_from(args), args.n):
        print(_bit_text(chunk), end="")
        del chunk  # no chunk outlives its print
    print()


def _cmd_attack(args) -> None:
    spec = _spec_from(args)
    result = attack(AttackInput(spec, _known_from(args, spec, submatrix_only=True)))
    print(result.to_text(), end="")


def _cmd_brute(args) -> None:
    spec = _spec_from(args)
    for key in brute_force(AttackInput(spec, _known_from(args, spec, submatrix_only=True))):
        print(f"sra_state={key.sra_state} srs_state={key.srs_state}")


def _cmd_analyze(args) -> None:
    spec = _spec_from(args)
    key = _key_from(args)
    a, s = spec.a_length, spec.s_length
    pd, p = verify_shrunken_charpoly(spec, key)
    low, high = lc_bounds(a, s)
    lines = [
        f"period={shrunken_period(a, s)}",
        f"lc={pd.degree * p}",
        f"lc_low_exclusive={low}",
        f"lc_high_inclusive={high}",
    ]
    if s == 1:
        lines.append("note=S=1: fractional lower bound floored to A/2")
    lines += [
        f"pd={pd}",
        f"p={p}",
        # P_D^p regenerates the prefix and divides P_D(x^(2^(S-1))), so each IC column obeys P_D.
        "interleaved=true",
    ]
    print("\n".join(lines))


def _cmd_coset(args) -> None:
    pa = BinaryPolynomial.parse(args.pa)
    if pa.degree is None or pa.degree < 1:
        raise ValueError("data polynomial must have degree >= 1")
    _check_lengths(pa.degree, args.s)
    print(coset_min_poly((1 << args.s) - 1, pa))


def _cmd_ic(args) -> None:
    spec = _spec_from(args)
    known = _known_from(args, spec, submatrix_only=False)
    for line in build_ic(known, spec.a_length, spec.s_length).lines():
        print(line)


_HANDLERS = {
    "gen": _cmd_gen,
    "attack": _cmd_attack,
    "brute": _cmd_brute,
    "analyze": _cmd_analyze,
    "coset": _cmd_coset,
    "ic": _cmd_ic,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        _HANDLERS[args.verb](args)
    except InterceptedDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())
