"""Workload definitions and their seeded inputs.

Every workload runs the same three operation kinds in one closed loop:
`attack` on genuine and corrupted corners, `brute_force` on genuine corners,
and one long `shrink` run.  The workloads differ in sizes and in how the
measured time is shared between the kinds.  The attack workloads carry a
small brute/shrink probe so that every end-to-end metric is defined on every
workload.

Inputs are made here, from the seed alone, with the independent reference in
`reference.py`; the package only ever sees the finished inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import keystream, poly_exponents

# One primitive polynomial per degree (standard tables).  Degrees 31 and 40
# serve only the cold primitivity samples of the traced run.
POLYS = {
    2: "x^2+x+1",
    3: "x^3+x+1",
    4: "x^4+x+1",
    5: "x^5+x^2+1",
    7: "x^7+x^3+1",
    8: "x^8+x^4+x^3+x^2+1",
    10: "x^10+x^3+1",
    12: "x^12+x^6+x^4+x+1",
    21: "x^21+x^2+1",
    31: "x^31+x^3+1",
    40: "x^40+x^5+x^4+x^3+1",
}

# Degrees whose cold primitivity test the traced run always samples.  With
# the factor cache warm they take about 0.5, 0.3 and 5 ms on a 2-core x86
# VM under Python 3.11; 2^31 - 1 is prime, so degree 31 is the cheapest.
PRIMITIVITY_DEGREES = (21, 31, 40)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    attack_sizes: tuple[tuple[int, int], ...]
    keys_per_size: int  # distinct keys per attack size; each gives a genuine and a corrupted input
    extra_known: int  # known bits beyond the corner, spread over the whole period
    brute_size: tuple[int, int]
    brute_keys: int
    shrink_size: tuple[int, int]
    shrink_bits: int
    shares: dict  # operation kind -> share of the measured time

    def specs(self) -> list[tuple[int, int]]:
        """Every (A, S) the workload constructs an SgSpec for."""
        return sorted({*self.attack_sizes, self.brute_size, self.shrink_size})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="attack-large",
            why="A=21 corners at S=5 and S=8, genuine and corrupted: extend_column builds the "
            "whole 2^21-bit column here, so jump-ahead column access must show its gain here",
            attack_sizes=((21, 5), (21, 8)),
            keys_per_size=4,
            extra_known=0,
            brute_size=(5, 4),
            brute_keys=4,
            shrink_size=(12, 7),
            shrink_bits=1 << 16,
            shares={"attack": 0.84, "brute": 0.08, "shrink": 0.08},
        ),
        Workload(
            name="attack-small",
            why="many genuine and corrupted corners at (5,4), (8,3) and (12,7): the column is tiny, "
            "so column_poly and the phase-two scan dominate and jump-ahead is bypassed",
            attack_sizes=((5, 4), (8, 3), (12, 7)),
            keys_per_size=64,
            extra_known=0,
            brute_size=(5, 4),
            brute_keys=4,
            shrink_size=(12, 7),
            shrink_bits=1 << 16,
            shares={"attack": 0.84, "brute": 0.08, "shrink": 0.08},
        ),
        Workload(
            name="keystream",
            why="(12,7) corners plus 32 known bits across the whole period, brute_force at (10,3) "
            "and a long shrink run: the generator layer that random-access regeneration targets",
            attack_sizes=((12, 7),),
            keys_per_size=8,
            extra_known=32,
            brute_size=(10, 3),
            brute_keys=8,
            shrink_size=(12, 7),
            shrink_bits=1 << 17,
            shares={"attack": 0.5, "brute": 0.25, "shrink": 0.25},
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """One generated input with the true key it was made from."""

    size: tuple[int, int]
    sra: tuple[int, ...]
    srs: tuple[int, ...]
    known: dict  # keystream position -> bit
    corrupted: bool


@dataclass(frozen=True)
class ShrinkCase:
    size: tuple[int, int]
    sra: tuple[int, ...]
    srs: tuple[int, ...]
    expected: tuple[int, ...]


@dataclass(frozen=True)
class Inputs:
    attacks: list  # genuine and corrupted Cases, interleaved in the order the loop runs them
    brutes: list
    shrink: ShrinkCase


def exponents(size: tuple[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, s = size
    return poly_exponents(POLYS[a]), poly_exponents(POLYS[s])


def _random_key(rng: random.Random, a: int, s: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A random canonical key: nonzero data state, selector state starting with 1."""
    while True:
        sra = tuple(rng.randint(0, 1) for _ in range(a))
        if any(sra):
            return sra, (1,) + tuple(rng.randint(0, 1) for _ in range(s - 1))


def _corner_positions(a: int, s: int) -> list[int]:
    cols = 1 << (s - 1)
    return [n * cols + j for n in range(a) for j in range(s)]


def _extra_positions(rng: random.Random, a: int, s: int, count: int) -> list[int]:
    """`count` positions spread over the period after the corner.

    One position falls in each of count - 1 equal slices, and the last is the
    period's final bit, so every seed pays the same regeneration length.
    """
    if not count:
        return []
    period = ((1 << a) - 1) << (s - 1)
    start = (a - 1) * (1 << (s - 1)) + s
    width = (period - 1 - start) // (count - 1) if count > 1 else 0
    return [start + k * width + rng.randrange(width) for k in range(count - 1)] + [period - 1]


def _cases(rng: random.Random, size: tuple[int, int], keys: int, extra: int) -> list[Case]:
    a, s = size
    pa, ps = exponents(size)
    out = []
    for _ in range(keys):
        sra, srs = _random_key(rng, a, s)
        positions = _corner_positions(a, s)
        far = _extra_positions(rng, a, s, extra)
        z = keystream(pa, ps, sra, srs, (far or positions)[-1] + 1)
        known = {p: z[p] for p in positions + far}
        flip = rng.choice(far or positions)
        corrupted = dict(known)
        corrupted[flip] ^= 1
        out.append(Case(size, sra, srs, known, False))
        out.append(Case(size, sra, srs, corrupted, True))
    return out


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """All inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(seed)
    per_size = [_cases(rng, size, workload.keys_per_size, workload.extra_known)
                for size in workload.attack_sizes]
    # Round-robin over sizes so that any prefix of the loop holds each size equally.
    attacks = [case for group in zip(*per_size) for case in group]
    brutes = [c for c in _cases(rng, workload.brute_size, workload.brute_keys, 0) if not c.corrupted]
    a, s = workload.shrink_size
    sra, srs = _random_key(rng, a, s)
    pa, ps = exponents(workload.shrink_size)
    expected = tuple(keystream(pa, ps, sra, srs, workload.shrink_bits))
    return Inputs(attacks, brutes, ShrinkCase(workload.shrink_size, sra, srs, expected))
