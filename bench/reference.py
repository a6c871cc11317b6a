"""Independent reference for the benchmark's inputs and correctness gate.

Runs each register's recurrence on a plain list and applies the shrink rule
clock by clock.  It shares no code with the package, so a wrong result of
the package cannot also be the expected one.
"""

from __future__ import annotations


def poly_exponents(text: str) -> tuple[int, ...]:
    """Exponents of a polynomial written as 'x^5+x^2+1', highest first."""
    exps = []
    for term in text.split("+"):
        exps.append(int(term[2:]) if term.startswith("x^") else 1 if term == "x" else 0)
    return tuple(sorted(exps, reverse=True))


def lfsr_bits(exps: tuple[int, ...], state: tuple[int, ...], n: int) -> list[int]:
    """First n terms of a[k+L] = sum of a[k+i] over the exponents i < L."""
    length = exps[0]
    taps = [e for e in exps if e < length]
    seq = list(state)
    for k in range(n - length):
        seq.append(sum(seq[k + i] for i in taps) & 1)
    return seq[:n]


def keystream(pa, ps, sra, srs, n: int) -> list[int]:
    """First n keystream bits: data bit t is kept wherever selector bit t is 1."""
    data_period, sel_period = (1 << pa[0]) - 1, (1 << ps[0]) - 1
    sel = lfsr_bits(ps, srs, sel_period)
    clocks = -(-n // sum(sel)) * sel_period
    data = lfsr_bits(pa, sra, min(clocks, data_period))
    return [data[t % data_period] for t in range(clocks) if sel[t % sel_period]][:n]


def attack_ok(case, pa, ps, key) -> bool:
    """Gate for a key, as (sra, srs) bit tuples, that `attack` returned.

    For a genuine corner it must be exactly the seeded key; for a corrupted
    one it must regenerate every known bit.
    """
    if not case.corrupted:
        return key == (case.sra, case.srs)
    sra, srs = key
    z = keystream(pa, ps, sra, srs, max(case.known) + 1)
    return all(z[p] == bit for p, bit in case.known.items())
