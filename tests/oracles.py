"""Independent reference implementations used to cross-check the package.

Everything here works on plain Python coefficient lists so that no
production code path is reused: polynomial arithmetic is schoolbook,
LFSRs run their recurrence by direct list indexing, orders are found by
iterated multiplication, and periods by scanning divisors.
"""

from functools import lru_cache
from itertools import product


def mask_to_list(mask):
    """Coefficient list (index k = coefficient of x^k) for an integer mask."""
    out = []
    while mask:
        out.append(mask & 1)
        mask >>= 1
    return out


def list_to_mask(coeffs):
    mask = 0
    for k, c in enumerate(coeffs):
        if c & 1:
            mask |= 1 << k
    return mask


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(a, b):
    """Schoolbook product of two coefficient lists over GF(2)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] ^= bj
    return _trim(out)


def poly_divmod(a, b):
    """Long division of coefficient lists; returns (quotient, remainder)."""
    assert b, "division by zero polynomial"
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 1)
    while len(_trim(a)) >= len(b):
        shift = len(a) - len(b)
        q[shift] = 1
        for i, bi in enumerate(b):
            a[shift + i] ^= bi
    return _trim(q), _trim(a)


def poly_mulmod(a, b, m):
    return poly_divmod(poly_mul(a, b), m)[1]


def order_of_x(p):
    """Multiplicative order of x modulo p, by iterated multiply-and-reduce."""
    deg = len(p) - 1
    acc = poly_divmod([0, 1], p)[1]
    k = 1
    limit = (1 << deg) - 1
    while acc != [1]:
        acc = poly_divmod([0] + acc, p)[1]
        k += 1
        if k > limit:
            return None  # x is not invertible modulo p
    return k


def is_irreducible(p):
    """Trial division by every polynomial of degree 1 .. deg/2."""
    deg = len(p) - 1
    if deg < 1:
        return False
    for mask in range(2, 1 << (deg // 2 + 1)):
        d = mask_to_list(mask)
        if len(d) - 1 >= 1 and not poly_divmod(p, d)[1]:
            return False
    return True


def lfsr_run(charpoly, state, n):
    """Run a[k+L] = sum c_i a[k+i] by direct indexing; charpoly index k = c_k."""
    length = len(charpoly) - 1
    assert charpoly[length] == 1 and len(state) == length
    seq = list(state)
    for k in range(n - length):
        seq.append(sum(charpoly[i] * seq[k + i] for i in range(length)) % 2)
    return seq[:n]


def lfsr_min_period(charpoly, state):
    """Steps until the register window first returns to the initial state."""
    length = len(charpoly) - 1
    seq = list(state)
    t = 0
    while True:
        seq.append(sum(charpoly[i] * seq[t + i] for i in range(length)) % 2)
        t += 1
        if seq[t:t + length] == list(state):
            return t


def exact_period(bits, t):
    """Minimal period of the periodic extension of `bits`, given period t.

    Checks that t really is a period of the supplied window, then returns the
    smallest divisor of t that also works (the minimal period of a periodic
    sequence divides every period).
    """
    assert len(bits) >= t
    assert all(bits[i] == bits[i - t] for i in range(t, len(bits)))
    for d in sorted(k for k in range(1, t + 1) if t % k == 0):
        if all(bits[i] == bits[i % d] for i in range(t)):
            return d
    raise AssertionError("unreachable: t divides t")


def solve_scaled_congruence(ratio, target, mod):
    """Smallest n with n * ratio = target (mod mod), by exhaustive scan."""
    for n in range(mod):
        if n * ratio % mod == target:
            return n
    return None


def one_positions(bits):
    """Positions of the 1 bits, in order."""
    return [i for i, b in enumerate(bits) if b]


@lru_cache(maxsize=None)
def _one_period_each(charpoly):
    """Every nonzero register state, ascending, with one period of its output sequence."""
    runs = []
    for state in product((0, 1), repeat=len(charpoly) - 1):
        if any(state):
            period = lfsr_min_period(list(charpoly), list(state))
            runs.append((state, lfsr_run(list(charpoly), list(state), period)))
    return runs


def exhaustive_keys(pa, ps, known):
    """Every canonical key whose keystream has the bits in `known`, by exhaustive search.

    pa and ps are the characteristic polynomials as coefficient lists and
    `known` maps keystream position to bit.  Candidates are the nonzero data
    states and the selector states starting with 1.  Each register's output
    is one period from `lfsr_run`, its length from `lfsr_min_period`, and
    keystream bit k is the data bit at the clock of the selector's (k+1)-th
    1.  Returns the matching (data state, selector state) bit tuples in
    ascending order.
    """
    clocks = {}  # selector state -> clock of each known keystream bit
    for srs, seq in _one_period_each(tuple(ps)):
        if srs[0]:
            ones = one_positions(seq)
            clocks[srs] = {pos: pos // len(ones) * len(seq) + ones[pos % len(ones)] for pos in known}
    keys = []
    for sra, data in _one_period_each(tuple(pa)):
        for srs, clock in clocks.items():
            if all(data[clock[pos] % len(data)] == bit for pos, bit in known.items()):
                keys.append((sra, srs))
    return keys


def first_disagreement(pa, ps, sra, srs, known):
    """Lowest position in `known` whose bit the key's keystream does not have, or None.

    A per-cell walk: pa and ps are coefficient lists, sra and srs the state
    bits, `known` maps keystream position to bit.  Each known bit, in
    ascending position, is compared with the data bit at the clock of the
    selector's (k+1)-th 1, both registers run by `lfsr_run`.
    """
    selector = lfsr_run(list(ps), list(srs), lfsr_min_period(list(ps), list(srs)))
    ones = one_positions(selector)
    clock = {pos: pos // len(ones) * len(selector) + ones[pos % len(ones)] for pos in known}
    data = lfsr_run(list(pa), list(sra), max(clock.values(), default=0) + 1)
    return next((pos for pos in sorted(known) if data[clock[pos]] != known[pos]), None)


def solve_unique(masks, bits, n):
    """The one n-bit solution c of parity(masks[i] & c) = bits[i], as a bit list, or None.

    Row reduction on coefficient lists (index k = coefficient of c_k): None
    when the equations contradict each other or leave a free variable.
    """
    rows = [(mask_to_list(mask) + [0] * n)[:n] + [bit] for mask, bit in zip(masks, bits)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [x ^ y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    if any(row[n] for row in rows[n:]):
        return None
    return [rows[k][n] for k in range(n)]


def ic_source_index(n, j, offsets, a, s):
    """Index into the data sequence feeding IC cell (n, j): (n * (2^S - 1) + o_j) mod (2^A - 1).

    `offsets` lists o_0, o_1, ...; a column past the end of it raises IndexError.
    """
    rows, cols = 2**a - 1, 2 ** (s - 1)
    if not (0 <= n < rows and 0 <= j < cols):
        raise ValueError(f"cell ({n}, {j}) outside a {rows}x{cols} matrix")
    return (n * (2**s - 1) + offsets[j]) % rows


def is_interleaved(seq, m, f):
    """True iff every stride-m subsequence of seq satisfies the recurrence of coefficient list f.

    Window i of a subsequence sub passes when sum(f[k] * sub[i + k]) is even.
    Short inputs that never expose a full window pass vacuously.
    """
    if m < 1:
        raise ValueError("size m must be >= 1")
    f = _trim(list(f))
    if len(f) < 2:
        raise ValueError("recurrence polynomial must have degree >= 1")
    terms = one_positions(f)
    bits = list(seq)
    for j in range(m):
        sub = bits[j::m]
        for i in range(len(sub) - len(f) + 1):
            if sum(sub[i + k] for k in terms) % 2:
                return False
    return True
