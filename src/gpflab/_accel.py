"""Hot kernels, in numpy.

Every walk of the smallest-prime-factor table over many integers goes
through ``_peel``, which strips the smallest prime power from a whole block
of integers per round, so its Python loop runs about as many times as an
integer has prime factors, never once per integer.
"""

from __future__ import annotations

from math import comb

import numpy as np

# integers peeled at once; also the block of the wide-gpf strip and the
# largest chunk of the smooth-count frontier.  A round's temporaries then
# stay near 128 KiB each, small enough for the holes that freed arrays leave
# in the heap: with 2**16 the factor-tables benchmark peaked 6 MiB higher,
# from fragmentation
_BLOCK = 1 << 14


def backend() -> str:
    """Name of the kernel backend: always 'numpy'."""
    return "numpy"


# ---------------------------------------------------------------------------
# smallest-prime-factor sieve fill


def spf_fill(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, np.int32)
    if limit >= 1:
        spf[1] = 1
    for i in range(2, int(limit**0.5) + 2):
        if i * i > limit:
            break
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    unmarked = np.flatnonzero(spf[2:] == 0) + 2
    spf[unmarked] = unmarked.astype(np.int32)
    return spf


# ---------------------------------------------------------------------------
# the peel: one walk of the spf table over a block of integers


def _peel(spf: np.ndarray, values: np.ndarray):
    """Factor ``values`` (each below ``spf.size``) by smallest primes.

    Each round yields ``(idx, p, e)`` for the entries still above 1: their
    positions in ``values``, their smallest prime p and its exponent e.  The
    round strips p**e, so the primes of an entry come in ascending order.
    """
    rem = np.asarray(values, dtype=np.int64)
    idx = np.flatnonzero(rem > 1)
    rem = rem[idx]
    while idx.size:
        p = spf[rem].astype(np.int64)
        e = np.ones_like(p)
        rem //= p
        k = np.flatnonzero(spf[rem] == p)
        while k.size:
            rem[k] //= p[k]
            e[k] += 1
            k = k[spf[rem[k]] == p[k]]
        yield idx, p, e
        more = rem > 1
        idx, rem = idx[more], rem[more]


def _peel_range(spf: np.ndarray, hi: int):
    """``_peel`` over 0..hi in blocks of ``_BLOCK``; idx is the integer itself."""
    for lo in range(0, hi + 1, _BLOCK):
        for idx, p, e in _peel(spf, np.arange(lo, min(lo + _BLOCK, hi + 1))):
            yield idx + lo, p, e


def roundtrip_first_bad(spf: np.ndarray, hi: int) -> int:
    """First n in [2, hi] whose factorization does not multiply back, else 0."""
    prod = np.ones(hi + 1, dtype=np.int64)
    for idx, p, e in _peel_range(spf, hi):
        prod[idx] *= p**e
    bad = np.flatnonzero(prod[2:] != np.arange(2, hi + 1))
    return int(bad[0] + 2) if bad.size else 0


def gpf_batch(values: np.ndarray, spf: np.ndarray) -> np.ndarray:
    """Greatest prime factor of each value the spf table covers (1 below 2);
    -1 marks each value beyond the table, for the caller to resolve."""
    out = np.full(values.size, -1, dtype=np.int64)
    small = np.flatnonzero(values < spf.size)
    g = np.ones(small.size, dtype=np.int64)
    for idx, p, _ in _peel(spf, values[small]):
        g[idx] = p  # the last prime peeled is the largest
    out[small] = g
    return out


def theta_count_scan(x: int, u: int, v: int, spf: np.ndarray) -> int:
    """Count of 1 <= n <= x whose u-smooth part is at least v."""
    smooth = np.ones(x + 1, dtype=np.int64)
    for idx, p, e in _peel_range(spf, x):
        keep = p <= u
        smooth[idx[keep]] *= p[keep] ** e[keep]
    return int(np.count_nonzero(smooth[1:] >= v))


def tau_table(spf: np.ndarray, ell: int, z) -> np.ndarray:
    """tau_ell of the z-rough part of n (the product of its p^e with p >= z)
    for 0 <= n < spf.size, as int64; index 0 holds 0.

    tau_ell is multiplicative with tau_ell(p^e) = C(e+ell-1, ell-1), and
    tau_0 is the indicator of 1.
    """
    e_max = max(1, spf.size.bit_length())  # p^e < spf.size needs e < this
    lut = np.array([comb(e + ell - 1, ell - 1) if ell else int(e == 0)
                    for e in range(e_max)], dtype=np.int64)
    out = np.ones(spf.size, dtype=np.int64)
    out[0] = 0
    for idx, p, e in _peel_range(spf, spf.size - 1):
        out[idx] *= np.where(p >= z, lut[e], 1)
    return out


# ---------------------------------------------------------------------------
# segmented composite marking for primes in (lo, hi]


def segment_mark(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean mask over (lo, hi]: True where composite (given base primes)."""
    length = hi - lo
    comp = np.zeros(length, np.bool_)
    for p in base_primes:
        p = int(p)
        if p * p > hi:
            break
        start = max(p * p, (lo // p + 1) * p)
        if start > hi:
            continue
        comp[start - lo - 1 :: p] = True
    return comp


# ---------------------------------------------------------------------------
# compensated cumulative sum (prefix tables of log-weights)


def compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """Prefix sums accumulated in extended precision, rounded to float64."""
    return np.cumsum(a.astype(np.longdouble)).astype(np.float64)


# ---------------------------------------------------------------------------
# per-modulus maximal discrepancy scan over prime counting functions


def bv_max_scan(res: np.ndarray, q: int) -> float:
    """max over y and residues a coprime to q of |pi(y;q,a) - pi(y)/phi(q)|,
    from ``res``, the residues mod q of the primes up to x in order.  A class
    count steps up with the prime index k while t = (k+1)/phi grows, so the
    deviation peaks at a step (rank - t[k]), just before one (t[k-1] - rank
    + 1) or after the last prime; a difference negates exactly."""
    if not res.size:
        return 0.0
    coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    phi = int(np.count_nonzero(coprime))
    res = res.astype(np.uint8 if q <= 1 << 8 else np.uint16 if q <= 1 << 16 else np.int64)
    tt = np.arange(res.size + 1, dtype=np.float64) / phi  # tt[k + 1] = t[k]
    cnt = np.bincount(res, minlength=q)
    start = np.cumsum(cnt) - cnt
    order = np.argsort(res, kind="stable")  # radix sort: each class in prime order
    rank = np.arange(1, res.size + 1) - np.repeat(start, cnt)
    at = rank - tt[1:][order]
    before = tt[:-1][order] - (rank - 1)
    # a class not coprime to q holds at most one prime, one dividing q
    skip = start[~coprime & (cnt > 0)]
    at[skip] = before[skip] = 0.0
    return max(0.0, float(at.max()), float(before.max()),
               float(tt[-1] - cnt[coprime].min()))


# ---------------------------------------------------------------------------
# divisor scatter: accumulate weights onto moduli dividing (value - shift)


def divisor_scatter(wlog: np.ndarray, a: int, q_lo: int, q_hi: int) -> np.ndarray:
    """For every s >= 2, s != a, add wlog[s] to each modulus q in [q_lo, q_hi)
    dividing |s - a|, in ascending s; returns the sums by q - q_lo.  Each q
    sums its progression s = a (mod q) left to right as a zero-padded row of
    a gather, in blocks of about 2**14 entries; |a| must fit in int64."""
    q = np.arange(q_lo, q_hi, dtype=np.int64)
    r = np.int64(a) % q
    out = np.zeros(q.size, dtype=np.float64)
    i, budget = 0, 1 << 14
    while i < q.size:
        L = (wlog.size - 1) // int(q[i]) + 1  # no later row is longer
        rows = slice(i, i + max(1, budget // L))
        for c0 in range(0, L, budget):
            s = r[rows, None] + q[rows, None] * np.arange(c0, min(L, c0 + budget))
            keep = (s >= 2) & (s < wlog.size) & (s != a)
            vals = np.where(keep, wlog[np.minimum(s, wlog.size - 1)], 0.0)
            out[rows] = np.cumsum(np.hstack([out[rows, None], vals]), axis=1)[:, -1]
        i = rows.stop
    return out


# ---------------------------------------------------------------------------
# distinct products a*b dedup count (strided marking)


def product_mark_count(n: int) -> int:
    """Number of distinct values a*b with 1 <= a, b <= n."""
    marked = np.zeros(n * n + 1, np.bool_)
    for a in range(1, n + 1):
        marked[a * a : a * n + 1 : a] = True
    return int(np.count_nonzero(marked))


# ---------------------------------------------------------------------------
# smooth-number count via an ascending prime DFS, a chunk of nodes at a time


def _isqrt(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) for int64 m < 2^53: the correctly rounded float sqrt
    of such an m floors to isqrt(m) or one above it."""
    r = np.sqrt(m).astype(np.int64)
    return r - (r * r > m)


def smooth_dfs_count(x: int, y_int: int, primes: np.ndarray, pi_table: np.ndarray) -> int:
    """Count of n <= x all of whose prime factors are <= y_int.

    ``primes`` must list the primes up to y_int and ``pi_table[t]`` the
    count of primes <= t for t in [0, y_int]; x must be below 2^53.

    A node (m, i) stands for the n = d * n' with d the product of the primes
    taken so far, whose remaining primes have index >= i and multiply to at
    most m.  It counts n' = 1 and each single prime p_j with j >= i and
    sqrt(m) < p_j <= min(m, y), and has a child (m // p_j, j) for each
    j >= i with p_j^2 <= m.  The frontier advances a chunk of at most ``_BLOCK`` child
    nodes at a time, depth first over a stack of chunks whose nodes still
    have children to expand.
    """
    total = 0
    stack = []

    def visit(m, i):
        nonlocal total
        hi = pi_table[np.minimum(_isqrt(m), y_int)]  # children j < hi
        top = pi_table[np.minimum(m, y_int)]
        total += m.size + int(np.maximum(0, top - np.maximum(i, hi)).sum())
        more = hi > i
        if more.any():
            stack.append((m[more], i[more], hi[more]))

    visit(np.array([x], dtype=np.int64), np.zeros(1, dtype=np.int64))
    while stack:
        m, i, hi = stack.pop()
        n_child = hi - i
        end = np.cumsum(n_child)
        # the leading nodes whose children fit one chunk (always at least one)
        take = max(1, int(np.searchsorted(end, _BLOCK, side="right")))
        if take < m.size:
            stack.append((m[take:], i[take:], hi[take:]))
        parent = np.repeat(np.arange(take), n_child[:take])
        # child k of a node is j = i + k, its k-th prime index
        j = np.arange(parent.size) + (i[:take] + n_child[:take] - end[:take])[parent]
        visit(m[parent] // primes[j], j)
    return total
