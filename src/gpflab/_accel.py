"""Hot kernels, in numpy.

The primes come from a byte sieve, the smallest-prime-factor table is struck
from them.  Ranges are struck, value batches are peeled.  ``_strike``
divides each prime power out of a range of integers with one strided slice,
so its Python loop runs once per prime power (tau tables, theta counts, mu
and phi of the moduli); ``_peel`` strips the smallest prime power from a
block of values per round, so its loop runs about as many times as a value
has prime factors.  Neither loops once per integer.
"""

from __future__ import annotations

from math import comb, isqrt

import numpy as np

# integers peeled at once; also the block of the wide-gpf strip, the
# largest chunk of the smooth-count frontier and the entries of one
# divisor_scatter gather.  A round's temporaries then stay near 128 KiB
# each, small enough for the holes that freed arrays leave in the heap: with
# 2**16 the factor-tables benchmark peaked 6 MiB higher, from fragmentation
_BLOCK = 1 << 14


def backend() -> str:
    """Name of the kernel backend: always 'numpy'."""
    return "numpy"


# ---------------------------------------------------------------------------
# the prime sieve, and the smallest-prime-factor table struck from its primes


def prime_fill(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, from a byte sieve of Eratosthenes."""
    comp = np.zeros(limit + 1, np.bool_)
    comp[:2] = True
    for i in range(2, isqrt(limit) + 1):
        if not comp[i]:
            comp[i * i :: i] = True
    return np.flatnonzero(~comp)


def spf_fill(limit: int) -> np.ndarray:
    """Smallest prime factor of each n <= limit (n itself below 2): each prime
    p <= isqrt(limit), largest first, writes p from p*p on; the smallest wins."""
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in prime_fill(isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    return spf


# ---------------------------------------------------------------------------
# the two walks: the peel of a batch of values by their smallest primes, and
# the strike of the prime powers over a range


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


def roundtrip_first_bad(spf: np.ndarray, hi: int) -> int:
    """First n in [2, hi] whose factorization does not multiply back, else 0."""
    prod = np.ones(hi + 1, dtype=np.int64)
    for lo in range(0, hi + 1, _BLOCK):
        for idx, p, e in _peel(spf, np.arange(lo, min(lo + _BLOCK, hi + 1))):
            prod[idx + lo] *= p**e
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


def _strike(rem: np.ndarray, lo: int, primes: np.ndarray):
    """Divide out of ``rem``, the integers lo..hi, each power p^k <= hi of the
    primes p <= isqrt(hi) in ``primes``, in place; yield (p, k, s) once p is
    divided out of s, the slice of the multiples of p^k.  With every such
    prime given, a remainder is 1 or a prime above isqrt(hi) (0 stays 0)."""
    hi = lo + rem.size - 1
    ps = primes[:np.searchsorted(primes, isqrt(hi), side="right")]
    for p in ps[-lo % ps < rem.size].tolist():  # the primes with a multiple here
        pk, k = p, 1
        while pk <= hi and -lo % pk < rem.size:  # p^k's multiples are p^(k-1)'s
            s = slice(-lo % pk, None, pk)
            rem[s] //= p
            yield p, k, s
            pk, k = pk * p, k + 1


def theta_count_scan(x: int, u: int, v: int, primes: np.ndarray) -> int:
    """Count of 1 <= n <= x < 2^31 whose u-smooth part is at least v;
    ``primes`` holds every prime <= min(u, isqrt(x))."""
    n = np.arange(1, x + 1, dtype=np.int32)
    rem = n.copy()
    for _ in _strike(rem, 1, primes[:np.searchsorted(primes, u, side="right")]):
        pass
    if u >= isqrt(x):  # a prime remainder <= u is smooth too
        rem[rem <= u] = 1
    return int(np.count_nonzero(np.floor_divide(n, rem, out=rem) >= v))


def tau_table(primes: np.ndarray, lo: int, hi: int, ell: int, z) -> np.ndarray:
    """tau_ell of the z-rough part of n (the product of its p^e with p >= z)
    for lo <= n <= hi, as int64, and 0 at n = 0; ``primes`` holds every prime
    <= isqrt(hi).  tau_ell(p^e) = C(e+ell-1, ell-1) and tau_0 is the indicator
    of 1, so the strike of p^k moves a factor from lut[k - 1] to lut[k]."""
    lut = [comb(e + ell - 1, ell - 1) if ell else int(e == 0)
           for e in range(max(2, hi.bit_length()))]  # p^e <= hi needs e < this
    out = np.ones(hi - lo + 1, dtype=np.int64)
    rem = np.arange(lo, hi + 1, dtype=np.int32 if hi < 1 << 31 else np.int64)
    for p, k, s in _strike(rem, lo, primes):
        if p >= z and lut[k] != lut[k - 1]:
            t = out[s]  # a view
            if k > 1:
                t //= lut[k - 1]
            t *= lut[k]
    out[rem >= max(z, 2)] *= lut[1]  # one prime above isqrt(hi)
    if lo == 0:
        out[0] = 0
    return out


# ---------------------------------------------------------------------------
# segmented composite marking for primes in (lo, hi]


def segment_mark(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean mask over (lo, hi]: True where composite (given base primes)."""
    comp = np.zeros(hi - lo, np.bool_)
    for p in base_primes[:np.searchsorted(base_primes, isqrt(hi), side="right")].tolist():
        comp[max(p * p, (lo // p + 1) * p) - lo - 1 :: p] = True
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
    a gather, in blocks of about ``_BLOCK`` entries; |a| must fit in int64."""
    q = np.arange(q_lo, q_hi, dtype=np.int64)
    r = np.int64(a) % q
    out = np.zeros(q.size, dtype=np.float64)
    i = 0
    while i < q.size:
        L = (wlog.size - 1) // int(q[i]) + 1  # no later row is longer
        rows = slice(i, i + max(1, _BLOCK // L))
        for c0 in range(0, L, _BLOCK):
            s = r[rows, None] + q[rows, None] * np.arange(c0, min(L, c0 + _BLOCK))
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
