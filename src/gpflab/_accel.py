"""Hot kernels, in numpy.

The primes come from a byte sieve, the smallest-prime-factor table is struck
from them.  Ranges are struck, value batches are peeled.  ``_strike``
divides each prime power out of a range of integers with one strided slice,
so its Python loop runs once per prime power (tau tables, mu and phi of
the moduli); ``_peel`` strips the smallest prime power from a
block of values per round, so its loop runs about as many times as a value
has prime factors.  Neither loops once per integer.

No strided loop divides in hardware: numpy does not vectorize an integer
division over a strided slice (about 3 ns an element, ten times a
contiguous one).  Each strike's division is exact, so it is one wrapping
multiply by the inverse of p mod 2^32 or 2^64 (Jebelean, "An algorithm
for exact division", 1993), a shift for p = 2.  The byte sieves
(``prime_fill``, ``spf_fill``, ``segment_mark``) strike only the odd
multiples of the odd primes and take the even numbers in one slice.  On a
2-vCPU host, against plain division and every-integer sieves:
``prime_fill(1e6)`` 4.0 -> 1.9 ms, ``spf_fill(1e7)`` 68 -> 47 ms, a
``segment_mark`` of 2^22 integers 18 -> 12 ms and a ``tau_table`` block
of 2^18 integers 10 -> 6 ms.  ``bv_max_scan`` keys
each prime by one integer, h = phi*rank - index, and takes its floats only
at the largest and the smallest key, every tie included.  Every float sum
here is exact, in integer limbs or Python ints, and rounded once: the
correctly rounded sum, what fsum gives.
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
    """All primes <= limit, ascending, from a byte sieve of Eratosthenes over
    the odd numbers: entry i stands for 2i + 1, except entry 0, which stands
    for 2.  An odd p strikes its odd multiples from p*p on, every p-th entry."""
    comp = np.zeros((limit + 1) // 2, np.bool_)
    comp[:1] = limit < 2
    for i in range(1, (isqrt(limit) + 1) // 2):
        if not comp[i]:
            comp[2 * i * (i + 1) :: 2 * i + 1] = True  # (2i+1)^2 = 2(2i(i+1)) + 1
    primes = np.flatnonzero(~comp)
    primes <<= 1
    primes |= 1
    primes[:1] = 2
    return primes


def spf_fill(limit: int) -> np.ndarray:
    """Smallest prime factor of each n <= limit (n itself below 2): each odd
    prime p <= isqrt(limit), largest first, writes p on its odd multiples
    from p*p on, and 2 goes on the even n >= 4 last; the smallest wins."""
    spf = np.arange(limit + 1, dtype=np.int32)
    for p in prime_fill(isqrt(limit))[:0:-1].tolist():
        spf[p * p :: 2 * p] = p
    spf[4::2] = 2
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
    prime given, a remainder is 1 or a prime above isqrt(hi) (0 stays 0).

    Each division is exact, so it is one wrapping multiply of the unsigned
    view by the inverse of p mod 2^32 or 2^64 (a shift for p = 2): the
    product of p*m and that inverse is m mod the word, and m fits it."""
    hi = lo + rem.size - 1
    ps = primes[:np.searchsorted(primes, isqrt(hi), side="right")]
    words = rem.view(f"u{rem.itemsize}")
    for p in ps[-lo % ps < rem.size].tolist():  # the primes with a multiple here
        inv = pow(p, -1, 1 << 8 * rem.itemsize) if p > 2 else 0
        pk, k = p, 1
        while pk <= hi and -lo % pk < rem.size:  # p^k's multiples are p^(k-1)'s
            s = slice(-lo % pk, None, pk)
            t = words[s]  # a view
            if p > 2:
                t *= inv
            else:
                t >>= 1
            yield p, k, s
            pk, k = pk * p, k + 1


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
    np.multiply(out, lut[1], out=out, where=rem >= max(z, 2))  # one prime above isqrt(hi)
    if lo == 0:
        out[0] = 0
    return out


# ---------------------------------------------------------------------------
# segmented composite marking for primes in (lo, hi]


def segment_mark(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean mask over (lo, hi]: True where composite (given base primes).
    The even n >= 4 are marked in one slice, then each odd base prime marks
    its odd multiples from max(p*p, lo + 1) on, every 2p-th entry."""
    comp = np.zeros(hi - lo, np.bool_)
    ps = base_primes[1:np.searchsorted(base_primes, isqrt(hi), side="right")]
    comp[max(4, lo + 2 - lo % 2) - lo - 1 :: 2] = True  # empty if hi < 4
    start = np.maximum(ps * ps, (lo // ps + 1) * ps)
    start += ps * (1 - start % 2)  # the first odd multiple
    for p, m in zip(ps.tolist(), start.tolist()):
        comp[m - lo - 1 :: 2 * p] = True
    return comp


# ---------------------------------------------------------------------------
# exact float sums, rounded once


def _fixed(v: np.ndarray) -> tuple[np.ndarray, int]:
    """Nonnegative floats as exact fixed-point limbs along a new last axis,
    with their base: v == sum_k out[..., k] * 2**(base + 32*k)."""
    # the smallest nonzero v, hence every v, is a whole multiple of 2**base
    base = min(int(np.frexp(v[v > 0].min(initial=1.0))[1]) - 53, -1)
    u = np.ldexp(v, -base)
    top = int(np.frexp(u.max(initial=0.0))[1])
    return np.stack([np.fmod(np.floor(np.ldexp(u, -32 * k)), 2.0**32).astype(np.int64)
                     for k in range(top // 32 + 1)], axis=-1), base


def _round_fixed(rows: np.ndarray, base: int) -> np.ndarray:
    """The correctly rounded float of each row of limb sums, which is what
    fsum gives for the same terms.  The sums must be >= 0."""
    width = rows.shape[1]
    rows = np.concatenate([rows, np.zeros((rows.shape[0], 3), dtype=np.int64)], axis=1)
    for k in range(width):  # carry every limb into [0, 2**32)
        carry = rows[:, k] >> 32
        rows[:, k] -= carry << 32
        rows[:, k + 1] += carry
    # from the top nonzero limb t (at least 2): H holds its 32 bits and the top
    # 21 of limb t-1, L the other 11 and limb t-2, plus a sticky bit for any
    # limb below.  Both are exact floats, so H + L rounds once, correctly
    nz = rows != 0
    t = np.maximum(rows.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), 2)
    at = np.arange(0, rows.size, rows.shape[1]) + t  # limb t in the flat rows
    top, mid, low = (rows.ravel()[at - i] for i in range(3))
    sticky = nz.cumsum(axis=1).ravel()[at - 2] > (low != 0)
    H = np.ldexp(((top << 21) + (mid >> 11)).astype(np.float64), 43)
    return np.ldexp(H + (((mid & 0x7FF) << 32) + (low | sticky)), base + 32 * (t - 2))


def round_limbs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(hi * 2**32 + lo) * 2**-53, correctly rounded, for sums lo, hi >= 0 of
    the low and high 32-bit limbs of whole multiples of 2**-53 whose total is
    below 2**32: the carried high limb stays below 2**53, so both halves of
    the one add are exact floats."""
    return np.ldexp((hi + (lo >> 32)).astype(np.float64) * 2.0**32
                    + (lo & 0xFFFFFFFF).astype(np.float64), -53)


def compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """The correctly rounded prefix sums of ``a``, floats in [0.5, 2**10)
    with a total below 2**32 (logs of primes, whose sum theta(1e8) < 1e8):
    each is k * 2**-53 with k an int64, whose 32-bit limbs are summed apart,
    ``_BLOCK`` entries at a time, and carried into one add by ``round_limbs``."""
    out = np.empty(a.size)
    lo = hi = 0
    for i in range(0, a.size, _BLOCK):
        k = (a[i:i + _BLOCK] * 2.0**53).astype(np.int64)
        los = np.cumsum(k & 0xFFFFFFFF) + lo
        his = np.cumsum(k >> 32) + hi
        out[i:i + _BLOCK] = round_limbs(los, his)
        lo, hi = int(los[-1]) & 0xFFFFFFFF, int(his[-1] + (los[-1] >> 32))
    return out


def exact_sum(v: np.ndarray, total: int = 0, base: int = 0) -> tuple[int, int]:
    """total * 2**base + sum(v) as (total', base'), exactly, for float64 v
    (OverflowError if one is not finite), ``_BLOCK`` terms at a time.  Each v
    is t * 2**(e - 27) with frexp's e and |t| < 2**27 a multiple of 2**-26; by
    e, the floors of t and their fractions then sum exactly in float64
    bincounts, and Python ints join the bins."""
    for i in range(0, v.size, _BLOCK):
        if not np.isfinite(v[i:i + _BLOCK]).all():
            raise OverflowError("a float term is not finite")
        t, e = np.frexp(v[i:i + _BLOCK])
        e0 = int(e.min())
        e = np.subtract(e, e0, dtype=np.intp)
        h = np.floor(np.ldexp(t, 27, out=t))
        bins = zip(np.bincount(e, weights=h).tolist(),
                   np.bincount(e, weights=np.subtract(t, h, out=t)).tolist())
        s = sum((int(a) << 26) + int(b * 2**26) << k for k, (a, b) in enumerate(bins))
        low = min(base, e0 - 53)
        total, base = (total << (base - low)) + (s << (e0 - 53 - low)), low
    return total, base


def round_exact(total: int, base: int) -> float:
    """total * 2**base rounded once, correctly: Python's int division is."""
    return total / (1 << -base) if base < 0 else float(total << base)


# ---------------------------------------------------------------------------
# per-modulus maximal discrepancy scan over prime counting functions


def bv_max_scan(res: np.ndarray, q: int) -> float:
    """max over y and residues a coprime to q of |pi(y;q,a) - pi(y)/phi(q)|,
    from ``res``, the residues mod q of the primes up to x in order.  The
    prime of index k and class rank r has the key h = phi*r - k: the deviation
    at its step, r - (k+1)/phi, is (h-1)/phi, and just before it, k/phi -
    (r-1), is (phi-h)/phi.  So the peaks sit at max h, min h or after the last
    prime; both floats are taken at every prime of either key, since equal
    keys can round an ulp apart, a ``_BLOCK`` of them at a time (at q = 2
    every prime ties)."""
    if not res.size:
        return 0.0
    coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
    phi = int(np.count_nonzero(coprime))
    res = res.astype(np.uint8 if q <= 1 << 8 else np.uint16 if q <= 1 << 16 else np.int64)
    cnt = np.bincount(res, minlength=q)
    start = np.add.accumulate(cnt) - cnt
    order = np.argsort(res, kind="stable")  # radix sort: each class in prime order
    h = np.arange(phi, phi * (res.size + 1), phi) - order - (phi * start).repeat(cnt)
    # a class not coprime to q holds at most one prime, one dividing q; its
    # slot copies slot j, the first not skipped (skip is ascending)
    skip = start[(cnt > 0) & ~coprime]
    j = np.count_nonzero(skip == np.arange(skip.size))
    if j == res.size:  # every prime divides q
        return res.size / phi
    h[skip], order[skip] = h[j], order[j]
    sel = np.flatnonzero((h == h.max()) | (h == h.min()))
    top = res.size / phi - int(cnt[coprime].min())
    for lo in range(0, sel.size, _BLOCK):
        k = order[sel[lo:lo + _BLOCK]]
        r = (h[sel[lo:lo + _BLOCK]] + k) // phi
        # -(k+1)/phi + r and k/phi + (1-r): both deviations, bit for bit
        dev = np.concatenate((~k, k)) / phi + np.concatenate((r, 1 - r))
        top = max(top, dev.max())
    return float(max(top, 0.0))


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
