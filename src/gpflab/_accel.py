"""Hot kernels: numba-compiled loops with pure-numpy fallbacks.

Every public function here but ``bv_max_scan`` and ``divisor_scatter``,
which have one numpy form, dispatches on the active backend.  The backend
is chosen at import time: numba when it is importable and the environment
variable ``GPFLAB_NO_NUMBA`` is unset, numpy otherwise.  ``set_backend``
lets the benchmark and the parity tests flip paths inside one process.

Both paths of each kernel perform the same arithmetic in the same order,
so integer results are identical and float results are bit-identical
except where noted (the compensated cumulative sum uses Kahan summation
under numba and extended precision under numpy).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidArgumentError

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - environment without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def _env_disabled() -> bool:
    return os.environ.get("GPFLAB_NO_NUMBA", "").strip().lower() in {"1", "true", "yes"}


_BACKEND = "numpy" if (_env_disabled() or not HAS_NUMBA) else "numba"


def backend() -> str:
    """Name of the active kernel backend: 'numba' or 'numpy'."""
    return _BACKEND


def set_backend(name: str) -> None:
    """Force a backend ('numba' or 'numpy'); used by benchmarks and tests."""
    global _BACKEND
    if name not in ("numba", "numpy"):
        raise InvalidArgumentError(f"unknown backend {name!r}")
    if name == "numba" and not HAS_NUMBA:
        raise InvalidArgumentError("numba backend requested but numba is not importable")
    _BACKEND = name


# ---------------------------------------------------------------------------
# smallest-prime-factor sieve fill


@njit(cache=True)
def _spf_fill_nb(limit):
    spf = np.zeros(limit + 1, np.int32)
    if limit >= 1:
        spf[1] = 1
    i = 2
    while i * i <= limit:
        if spf[i] == 0:
            for m in range(i * i, limit + 1, i):
                if spf[m] == 0:
                    spf[m] = i
        i += 1
    for n in range(2, limit + 1):
        if spf[n] == 0:
            spf[n] = n
    return spf


def _spf_fill_np(limit):
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


def spf_fill(limit: int) -> np.ndarray:
    if _BACKEND == "numba":
        return _spf_fill_nb(limit)
    return _spf_fill_np(limit)


# ---------------------------------------------------------------------------
# batch factor reconstruction check (round trip n -> factors -> n)


@njit(cache=True)
def _roundtrip_nb(spf, hi):
    for n in range(2, hi + 1):
        v = n
        prod = 1
        while v > 1:
            p = np.int64(spf[v])
            while v % p == 0:
                v //= p
                prod *= p
        if prod != n:
            return n
    return 0


def _roundtrip_np(spf, hi):
    rem = np.arange(hi + 1, dtype=np.int64)
    prod = np.ones(hi + 1, dtype=np.int64)
    while True:
        mask = rem > 1
        if not mask.any():
            break
        p = spf[rem[mask]].astype(np.int64)
        prod[mask] *= p
        rem[mask] //= p
    bad = np.flatnonzero(prod[2:] != np.arange(2, hi + 1))
    return int(bad[0] + 2) if bad.size else 0


def roundtrip_first_bad(spf: np.ndarray, hi: int) -> int:
    """First n in [2, hi] whose factorization does not multiply back, else 0."""
    if _BACKEND == "numba":
        return int(_roundtrip_nb(spf, hi))
    return _roundtrip_np(spf, hi)


# ---------------------------------------------------------------------------
# batch greatest prime factor


@njit(cache=True)
def _mr31_nb(n):
    # deterministic Miller-Rabin for odd n in (2, 2^31); bases 2,3,5,7
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        if a % n == 0:
            continue
        x = 1
        b = a % n
        e = d
        while e > 0:
            if e & 1:
                x = (x * b) % n
            b = (b * b) % n
            e >>= 1
        if x == 1 or x == n - 1:
            continue
        composite = True
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                composite = False
                break
        if composite:
            return False
    return True


@njit(cache=True)
def _gpf_batch_nb(values, spf, primes, limit):
    out = np.empty(values.size, np.int64)
    for idx in range(values.size):
        v = values[idx]
        if v <= 1:
            out[idx] = 1
            continue
        g = np.int64(1)
        if v > limit:
            if v >= (1 << 31):
                out[idx] = -1  # python fallback handles wide values
                continue
            if v % 2 == 1 and _mr31_nb(v):
                out[idx] = v
                continue
            done = False
            for j in range(primes.size):
                p = primes[j]
                if p * p > v:
                    break
                if v % p == 0:
                    g = p
                    while v % p == 0:
                        v //= p
                    if v == 1:
                        break
                    if v <= limit:
                        break
                    if v % 2 == 1 and _mr31_nb(v):
                        out[idx] = v
                        done = True
                        break
            if done:
                continue
            if v > limit:
                # remaining cofactor is prime (no factor up to its root)
                out[idx] = v if v > g else g
                continue
        while v > 1:
            p = np.int64(spf[v])
            if p > g:
                g = p
            while v % p == 0:
                v //= p
        out[idx] = g
    return out


def _gpf_batch_np(values, spf, primes, limit):
    out = np.empty(values.size, np.int64)
    small = values <= limit
    out[~small] = -1
    rem = values[small].copy()
    g = np.ones(rem.size, dtype=np.int64)
    g[rem <= 0] = 1
    while True:
        mask = rem > 1
        if not mask.any():
            break
        p = spf[rem[mask]].astype(np.int64)
        g[mask] = np.maximum(g[mask], p)
        rem[mask] //= p
    out[small] = g
    return out


def gpf_batch(values: np.ndarray, spf: np.ndarray, primes: np.ndarray, limit: int) -> np.ndarray:
    """Greatest prime factor per value; -1 marks entries the caller must finish.

    The numba path resolves values up to 2^31 beyond the sieve limit by
    trial division plus a base-{2,3,5,7} strong-pseudoprime test; the numpy
    path resolves values within the sieve limit and defers the rest.
    """
    if _BACKEND == "numba":
        return _gpf_batch_nb(values, spf, primes, limit)
    return _gpf_batch_np(values, spf, primes, limit)


# ---------------------------------------------------------------------------
# count of n <= x whose u-smooth part is >= v


@njit(cache=True)
def _theta_count_nb(x, u, v, spf):
    count = 0
    for n in range(1, x + 1):
        w = n
        smooth = 1
        while w > 1:
            p = np.int64(spf[w])
            if p > u:
                break
            while w % p == 0:
                w //= p
                smooth *= p
        if smooth >= v:
            count += 1
    return count


def _theta_count_np(x, u, v, spf):
    rem = np.arange(x + 1, dtype=np.int64)
    smooth = np.ones(x + 1, dtype=np.int64)
    while True:
        p = spf[rem]
        mask = (rem > 1) & (p <= u)
        if not mask.any():
            break
        pm = p[mask].astype(np.int64)
        smooth[mask] *= pm
        rem[mask] //= pm
    return int(np.count_nonzero(smooth[1:] >= v))


def theta_count_scan(x: int, u: int, v: int, spf: np.ndarray) -> int:
    if _BACKEND == "numba":
        return int(_theta_count_nb(x, u, v, spf))
    return _theta_count_np(x, u, v, spf)


# ---------------------------------------------------------------------------
# segmented composite marking for primes in (lo, hi]


@njit(cache=True)
def _segment_mark_nb(lo, hi, base_primes):
    length = hi - lo
    comp = np.zeros(length, np.bool_)
    for j in range(base_primes.size):
        p = base_primes[j]
        if p * p > hi:
            break
        start = (lo // p + 1) * p
        if start < p * p:
            start = p * p
        for m in range(start, hi + 1, p):
            comp[m - lo - 1] = True
    return comp


def _segment_mark_np(lo, hi, base_primes):
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


def segment_mark(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Boolean mask over (lo, hi]: True where composite (given base primes)."""
    if _BACKEND == "numba":
        return _segment_mark_nb(lo, hi, base_primes)
    return _segment_mark_np(lo, hi, base_primes)


# ---------------------------------------------------------------------------
# compensated cumulative sum (prefix tables of log-weights)


@njit(cache=True)
def _kahan_cumsum_nb(a):
    out = np.empty_like(a)
    s = 0.0
    c = 0.0
    for i in range(a.size):
        y = a[i] - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out


def compensated_cumsum(a: np.ndarray) -> np.ndarray:
    if _BACKEND == "numba":
        return _kahan_cumsum_nb(a.astype(np.float64))
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


@njit(cache=True)
def _product_mark_nb(n):
    size = n * n
    bits = np.zeros(size // 8 + 1, np.uint8)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            v = a * b
            bits[v >> 3] |= np.uint8(1 << (v & 7))
    return bits


def _popcount_bits(bits: np.ndarray) -> int:
    return int(np.unpackbits(bits).sum())


def _product_mark_np(n):
    marked = np.zeros(n * n + 1, np.bool_)
    for a in range(1, n + 1):
        marked[a * a : a * n + 1 : a] = True
    return int(np.count_nonzero(marked))


def product_mark_count(n: int) -> int:
    """Number of distinct values a*b with 1 <= a, b <= n."""
    if _BACKEND == "numba":
        return _popcount_bits(_product_mark_nb(n))
    return _product_mark_np(n)


# ---------------------------------------------------------------------------
# generalized divisor function table


@njit(cache=True)
def _tau_step_nb(prev, out):
    limit = prev.size - 1
    for d in range(1, limit + 1):
        pd = prev[d]
        if pd == 0:
            continue
        for m in range(d, limit + 1, d):
            out[m] += pd


def _tau_step_np(prev, out):
    limit = prev.size - 1
    for d in range(1, limit + 1):
        pd = prev[d]
        if pd:
            out[d::d] += pd


def tau_table(limit: int, ell: int) -> np.ndarray:
    """Table of tau_ell(n) for 0 <= n <= limit (index 0 unused)."""
    if ell == 0:
        out = np.zeros(limit + 1, np.int64)
        if limit >= 1:
            out[1] = 1
        return out
    cur = np.ones(limit + 1, np.int64)
    cur[0] = 0
    for _ in range(ell - 1):
        nxt = np.zeros(limit + 1, np.int64)
        if _BACKEND == "numba":
            _tau_step_nb(cur, nxt)
        else:
            _tau_step_np(cur, nxt)
        cur = nxt
    return cur


# ---------------------------------------------------------------------------
# smooth-number count via ascending prime DFS with bulk leaf closing


@njit(cache=True)
def _smooth_dfs_nb(x, y_int, primes, pi_table):
    k = primes.size
    cap = 256
    stack_m = np.empty(cap, np.int64)
    stack_i = np.empty(cap, np.int64)
    # worst-case depth is log2(x); breadth is bounded by pushing children lazily
    total = np.int64(0)
    sp = 0
    stack_m[0] = x
    stack_i[0] = 0
    sp = 1
    # grow-on-demand explicit stack
    while sp > 0:
        sp -= 1
        m = stack_m[sp]
        i = stack_i[sp]
        r = np.int64(np.sqrt(m))
        while r * r > m:
            r -= 1
        while (r + 1) * (r + 1) <= m:
            r += 1
        cap_m = m if m < y_int else y_int
        pimin = pi_table[cap_m]
        cap_r = r if r < y_int else y_int
        pisqrt = pi_table[cap_r]
        lo = i if i > pisqrt else pisqrt
        singles = pimin - lo
        if singles < 0:
            singles = 0
        total += 1 + singles
        j = i
        while j < k:
            p = primes[j]
            if p * p > m:
                break
            if sp >= stack_m.size:
                new_m = np.empty(stack_m.size * 2, np.int64)
                new_i = np.empty(stack_m.size * 2, np.int64)
                new_m[: stack_m.size] = stack_m
                new_i[: stack_m.size] = stack_i
                stack_m = new_m
                stack_i = new_i
            stack_m[sp] = m // p
            stack_i[sp] = j
            sp += 1
            j += 1
    return total


def _smooth_dfs_np(x, y_int, primes, pi_table):
    from math import isqrt

    k = primes.size
    primes_l = primes.tolist()
    total = 0
    stack = [(x, 0)]
    while stack:
        m, i = stack.pop()
        r = isqrt(m)
        pimin = int(pi_table[min(m, y_int)])
        pisqrt = int(pi_table[min(r, y_int)])
        total += 1 + max(0, pimin - max(i, pisqrt))
        for j in range(i, k):
            p = primes_l[j]
            if p * p > m:
                break
            stack.append((m // p, j))
    return total


def smooth_dfs_count(x: int, y_int: int, primes: np.ndarray, pi_table: np.ndarray) -> int:
    """Count of n <= x all of whose prime factors are <= y_int.

    ``primes`` must list the primes up to y_int and ``pi_table[t]`` the
    count of primes <= t for t in [0, y_int].
    """
    if _BACKEND == "numba":
        return int(_smooth_dfs_nb(x, y_int, primes, pi_table))
    return _smooth_dfs_np(x, y_int, primes, pi_table)
