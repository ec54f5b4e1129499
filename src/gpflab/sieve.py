"""Prime sieve and exact arithmetic functions.

The sieve stores smallest prime factors up to its limit; factorization is
exact for every integer up to limit*(limit+2), because after stripping all
prime factors <= limit the remaining cofactor of such an integer is either
1 or prime (two factors above the limit would exceed (limit+1)^2).
Primality of wide inputs is certified by a deterministic Miller-Rabin test
over the first twelve prime bases, valid for all 64-bit integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, floor, isqrt, log

import numpy as np

from . import _accel
from .errors import InvalidArgumentError, RangeBudgetError

MAX_SIEVE_LIMIT = 100_000_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SEGMENT_SPAN_BUDGET = 1_000_000_000
_SEGMENT_CHUNK = 1 << 22

# one value finished alone (a primality test, a block of prime remainders)
# costs about as much as this many rounds of the batch strip
_FINISH_ROUNDS = 4


class PrimeSieve:
    """Smallest-prime-factor table with derived prime data.

    Attributes
    ----------
    limit : int
        Largest integer covered by the table.
    spf : ndarray of int32
        spf[n] is the smallest prime factor of n for 2 <= n <= limit
        (spf[1] == 1).
    primes : ndarray of int64
        All primes <= limit, ascending.
    prime_count_cumulative : ndarray of int64
        prime_count_cumulative[n] is the number of primes <= n.
    """

    __slots__ = ("limit", "spf", "primes", "prime_count_cumulative",
                 "_log_primes", "_theta_cum")

    def __init__(self, limit, spf, primes, prime_count_cumulative):
        self.limit = limit
        self.spf = spf
        self.primes = primes
        self.prime_count_cumulative = prime_count_cumulative
        self._log_primes = None
        self._theta_cum = None

    def log_primes(self) -> np.ndarray:
        if self._log_primes is None:
            self._log_primes = np.log(self.primes.astype(np.float64))
        return self._log_primes

    def theta_cumulative(self) -> np.ndarray:
        """theta at each prime: compensated prefix sums of log p."""
        if self._theta_cum is None:
            self._theta_cum = _accel.compensated_cumsum(self.log_primes())
        return self._theta_cum

    def __repr__(self):
        return f"PrimeSieve(limit={self.limit}, primes={self.primes.size})"


def build_sieve(limit: int) -> PrimeSieve:
    """Sieve smallest prime factors for every integer up to limit."""
    limit = int(limit)
    if limit < 2:
        raise InvalidArgumentError("sieve limit must be at least 2")
    if limit > MAX_SIEVE_LIMIT:
        raise RangeBudgetError(f"sieve limit {limit} exceeds cap {MAX_SIEVE_LIMIT}")
    spf = _accel.spf_fill(limit)
    is_prime = spf == np.arange(limit + 1, dtype=spf.dtype)
    is_prime[:2] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    pcc = np.cumsum(is_prime, dtype=np.int64)
    return PrimeSieve(limit, spf, primes, pcc)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < 2^64.

    The twelve bases certify nothing wider (318665857834031151167461 is a
    strong pseudoprime to all of them), so n >= 2^64 raises."""
    if n >= 1 << 64:
        raise InvalidArgumentError(f"is_prime_u64 needs n < 2^64, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p^e, factors ascending in p."""

    n: int
    factors: list[tuple[int, int]]

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _max_factor_input(sieve: PrimeSieve) -> int:
    return sieve.limit * (sieve.limit + 2)


def _validate_factor_input(n, sieve) -> int:
    n = int(n)
    if n < 1:
        raise InvalidArgumentError(f"factorization needs n >= 1, got {n}")
    if n > _max_factor_input(sieve):
        raise RangeBudgetError(
            f"n={n} beyond certified range limit*(limit+2)={_max_factor_input(sieve)}")
    return n


def factorize(n: int, sieve: PrimeSieve) -> Factorization:
    """Exact factorization of n, valid up to sieve.limit*(sieve.limit+2)."""
    n = _validate_factor_input(n, sieve)
    if n == 1:
        return Factorization(1, [])
    factors: list[tuple[int, int]] = []
    v = n
    if v > sieve.limit:
        if is_prime_u64(v):
            return Factorization(n, [(v, 1)])
        hi = isqrt(v)
        cut = int(np.searchsorted(sieve.primes, hi, side="right"))
        for p in sieve.primes[:cut].tolist():
            if p * p > v:
                break
            if v % p == 0:
                e = 0
                while v % p == 0:
                    v //= p
                    e += 1
                factors.append((p, e))
                if v == 1 or v <= sieve.limit:
                    break
                if is_prime_u64(v):
                    factors.append((v, 1))
                    v = 1
                    break
        if v > sieve.limit:
            # no factor up to sqrt: the cofactor is prime
            factors.append((v, 1))
            v = 1
    spf = sieve.spf
    while v > 1:
        p = int(spf[v])
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        factors.append((p, e))
    return Factorization(n, factors)


def greatest_prime_factor(n: int, sieve: PrimeSieve) -> int:
    """P+(n): the largest prime factor of n, with P+(1) == 1."""
    n = _validate_factor_input(n, sieve)
    if n == 1:
        return 1
    return factorize(n, sieve).factors[-1][0]


def greatest_prime_factor_batch(values, sieve: PrimeSieve) -> np.ndarray:
    """Vectorized P+ over an array of integers in the certified range."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if int(arr.min()) < 1:
        raise InvalidArgumentError("batch gpf needs values >= 1")
    if int(arr.max()) > _max_factor_input(sieve):
        raise RangeBudgetError("batch gpf value beyond certified range")
    out = _accel.gpf_batch(arr, sieve.spf)
    wide = np.flatnonzero(out < 0)
    for lo in range(0, wide.size, _accel._BLOCK):
        at = wide[lo:lo + _accel._BLOCK]
        out[at] = _wide_gpf(arr[at], sieve)
    return out


def _wide_gpf(values: np.ndarray, sieve: PrimeSieve) -> np.ndarray:
    """P+ of values in (limit, limit*(limit+2)]: strip the primes <= limit
    in ascending order from all of them at once.

    A value retires as soon as its cofactor fits the spf table, which
    finishes it, or lies below the next prime squared, which leaves it 1 or
    prime.  Past the last prime every cofactor is 1 or prime, since two
    factors above the limit would exceed the value.  A cofactor above the
    limit that is prime stays live until the strip passes its square root,
    so once fewer than one value per ``_FINISH_ROUNDS`` rounds left is live,
    each is finished alone by ``_finish_wide``.
    """
    limit = sieve.limit
    top = np.ones(values.size, dtype=np.int64)  # largest prime stripped
    cof = np.empty_like(values)
    idx = np.arange(values.size)
    rem = values.copy()
    # every value retires by the first prime whose square exceeds them all
    cut = int(np.searchsorted(sieve.primes, isqrt(int(values.max())), side="right"))
    primes = sieve.primes[:cut + 1].tolist() + [limit + 1]
    for k, (p, nxt) in enumerate(zip(primes, primes[1:])):
        if idx.size * _FINISH_ROUNDS < len(primes) - k:
            for i, r in zip(idx.tolist(), rem.tolist()):
                top[i], cof[i] = _finish_wide(r, k, int(top[i]), sieve)
            break
        hit = np.flatnonzero(rem % p == 0)
        if hit.size:
            top[idx[hit]] = p
            while hit.size:
                rem[hit] //= p
                hit = hit[rem[hit] % p == 0]
        live = (rem > limit) & (rem >= nxt * nxt)
        if not live.all():
            cof[idx[~live]] = rem[~live]
            idx, rem = idx[live], rem[live]
            if not idx.size:
                break
    # a cofactor's primes all exceed the ones stripped from its value
    small = np.flatnonzero(cof <= limit)
    cof[small] = np.maximum(top[small], _accel.gpf_batch(cof[small], sieve.spf))
    return cof


def _finish_wide(r: int, k: int, top: int, sieve: PrimeSieve) -> tuple[int, int]:
    """(top, r) of one value whose cofactor r > limit has no prime factor
    below sieve.primes[k]: test r for primality, and while it is composite,
    strip the primes from k that divide it, a block at a time.

    The cofactor returned is prime and above the limit, or fits the spf
    table; top is the largest prime stripped.
    """
    primes = sieve.primes
    for lo in range(k, primes.size, _accel._BLOCK):
        if r <= sieve.limit or is_prime_u64(r):
            break
        block = primes[lo:lo + _accel._BLOCK]
        for q in block[r % block == 0].tolist():
            while r % q == 0:
                r //= q
            top = q
    return top, r


def verify_factorization_roundtrip(sieve: PrimeSieve, n_max: int) -> bool:
    """Check that factorizations of all 2 <= n <= n_max multiply back to n."""
    n_max = int(n_max)
    if n_max > sieve.limit:
        raise RangeBudgetError("roundtrip check is per-integer, needs n_max <= limit")
    return _accel.roundtrip_first_bad(sieve.spf, n_max) == 0


def euler_phi(n: int, sieve: PrimeSieve) -> int:
    """Euler totient."""
    fact = factorize(n, sieve)
    out = 1
    for p, e in fact.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(n: int, sieve: PrimeSieve) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    fact = factorize(n, sieve)
    for _, e in fact.factors:
        if e > 1:
            return 0
    return -1 if len(fact.factors) % 2 else 1


def von_mangoldt(n: int, sieve: PrimeSieve) -> float:
    """log p on prime powers p^k, zero elsewhere."""
    fact = factorize(n, sieve)
    if len(fact.factors) != 1:
        return 0.0
    return log(fact.factors[0][0])


def _tau_order(ell) -> int:
    ell = int(ell)
    if ell < 0 or ell > 16:
        raise InvalidArgumentError("tau_ell order must be in [0, 16]")
    return ell


def tau_ell(n: int, ell: int, sieve: PrimeSieve) -> int:
    """Number of ordered ell-tuples with product n (generalized divisor count).

    tau_0 is the indicator of n == 1; tau_ell(p^e) = C(e+ell-1, ell-1).
    """
    ell = _tau_order(ell)
    fact = factorize(n, sieve)
    if ell == 0:
        return 1 if fact.n == 1 else 0
    out = 1
    for _, e in fact.factors:
        out *= comb(e + ell - 1, ell - 1)
    return out


def rough_indicator(n: int, z, sieve: PrimeSieve) -> int:
    """1 when every prime factor of n is >= z (vacuous at n == 1), else 0."""
    n = _validate_factor_input(n, sieve)
    if n == 1:
        return 1
    if n <= sieve.limit:
        return 1 if int(sieve.spf[n]) >= z else 0
    return 1 if factorize(n, sieve).factors[0][0] >= z else 0


def smooth_rough_split(t: int, z, sieve: PrimeSieve) -> tuple[int, int]:
    """Split t into (smooth, rough): the product of prime powers with p < z,
    and the complementary part whose prime factors are all >= z."""
    fact = factorize(t, sieve)
    smooth = 1
    rough = 1
    for p, e in fact.factors:
        if p < z:
            smooth *= p**e
        else:
            rough *= p**e
    return smooth, rough


def theta_count(x, u, v, sieve: PrimeSieve) -> int:
    """Count of 1 <= n <= x whose u-smooth part is at least v.

    The u-smooth part is the product of the prime powers p^e || n with
    p <= u.  Requires floor(x) <= sieve.limit (per-integer scan).
    """
    if x < 1:
        raise InvalidArgumentError("theta_count needs x >= 1")
    if u < 2:
        raise InvalidArgumentError("theta_count needs u >= 2")
    if v < 1:
        raise InvalidArgumentError("theta_count needs v >= 1")
    xi = floor(x)
    if xi > sieve.limit:
        raise RangeBudgetError("theta_count scans every n <= x, needs x <= limit")
    return _accel.theta_count_scan(int(xi), int(floor(u)), int(ceil(v)), sieve.spf)


def segmented_primes(lo, hi, sieve: PrimeSieve) -> np.ndarray:
    """All primes p with lo < p <= hi, ascending; hi may reach limit^2."""
    lo = int(floor(lo))
    hi = int(floor(hi))
    if lo < 0 or hi < lo:
        raise InvalidArgumentError("segmented_primes needs 0 <= lo <= hi")
    if hi > sieve.limit * sieve.limit:
        raise RangeBudgetError("segmented_primes needs hi <= limit^2")
    if hi - lo > _SEGMENT_SPAN_BUDGET:
        raise RangeBudgetError(f"segment span {hi - lo} exceeds budget {_SEGMENT_SPAN_BUDGET}")
    if hi <= sieve.limit:
        i = int(np.searchsorted(sieve.primes, lo, side="right"))
        j = int(np.searchsorted(sieve.primes, hi, side="right"))
        return sieve.primes[i:j].copy()
    root = isqrt(hi)
    cut = int(np.searchsorted(sieve.primes, root, side="right"))
    base = sieve.primes[:cut]
    out = []
    if lo < sieve.limit:
        i = int(np.searchsorted(sieve.primes, lo, side="right"))
        out.append(sieve.primes[i:].copy())
        lo = sieve.limit
    start = lo
    while start < hi:
        stop = min(start + _SEGMENT_CHUNK, hi)
        comp = _accel.segment_mark(start, stop, base)
        vals = np.flatnonzero(~comp) + start + 1
        out.append(vals[vals >= 2])
        start = stop
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _higher_powers(x: int, sieve: PrimeSieve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime powers p**k <= x with k >= 2: (p**k, p, log p), x up to limit**2."""
    rows = []
    roots = sieve.primes[:np.searchsorted(sieve.primes, isqrt(x), side="right")]
    for p in roots.tolist():
        pk = p * p
        while pk <= x:
            rows.append((pk, p, log(p)))
            pk *= p
    pk, p, lp = zip(*rows) if rows else ((), (), ())
    return (np.array(pk, dtype=np.int64), np.array(p, dtype=np.int64),
            np.array(lp, dtype=np.float64))


def divisor_list(fact: Factorization) -> list[int]:
    """All divisors of the factored integer, ascending."""
    divs = [1]
    for p, e in fact.factors:
        base = list(divs)
        pk = 1
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in base)
    divs.sort()
    return divs


def tau_table(limit: int, ell: int) -> np.ndarray:
    """tau_ell(n) for all n <= limit as an int64 array (index 0 unused)."""
    return _accel.tau_table(_accel.spf_fill(int(limit)), _tau_order(ell), 2)


def rough_table(limit: int, z, sieve: PrimeSieve) -> np.ndarray:
    """Boolean table over [0, limit]: True where all prime factors >= z."""
    limit = int(limit)
    if limit > sieve.limit:
        raise RangeBudgetError("rough_table needs limit <= sieve.limit")
    out = sieve.spf[: limit + 1] >= z
    out[0] = False
    if limit >= 1:
        out[1] = True
    return out
