"""Prime sieve and exact arithmetic functions.

The sieve fills the primes up to its limit, and its smallest-prime-factor
table, each on first read; factorization is exact for every
integer up to limit*(limit+2), because after stripping all prime factors
<= limit the remaining cofactor of such an integer is either 1 or prime
(two factors above the limit would exceed (limit+1)^2).
Primality of wide inputs is certified by a deterministic Miller-Rabin test
over the first twelve prime bases, valid for all 64-bit integers.
"""

from __future__ import annotations

from math import floor, isqrt, log

import numpy as np

from . import _accel
from .errors import InvalidArgumentError, RangeBudgetError

MAX_SIEVE_LIMIT = 100_000_000
# largest order ell of a tau_ell table; sequences' exact int64 sums rely on it
MAX_TAU_ORDER = 16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SEGMENT_SPAN_BUDGET = 1_000_000_000
_SEGMENT_CHUNK = 1 << 22

# one value finished alone (a primality test, a block of prime remainders)
# costs about as much as this many rounds of the batch strip
_FINISH_ROUNDS = 4


class PrimeSieve:
    """The primes up to a limit and their smallest-prime-factor table, each
    filled on first read: a call checks its arguments before either exists.

    Attributes
    ----------
    limit : int
        Largest integer covered by the sieve.
    primes : ndarray of int64
        All primes <= limit, ascending; filled by ``prime_fill`` up to
        max(``_SEGMENT_CHUNK``, isqrt(limit)) and by ``_prime_spans`` above.
    spf : ndarray of int32
        spf[n] is the smallest prime factor of n for 2 <= n <= limit
        (spf[1] == 1); filled by ``spf_fill``, which does not read ``primes``.
    """

    __slots__ = ("limit", "_primes", "_spf", "_theta_cum")

    def __init__(self, limit):
        self.limit = limit
        self._primes = self._spf = self._theta_cum = None

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            head = min(self.limit, max(_SEGMENT_CHUNK, isqrt(self.limit)))
            self._primes = _accel.prime_fill(head)
            if head < self.limit:
                self._primes = np.concatenate(
                    [self._primes, *_prime_spans(head, self.limit, self._primes)])
        return self._primes

    @property
    def spf(self) -> np.ndarray:
        if self._spf is None:
            self._spf = _accel.spf_fill(self.limit)
        return self._spf

    def pi(self, x):
        """Number of primes <= x, for a scalar or an array of x <= limit."""
        return np.searchsorted(self.primes, x, side="right")

    def theta_cumulative(self) -> np.ndarray:
        """theta at each prime: the correctly rounded prefix sums of log p."""
        if self._theta_cum is None:
            self._theta_cum = _accel.compensated_cumsum(
                np.log(self.primes.astype(np.float64)))
        return self._theta_cum

    def __repr__(self):
        return f"PrimeSieve(limit={self.limit})"


def build_sieve(limit: int) -> PrimeSieve:
    """A sieve up to limit; its tables are filled on first read."""
    limit = int(limit)
    if limit < 2:
        raise InvalidArgumentError("sieve limit must be at least 2")
    if limit > MAX_SIEVE_LIMIT:
        raise RangeBudgetError(f"sieve limit {limit} exceeds cap {MAX_SIEVE_LIMIT}")
    return PrimeSieve(limit)


def _root_sieve(n_max: int) -> PrimeSieve:
    """The sieve of the primes up to isqrt(n_max), which factors every n <= n_max."""
    return build_sieve(max(2, isqrt(n_max) + 1))


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


def factorize(n: int, sieve: PrimeSieve) -> list[tuple[int, int]]:
    """The exact factorization n = prod p^e as its (p, e), ascending in p
    (empty for n = 1); valid up to sieve.limit*(sieve.limit+2)."""
    v = _validate_factor_input(n, sieve)
    if v == 1:
        return []
    factors: list[tuple[int, int]] = []
    if v > sieve.limit:
        factors, v = _strip_wide(v, 0, sieve)
        if v > sieve.limit:
            return factors + [(v, 1)]
    spf = sieve.spf
    while v > 1:
        p = int(spf[v])
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        factors.append((p, e))
    return factors


def greatest_prime_factor(n: int, sieve: PrimeSieve) -> int:
    """P+(n): the largest prime factor of n, with P+(1) == 1."""
    factors = factorize(n, sieve)
    return factors[-1][0] if factors else 1


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
    each is finished alone by ``_strip_wide``.
    """
    limit = sieve.limit
    top = np.ones(values.size, dtype=np.int64)  # largest prime stripped
    cof = np.empty_like(values)
    idx = np.arange(values.size)
    rem = values.copy()
    # every value retires by the first prime whose square exceeds them all
    cut = int(sieve.pi(isqrt(int(values.max()))))
    primes = sieve.primes[:cut + 1].tolist() + [limit + 1]
    for k, (p, nxt) in enumerate(zip(primes, primes[1:])):
        if idx.size * _FINISH_ROUNDS < len(primes) - k:
            for i, r in zip(idx.tolist(), rem.tolist()):
                stripped, cof[i] = _strip_wide(r, k, sieve)
                if stripped:
                    top[i] = stripped[-1][0]
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


def _strip_wide(r: int, k: int, sieve: PrimeSieve) -> tuple[list[tuple[int, int]], int]:
    """(factors, r) of one value r > limit with no prime factor below
    sieve.primes[k]: test r for primality, and while it is composite, strip
    the primes from k that divide it, a block at a time.

    factors lists the (p, e) stripped, ascending.  The cofactor returned is
    prime and above the limit, or fits the spf table; either way its primes
    all exceed the ones stripped.
    """
    factors = []
    primes = sieve.primes
    for lo in range(k, primes.size, _accel._BLOCK):
        if r <= sieve.limit or is_prime_u64(r):
            break
        block = primes[lo:lo + _accel._BLOCK]
        for q in block[r % block == 0].tolist():
            e = 0
            while r % q == 0:
                r //= q
                e += 1
            factors.append((q, e))
    return factors, r


def verify_factorization_roundtrip(sieve: PrimeSieve, n_max: int) -> bool:
    """Check that factorizations of all 2 <= n <= n_max multiply back to n."""
    n_max = int(n_max)
    if n_max > sieve.limit:
        raise RangeBudgetError("roundtrip check is per-integer, needs n_max <= limit")
    return _accel.roundtrip_first_bad(sieve.spf, n_max) == 0


def euler_phi(n: int, sieve: PrimeSieve) -> int:
    """Euler totient."""
    out = 1
    for p, e in factorize(n, sieve):
        out *= (p - 1) * p ** (e - 1)
    return out


def von_mangoldt(n: int, sieve: PrimeSieve) -> float:
    """log p on prime powers p^k, zero elsewhere."""
    factors = factorize(n, sieve)
    if len(factors) != 1:
        return 0.0
    return log(factors[0][0])


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
        return sieve.primes[sieve.pi(lo):sieve.pi(hi)].copy()
    return np.concatenate([sieve.primes[sieve.pi(lo):],
                           *_prime_spans(max(lo, sieve.limit), hi, sieve.primes)])


def _prime_spans(lo: int, hi: int, base: np.ndarray):
    """The primes in (lo, hi], ascending, one ``_SEGMENT_CHUNK`` of integers
    at a time; lo >= 1, and ``base`` holds every prime <= isqrt(hi)."""
    for start in range(lo, hi, _SEGMENT_CHUNK):
        comp = _accel.segment_mark(start, min(start + _SEGMENT_CHUNK, hi), base)
        yield np.flatnonzero(~comp) + start + 1


def _higher_powers(x: int, sieve: PrimeSieve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prime powers p**k <= x with k >= 2: (p**k, p, log p), x up to limit**2."""
    rows = []
    roots = sieve.primes[:sieve.pi(isqrt(x))]
    for p in roots.tolist():
        pk = p * p
        while pk <= x:
            rows.append((pk, p, log(p)))
            pk *= p
    pk, p, lp = zip(*rows) if rows else ((), (), ())
    return (np.array(pk, dtype=np.int64), np.array(p, dtype=np.int64),
            np.array(lp, dtype=np.float64))


def divisor_list(factors: list[tuple[int, int]]) -> list[int]:
    """All divisors of the integer prod p^e over factors, ascending."""
    divs = [1]
    for p, e in factors:
        base = list(divs)
        pk = 1
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in base)
    divs.sort()
    return divs


def tau_table(limit: int, ell: int) -> np.ndarray:
    """tau_ell(n) for all n <= limit as an int64 array (index 0 unused)."""
    limit = int(limit)
    if limit < 0:
        raise InvalidArgumentError("tau_table needs limit >= 0")
    ell = int(ell)
    if not 0 <= ell <= MAX_TAU_ORDER:
        raise InvalidArgumentError(f"tau_table needs 0 <= ell <= {MAX_TAU_ORDER}")
    if limit > MAX_SIEVE_LIMIT:
        raise RangeBudgetError(f"tau_table limit {limit} exceeds cap {MAX_SIEVE_LIMIT}")
    return _accel.tau_table(_root_sieve(limit).primes, 0, limit, ell, 2)
