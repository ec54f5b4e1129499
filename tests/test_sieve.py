"""Factorization layer against hand-rolled trial-division oracles."""

import subprocess
import sys
from math import comb, inf, isqrt, log, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpflab.ap import _mobius_phi
from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.sieve import (
    MAX_SIEVE_LIMIT,
    _rough_mask,
    build_sieve,
    divisor_list,
    euler_phi,
    factorize,
    greatest_prime_factor,
    greatest_prime_factor_batch,
    is_prime_u64,
    segmented_primes,
    tau_table,
    verify_factorization_roundtrip,
    von_mangoldt,
)


def naive_gpf(n: int) -> int:
    best = 1
    while n % 2 == 0:
        n //= 2
        best = 2
    p = 3
    while p * p <= n:
        while n % p == 0:
            n //= p
            best = p
        p += 2
    return n if n > 1 else best


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return False
        p += 2
    return True


def naive_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) of n by trial division, ascending."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(n, 1)] * (n > 1)


def naive_rough(n: int, z) -> bool:
    """No prime factor of n below z (vacuous at n == 1)."""
    return all(p >= z for p, _ in naive_factors(n))


def test_build_rejects_bad_limits():
    with pytest.raises(InvalidArgumentError):
        build_sieve(1)
    with pytest.raises(RangeBudgetError):
        build_sieve(MAX_SIEVE_LIMIT + 1)


def test_small_sieve_contents():
    s = build_sieve(30)
    assert s.primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert s.spf[12] == 2 and s.spf[25] == 5 and s.spf[29] == 29


# peak growth is read from the child's own VmHWM (KiB): ru_maxrss would start
# from the peak of the test process, which a child keeps across exec
_PEAK_GROWTH = ("def hwm():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM'))\n"
                "from gpflab.sieve import build_sieve\n"
                "before = hwm()\n"
                "{call}\n"
                "print(hwm() - before)")


def _peak_growth_kib(call: str) -> int:
    out = subprocess.run([sys.executable, "-c", _PEAK_GROWTH.format(call=call)],
                         capture_output=True, text=True, check=True, timeout=120)
    return int(out.stdout)


def test_build_sieve_peak_memory():
    """Reading primes at limit 2e7 fills a byte sieve (19 MiB, freed) and
    keeps the primes (10 MiB), not the spf table; it must grow the peak RSS
    of a fresh process by less than 256 MiB."""
    assert _peak_growth_kib("build_sieve(2 * 10**7).primes") < 256 * 1024


def test_spf_fill_peak_memory():
    """Reading spf at limit 2e7 fills its int32 table (76 MiB) from the
    primes up to isqrt(limit) alone, without the primes up to the limit: 76
    MiB of peak growth in a fresh process, measured.  An int64 table (153
    MiB) would not fit in 160 MiB."""
    call = "assert build_sieve(2 * 10**7).spf.size == 2 * 10**7 + 1"
    assert _peak_growth_kib(call) < 160 * 1024


def test_factorize_known_values(sieve_m):
    assert factorize(705600, sieve_m) == [(2, 6), (3, 2), (5, 2), (7, 2)]
    assert factorize(1, sieve_m) == []
    assert factorize(2, sieve_m) == [(2, 1)]
    assert factorize(999983, sieve_m) == [(999983, 1)]


def test_factorize_certified_range_edges():
    s = build_sieve(10)
    # 120 = 10 * 12 is the largest certified input for a limit-10 table
    assert factorize(120, s) == [(2, 3), (3, 1), (5, 1)]
    assert factorize(101, s) == [(101, 1)]
    with pytest.raises(RangeBudgetError):
        factorize(121, s)
    with pytest.raises(InvalidArgumentError):
        factorize(0, s)


def test_roundtrip_dense(sieve_m):
    for n in range(1, 10_001):
        f = factorize(n, sieve_m)
        assert prod(p**e for p, e in f) == n
        ps = [p for p, _ in f]
        assert ps == sorted(ps)
        assert all(e >= 1 for _, e in f)


def test_gpf_matches_trial_division(sieve_m):
    for n in range(1, 100_001):
        assert greatest_prime_factor(n, sieve_m) == naive_gpf(n)


def test_gpf_batch_matches_scalar(sieve_m):
    rng = np.random.default_rng(7)
    vals = rng.integers(1, 10**9, size=2000)
    out = greatest_prime_factor_batch(vals, sieve_m)
    for v, g in zip(vals.tolist(), out.tolist()):
        assert g == greatest_prime_factor(v, sieve_m)


def test_moebius_divisor_identity(sieve_m):
    # sum of mu over divisors picks out n = 1; mu from the strikes that give
    # the moduli their mu and phi
    N = 10_000
    mu = np.concatenate([[0], _mobius_phi(1, N + 1, sieve_m)[0]])
    acc = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        if mu[d]:
            acc[d::d] += mu[d]
    assert acc[1] == 1
    assert not acc[2:].any()


def test_von_mangoldt_divisor_identity(sieve_m):
    N = 10_000
    lam = np.array([0.0] + [von_mangoldt(n, sieve_m) for n in range(1, N + 1)])
    acc = np.zeros(N + 1)
    for d in range(1, N + 1):
        if lam[d]:
            acc[d::d] += lam[d]
    for n in range(2, N + 1):
        assert abs(acc[n] - log(n)) < 1e-9


def test_tau_ell_multiplicative():
    tabs = {ell: tau_table(999_999, ell) for ell in range(1, 6)}
    for ell, tab in tabs.items():
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            assert tab[p] == ell
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        if np.gcd(m, n) != 1:
            continue
        for ell in (2, 3, 5):
            assert tabs[ell][m * n] == tabs[ell][m] * tabs[ell][n]


def test_tau_ell_known_values():
    assert tau_table(12, 3)[1] == 1
    assert tau_table(12, 2)[12] == 6  # ordinary divisor count
    assert tau_table(12, 3)[8] == 10  # C(3+3-1, 3-1)
    assert tau_table(12, 0)[1] == 1 and tau_table(12, 0)[12] == 0
    assert tau_table(12, 16)[2] == 16
    for ell in (17, -1):  # refused by the name of the order
        with pytest.raises(InvalidArgumentError, match=r"^tau_table needs 0 <= ell <= 16$"):
            tau_table(12, ell)


def test_tau_table_matches_pointwise():
    for ell in (1, 2, 3, 4):
        tab = tau_table(2000, ell)
        for n in range(1, 2001):
            assert tab[n] == prod(comb(e + ell - 1, ell - 1) for _, e in naive_factors(n))


def test_rough_table_matches_pointwise(sieve_m):
    tab = _rough_mask(0, 3000, 7, sieve_m.primes)
    for n in range(1, 3001):
        assert bool(tab[n]) == naive_rough(n, 7)


def test_rough_table_strikes_match_pointwise(sieve_10k):
    # around a square the strike switches to "an unstruck n is prime" once
    # z passes isqrt(limit) + 1
    limits = [0, 1, 2, 3] + [k * k + d for k in (2, 3, 10, 31) for d in (-1, 0, 1)]
    for limit in limits:
        r = isqrt(limit)
        for z in (1, 2, 2.5, 7, r, r + 1, r + 2, limit, limit + 1, inf):
            tab = _rough_mask(0, limit, z, sieve_10k.primes)
            want = [False] + [naive_rough(n, z) for n in range(1, limit + 1)]
            assert tab.tolist() == want, (limit, z)


def test_rough_indicator_edges(sieve_m):
    assert _rough_mask(1, 1, 1000, sieve_m.primes).tolist() == [True]
    # no factor strictly below z
    assert _rough_mask(7, 7, 7, sieve_m.primes).tolist() == [True]
    assert _rough_mask(7, 7, 8, sieve_m.primes).tolist() == [False]


def test_is_prime_u64_spot_checks():
    carmichaels = (561, 1105, 1729, 41041, 25326001, 3215031751)
    for n in carmichaels:
        assert not is_prime_u64(n)
    # 3215031751 above and this one are strong pseudoprimes to the prime
    # bases up to 7 and up to 23 respectively
    assert not is_prime_u64(3825123056546413051)
    for n in (2, 3, 999983, 1_000_003, 2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert is_prime_u64(n)
    for n in (0, 1, 4, 2**61 - 3):
        assert not is_prime_u64(n)
    # a strong pseudoprime to all twelve bases, beyond what they certify
    for n in (318665857834031151167461, 2**64):
        with pytest.raises(InvalidArgumentError):
            is_prime_u64(n)


def test_primes_above_the_head_come_from_segments(monkeypatch):
    # a byte sieve fills the primes up to max(_SEGMENT_CHUNK, isqrt(limit)),
    # segments of _SEGMENT_CHUNK integers the rest; here a few hundred each
    from gpflab import _accel, sieve

    monkeypatch.setattr(sieve, "_SEGMENT_CHUNK", 97)
    for limit in (2, 97, 98, 1_000, 9_409, 9_410, 110_000):
        got = build_sieve(limit).primes
        assert got.dtype == np.int64
        assert np.array_equal(got, _accel.prime_fill(limit)), limit


def test_segmented_primes_beyond_limit(sieve_m):
    got = segmented_primes(1_000_000, 1_010_000, sieve_m).tolist()
    want = [n for n in range(1_000_001, 1_010_001) if naive_is_prime(n)]
    assert got == want
    # fast path inside the table
    got = segmented_primes(10, 50, sieve_m).tolist()
    assert got == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_divisor_list(sieve_m):
    divs = divisor_list(factorize(705600, sieve_m))
    assert len(divs) == 7 * 3 * 3 * 3
    assert divs == sorted(divs)
    assert divs[0] == 1 and divs[-1] == 705600
    assert divisor_list(factorize(1, sieve_m)) == [1]


def test_euler_phi_values(sieve_m):
    assert [euler_phi(n, sieve_m) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_library_roundtrip_helper(sieve_m):
    assert verify_factorization_roundtrip(sieve_m, 100_000)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip_property(sieve_m, n):
    f = factorize(n, sieve_m)
    assert prod(p**e for p, e in f) == n
    for p, _ in f:
        assert is_prime_u64(p)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=2, max_value=10**12))
def test_gpf_is_max_prime_property(sieve_m, n):
    f = factorize(n, sieve_m)
    assert greatest_prime_factor(n, sieve_m) == max(p for p, _ in f)
