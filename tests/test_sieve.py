"""Factorization layer against hand-rolled trial-division oracles."""

from math import isqrt, log, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.sieve import (
    MAX_SIEVE_LIMIT,
    build_sieve,
    divisor_list,
    euler_phi,
    factorize,
    greatest_prime_factor,
    greatest_prime_factor_batch,
    is_prime_u64,
    moebius,
    rough_indicator,
    rough_table,
    segmented_primes,
    smooth_rough_split,
    tau_ell,
    tau_table,
    theta_count,
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


def test_build_rejects_bad_limits():
    with pytest.raises(InvalidArgumentError):
        build_sieve(1)
    with pytest.raises(RangeBudgetError):
        build_sieve(MAX_SIEVE_LIMIT + 1)


def test_small_sieve_contents():
    s = build_sieve(30)
    assert s.primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert s.spf[12] == 2 and s.spf[25] == 5 and s.spf[29] == 29


def test_factorize_known_values(sieve_m):
    assert factorize(705600, sieve_m).factors == [(2, 6), (3, 2), (5, 2), (7, 2)]
    assert factorize(1, sieve_m).factors == []
    assert factorize(2, sieve_m).factors == [(2, 1)]
    assert factorize(999983, sieve_m).factors == [(999983, 1)]


def test_factorize_certified_range_edges():
    s = build_sieve(10)
    # 120 = 10 * 12 is the largest certified input for a limit-10 table
    assert factorize(120, s).reconstruct() == 120
    assert factorize(101, s).factors == [(101, 1)]
    with pytest.raises(RangeBudgetError):
        factorize(121, s)
    with pytest.raises(InvalidArgumentError):
        factorize(0, s)


def test_roundtrip_dense(sieve_m):
    for n in range(1, 10_001):
        f = factorize(n, sieve_m)
        assert prod(p**e for p, e in f.factors) == n
        ps = [p for p, _ in f.factors]
        assert ps == sorted(ps)
        assert all(e >= 1 for _, e in f.factors)


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
    # sum of mu over divisors picks out n = 1
    N = 10_000
    mu = np.array([0] + [moebius(n, sieve_m) for n in range(1, N + 1)])
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


def test_tau_ell_multiplicative(sieve_m):
    for ell in range(1, 6):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            assert tau_ell(p, ell, sieve_m) == ell
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 1000))
        if np.gcd(m, n) != 1:
            continue
        for ell in (2, 3, 5):
            assert tau_ell(m * n, ell, sieve_m) == \
                tau_ell(m, ell, sieve_m) * tau_ell(n, ell, sieve_m)


def test_tau_ell_known_values(sieve_m):
    assert tau_ell(1, 3, sieve_m) == 1
    assert tau_ell(12, 2, sieve_m) == 6  # ordinary divisor count
    assert tau_ell(8, 3, sieve_m) == 10  # C(3+3-1, 3-1)
    assert tau_ell(1, 0, sieve_m) == 1 and tau_ell(12, 0, sieve_m) == 0
    with pytest.raises(InvalidArgumentError):
        tau_ell(12, 17, sieve_m)
    with pytest.raises(InvalidArgumentError):
        tau_ell(12, -1, sieve_m)


def test_tau_table_matches_pointwise(sieve_m):
    for ell in (1, 2, 3, 4):
        tab = tau_table(2000, ell)
        for n in range(1, 2001):
            assert tab[n] == tau_ell(n, ell, sieve_m)


def test_smooth_rough_split(sieve_m):
    for z in (2, 10, 100):
        for t in range(1, 100_001):
            sm, rg = smooth_rough_split(t, z, sieve_m)
            assert sm * rg == t
            assert rough_indicator(rg, z, sieve_m) == 1
            # smooth part carries every factor below z
            if sm > 1:
                assert naive_gpf(sm) < z


def test_rough_table_matches_pointwise(sieve_m):
    tab = rough_table(3000, 7, sieve_m)
    for n in range(1, 3001):
        assert bool(tab[n]) == bool(rough_indicator(n, 7, sieve_m))


def test_rough_indicator_edges(sieve_m):
    assert rough_indicator(1, 1000, sieve_m) == 1
    assert rough_indicator(7, 7, sieve_m) == 1  # no factor strictly below z
    assert rough_indicator(7, 8, sieve_m) == 0


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


def test_segmented_primes_beyond_limit(sieve_m):
    got = segmented_primes(1_000_000, 1_010_000, sieve_m).tolist()
    want = [n for n in range(1_000_001, 1_010_001) if naive_is_prime(n)]
    assert got == want
    # fast path inside the table
    got = segmented_primes(10, 50, sieve_m).tolist()
    assert got == [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_theta_count_brute(sieve_m):
    def smooth_part(n: int, u: int) -> int:
        out = 1
        m = n
        p = 2
        while p * p <= m:
            while m % p == 0:
                m //= p
                if p <= u:
                    out *= p
            p += 1
        if m > 1 and m <= u:
            out *= m
        return out

    for (x, u, v) in ((100, 7, 101), (500, 5, 10), (1000, 3, 2), (100, 2, 1)):
        want = sum(1 for n in range(1, x + 1) if smooth_part(n, u) >= v)
        assert theta_count(x, u, v, sieve_m) == want


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
    assert prod(p**e for p, e in f.factors) == n
    for p, _ in f.factors:
        assert is_prime_u64(p)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=2, max_value=10**12))
def test_gpf_is_max_prime_property(sieve_m, n):
    f = factorize(n, sieve_m)
    assert greatest_prime_factor(n, sieve_m) == max(p for p, _ in f.factors)
