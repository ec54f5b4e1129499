"""Progression counts and discrepancy aggregates against brute enumeration.

Every oracle here recomputes from scratch (trial division, explicit loops
over residues) rather than reusing library internals.
"""

import math
import tracemalloc
from math import gcd, log

import numpy as np
import pytest

from gpflab import _accel, ap
from gpflab._accel import _fixed, _round_fixed
from gpflab.ap import (
    _mobius_phi,
    bv_sum,
    default_rough_z,
    dyadic_abs_sum,
    error_term,
    lambda_extension_sum,
    pi_ap,
    pi_of,
    psi_ap,
    psi_cheb,
    signed_sum,
    theorem4_sum,
    theta_of,
    trivial_bound_ratio,
)
from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.sieve import build_sieve


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_primes(x: int) -> list[int]:
    return [p for p in range(2, x + 1) if naive_is_prime(p)]


def naive_lambda(n: int) -> float:
    if n < 2:
        return 0.0
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return log(p) if m == 1 else 0.0
        p += 1
    return log(n)


def naive_phi(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)


def naive_mu_phi(n: int) -> tuple[int, int]:
    mu, phi, p = 1, n, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            mu = 0 if e > 1 else -mu
            phi -= phi // p
        p += 1
    if n > 1:
        mu, phi = -mu, phi - phi // n
    return mu, phi


def test_mobius_phi_matches_trial_division(sieve_10k):
    # [2, 4) and [5, 8) hold no multiple of any p^2
    windows = [(1, 2), (1, 400), (2, 4), (5, 8), (999_999, 1_000_001)]
    rng = np.random.default_rng(5)
    for _ in range(50):
        lo = int(rng.integers(1, 1_000_000))
        windows.append((lo, lo + int(rng.integers(1, 64))))
    for lo, hi in windows:
        mu, phi = _mobius_phi(lo, hi, sieve_10k)
        assert mu.dtype == phi.dtype == np.int64
        want = [naive_mu_phi(n) for n in range(lo, hi)]
        assert list(zip(mu.tolist(), phi.tolist())) == want, (lo, hi)
    small = build_sieve(10)
    _mobius_phi(1, 121, small)  # isqrt(120) == 10
    with pytest.raises(RangeBudgetError):
        _mobius_phi(1, 122, small)


def test_mobius_phi_across_two_word_edges():
    # phi takes each prime p by one wrapping multiply by (p - 1) / p mod 2**64
    sympy = pytest.importorskip("sympy")
    sieve = build_sieve(65_600)
    for lo, hi in (((1 << 31) - 300, (1 << 31) + 300), ((1 << 32) - 300, (1 << 32) + 300),
                   (1, 300)):
        mu, phi = _mobius_phi(lo, hi, sieve)
        assert mu.tolist() == [sympy.mobius(n) for n in range(lo, hi)], lo
        assert phi.tolist() == [sympy.totient(n) for n in range(lo, hi)], lo


def test_coprime_moduli_match_python_remainder():
    big = int("9" * 199 + "7")  # 200 digits
    cases = [(a, lo, hi) for a in (1, -1, 7, -7, 2**31, -(2**31) - 1, 2**62 + 1, -(2**64),
                                   big, -big, 0)
             for lo, hi in ((1, 500), (2**31 - 200, 2**31 + 200), (2**32 - 400, 2**32))]
    for a, lo, hi in cases:
        qs, res = ap._coprime_moduli(a, lo, hi)
        want = [q for q in range(lo, hi) if gcd(q, a) == 1]
        assert qs.dtype == res.dtype == np.int64
        assert qs.tolist() == want, (a, lo)
        assert res.tolist() == [a % q for q in want], (a, lo)


def test_global_counts_known_values(sieve_10k):
    assert pi_of(100, sieve_10k) == 25
    assert abs(theta_of(10, sieve_10k) - log(210)) < 1e-12
    assert abs(psi_cheb(10, sieve_10k) - log(2520)) < 1e-12
    assert pi_of(1, sieve_10k) == 0
    assert psi_cheb(1.9, sieve_10k) == 0.0
    xs = np.arange(10_001)
    want = np.cumsum([naive_is_prime(n) for n in range(10_001)]).tolist()
    assert [pi_of(x, sieve_10k) for x in xs.tolist()] == want
    assert [int(sieve_10k.pi(x)) for x in xs.tolist()] == want
    assert sieve_10k.pi(xs).tolist() == want


def test_pi_ap_matches_trial_division(sieve_10k):
    ps = naive_primes(5000)
    for q in (3, 4, 7, 12):
        for a in range(q):
            want = sum(1 for p in ps if p % q == a)
            assert pi_ap(5000, q, a, sieve_10k) == want
    # floats and negative residues reduce mod q
    assert pi_ap(100.7, 4, -1, sieve_10k) == pi_ap(100, 4, 3, sieve_10k)


def test_psi_ap_matches_trial_division(sieve_10k):
    for q, a in ((3, 1), (5, 2), (8, 7), (6, 3)):
        want = math.fsum(naive_lambda(n) for n in range(1, 2001) if n % q == a)
        assert abs(psi_ap(2000, q, a, sieve_10k) - want) < 1e-9


def _by_value(rep):
    """What a report says, in a form that compares with ==."""
    return rep.x, rep.total, rep.normalized, rep.per_q


def test_prime_powers_order_free(monkeypatch, sieve_m):
    """psi_ap and the psi discrepancies read the prime powers unsorted;
    sorting them by n, as they once were, changes no bit."""
    def run():
        return ([psi_ap(x, q, a, sieve_m) for x in (10, 1000, 10**6)
                 for q, a in ((1, 0), (3, 1), (4, 3), (10, 7))],
                [_by_value(dyadic_abs_sum(x, Q, 1, sieve_m, use_psi=True))
                 for x in (10, 1000, 10**6) for Q in (2, 5, 30)])
    got = run()
    unsorted = ap._prime_powers

    def by_n(x, sieve):
        ns, ws = unsorted(x, sieve)
        order = np.argsort(ns, kind="stable")
        return ns[order], ws[order]

    monkeypatch.setattr(ap, "_prime_powers", by_n)
    assert run() == got


def test_error_term_sum_rule(sieve_10k):
    # summed over reduced residues the progression counts rebuild pi(x)
    # except for the primes dividing q
    x = 10_000
    for q in range(2, 51):
        s = math.fsum(error_term(pi_ap(x, q, a, sieve_10k), x, q, sieve_10k)
                      for a in range(1, q + 1) if gcd(a, q) == 1)
        dropped = sum(1 for p in range(2, q + 1) if q % p == 0 and naive_is_prime(p))
        assert abs(s + dropped) < 1e-6


def test_error_term_requires_a_modulus(sieve_10k):
    # a class coprime to q is the caller's to pick; q itself is checked
    with pytest.raises(InvalidArgumentError, match="error_term needs q >= 1"):
        error_term(0, 100, 0, sieve_10k)


def test_psi_theta_gap(sieve_m):
    for x in (4, 8, 9, 32, 100, 1024, 59049, 262144, 1_000_000):
        gap = psi_cheb(x, sieve_m) - theta_of(x, sieve_m)
        assert 0.0 <= gap <= 3.0 * math.sqrt(x) * log(x)


def _brute_bv(x: int, Q: int) -> float:
    ps = naive_primes(x)
    total = 0.0
    for q in range(2, Q + 1):
        phi = naive_phi(q)
        best = 0.0
        for a in range(q):
            if gcd(a, q) != 1:
                continue
            cnt = 0
            for i, p in enumerate(ps, start=1):
                cnt += p % q == a
                best = max(best, abs(cnt - i / phi))
        total += best
    return total


def test_bv_sum_matches_brute(sieve_10k):
    rep = bv_sum(2000, 20, sieve_10k)
    assert abs(rep.total - _brute_bv(2000, 20)) < 1e-9
    assert rep.per_q[0] == (1, 0.0)
    assert rep.normalized == rep.total / 2000.0


def _scalar_bv_max(primes: list[int], q: int, phi: int) -> float:
    """bv_max_scan one prime at a time, in the same float expressions: each
    coprime class's deviation at its steps, just before each step, and after
    the last prime."""
    counts: dict[int, int] = {}
    best = 0.0
    for k, p in enumerate(primes):
        a = p % q
        if gcd(a, q) != 1:
            continue
        rank = counts[a] = counts.get(a, 0) + 1
        best = max(best, rank - (k + 1) / phi, k / phi - (rank - 1))
    least = min(counts.values()) if len(counts) == phi else 0
    return max(best, len(primes) / phi - least)


# every prime divides q at x = 2 and q even, at x = 3 and 6 | q, at x = 5 and
# 30 | q; residues pass as uint8 up to q = 256, uint16 up to 65536, else int64
_SCAN_MODULI = [*range(1, 301), 65536, 65537, 70000, 510510]


@pytest.mark.parametrize("x", [2, 3, 5, 30, 1000, 12345])
def test_bv_max_scan_matches_scalar_walk(sieve_m, x):
    ps = sieve_m.primes[:sieve_m.pi(x)]
    walk = ps.tolist()
    for q in _SCAN_MODULI:
        want = _scalar_bv_max(walk, q, naive_phi(q))
        assert _accel.bv_max_scan(ps % q, q) == want, (x, q)
        assert _accel.bv_max_scan(ps.astype(np.uint32) % q, q) == want, (x, q)


def test_bv_sum_q2_peak_memory():
    """At q = 2 every prime ties for the largest key.  Its deviations are
    taken a block of primes at a time, so bv_sum(2e7, 2) holds about 36 MiB
    of the numpy heap at its peak, measured, where all of them at once took
    103 MiB."""
    sieve = build_sieve(2 * 10**7)
    assert sieve.primes.size == 1_270_607  # filled before the trace
    tracemalloc.start()
    try:
        assert bv_sum(2e7, 2, sieve).total == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_bv_sum_monotone_in_q(sieve_10k):
    totals = [bv_sum(2000, Q, sieve_10k).total for Q in (5, 10, 20, 40)]
    for lo, hi in zip(totals, totals[1:]):
        assert hi >= lo - 1e-12


def test_signed_sum_matches_brute(sieve_10k):
    x, Q, a = 3000, 15, 2
    ps = naive_primes(x)
    want = 0.0
    for q in range(2, Q + 1):
        if gcd(q, a) != 1:
            continue
        cnt = sum(1 for p in ps if p % q == a % q)
        want += cnt - len(ps) / naive_phi(q)
    rep = signed_sum(x, Q, a, sieve_10k)
    assert abs(rep.total - want) < 1e-9
    assert all(gcd(q, a) == 1 for q, _ in rep.per_q)


def test_dyadic_abs_sum_matches_brute(sieve_10k):
    x, Q, a = 3000, 15, 1
    ps = naive_primes(x)
    for use_psi in (False, True):
        want = 0.0
        for q in range(Q, 2 * Q):
            if gcd(q, a) != 1:
                continue
            phi = naive_phi(q)
            if use_psi:
                mine = math.fsum(naive_lambda(n) for n in range(1, x + 1)
                                 if n % q == a % q)
                full = math.fsum(naive_lambda(n) for n in range(1, x + 1))
            else:
                mine = sum(1 for p in ps if p % q == a % q)
                full = len(ps)
            want += abs(mine - full / phi)
        rep = dyadic_abs_sum(x, Q, a, sieve_10k, use_psi=use_psi)
        assert abs(rep.total - want) < 1e-9


def _brute_theorem4(x: int, Q: int, P1: int, P2: int, a: int) -> list[float]:
    window = [p for p in naive_primes(min(P2, x)) if p > P1]
    terms = []
    for q in range(Q, 2 * Q):
        if gcd(q, a) != 1:
            continue
        a_side = 0.0
        for v in range(1, x + 1):
            if (v - a) % q != 0:
                continue
            a_side += math.fsum(log(p) for p in window if v % p == 0)
        w_side = 0.0
        for p in window:
            if q % p == 0:
                continue
            cnt = sum(1 for m in range(1, x // p + 1) if gcd(m, q) == 1)
            w_side += log(p) * cnt
        terms.append(a_side - w_side / naive_phi(q))
    return terms


@pytest.mark.parametrize("a", [7, -3])
def test_theorem4_sum_matches_brute(sieve_10k, a):
    x, Q, P1, P2 = 400, 5, 3, 50
    want = _brute_theorem4(x, Q, P1, P2, a)
    rep = theorem4_sum(x, Q, P1, P2, a, sieve_10k)
    got = [v for _, v in rep.per_q]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-9
    assert abs(rep.total - math.fsum(abs(w) for w in want)) < 1e-9


def _brute_lambda_ext(x: int, Q: int, P1: int, P2: int, a: int, z: float):
    stars = []
    for p in naive_primes(min(P2, x)):
        if p < z:
            continue
        pk = p
        w = log(p)
        while pk <= min(P2, x):
            if pk > P1:
                stars.append((pk, w))
            pk *= p
    terms = []
    for q in range(Q, 2 * Q):
        if gcd(q, a) != 1:
            continue
        s1 = s2 = 0.0
        for n, w in stars:
            if gcd(n, q) != 1:
                continue
            lo, hi = x // (2 * n), x // n
            for t in range(lo + 1, hi + 1):
                if (n * t - a) % q == 0:
                    s1 += w
                if gcd(t, q) == 1:
                    s2 += w / naive_phi(q)
        terms.append(s1 - s2)
    return terms


def test_lambda_extension_matches_brute(sieve_10k):
    x, Q, P1, P2, a, z = 600, 6, 5, 80, 7, 2.0
    want = _brute_lambda_ext(x, Q, P1, P2, a, z)
    rep = lambda_extension_sum(x, Q, P1, P2, a, z, sieve_10k)
    got = [v for _, v in rep.per_q]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-9


def test_default_rough_z():
    x = 1_000_000.0
    want = math.exp(log(x) / log(log(x)) ** 2)
    assert abs(default_rough_z(x) - want) < 1e-12
    assert math.isfinite(default_rough_z(2.8264))
    for bad in (2.0, 2.8, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError):
            default_rough_z(bad)
    # just above 2.8, log x / (log log x)^2 passes the largest float exponent
    for x in (2.8000001, 2.81, 2.82639):
        with pytest.raises(RangeBudgetError, match=f"at x = {x}$"):
            default_rough_z(x)


def test_reports_are_consistent(sieve_10k):
    signed = signed_sum(2000, 12, 5, sieve_10k)
    assert abs(signed.total - math.fsum(v for _, v in signed.per_q)) < 1e-9
    for rep in (dyadic_abs_sum(2000, 8, 3, sieve_10k),
                theorem4_sum(400, 5, 3, 50, 1, sieve_10k),
                lambda_extension_sum(600, 6, 5, 80, 1, 2.0, sieve_10k)):
        recomb = math.fsum(abs(v) for _, v in rep.per_q)
        assert abs(rep.total - recomb) <= 1e-9 * max(1.0, abs(rep.total))
        assert rep.normalized == rep.total / rep.x


def _aggregates(sieve):
    """The five aggregates at small sizes with a != 1, keyed by case name."""
    return {
        "bv": lambda **kw: bv_sum(20_000, 12, sieve, **kw),
        "signed": lambda **kw: signed_sum(20_000, 24, 5, sieve, **kw),
        "dyadic_pi": lambda **kw: dyadic_abs_sum(20_000, 10, 7, sieve, **kw),
        "dyadic_psi": lambda **kw: dyadic_abs_sum(20_000, 10, 7, sieve,
                                                  use_psi=True, **kw),
        "thm4": lambda **kw: theorem4_sum(20_000, 12, 2, 3000, 101, sieve, **kw),
        "thm4_neg": lambda **kw: theorem4_sum(20_000, 9, 150, 20_000, -3, sieve,
                                              **kw),
        # D = m_max = 19 < 2Q - 1, the shape of the default P1 = sqrt(x)
        "thm4_m_max": lambda **kw: theorem4_sum(20_000, 12, 1000.5, 20_000, 1, sieve,
                                                **kw),
        "thm4_p1_one": lambda **kw: theorem4_sum(5_000, 10, 1, 5_000, -7, sieve, **kw),
        "lambda": lambda **kw: lambda_extension_sum(20_000, 10, 30, 20_000, 7, 3.0,
                                                    sieve, **kw),
        "lambda_small_p1": lambda **kw: lambda_extension_sum(2_000, 9, 1, 2_000, -5,
                                                             2.0, sieve, **kw),
    }


@pytest.fixture(scope="module")
def sieve_20k():
    return build_sieve(20_200)


# float.hex of total and of every per_q value, recorded from the per-modulus
# loops (divisor scatter, per-residue cumsum scans, per-star modular inverses)
# that the progression-mass engine replaced, and for thm4_m_max and
# thm4_p1_one from the engine's loops over window primes and over d; the
# engine must reproduce them bit for bit
GOLDEN = {
    'bv': ('0x1.0dd5555555555p+7', [
        # q = 1..12, 12 moduli
        '0x0.0p+0', '0x1.0000000000000p+0', '0x1.c000000000000p+3',
        '0x1.0000000000000p+4', '0x1.7800000000000p+3', '0x1.c000000000000p+3',
        '0x1.0555555555550p+3', '0x1.4000000000000p+4', '0x1.8000000000000p+3',
        '0x1.7800000000000p+3', '0x1.2000000000000p+3', '0x1.1400000000000p+4',
    ]),
    'signed': ('0x1.a3d7a91d7a924p+4', [
        # q = 1..24, 20 moduli
        '0x0.0p+0', '-0x1.0000000000000p+0', '0x1.8000000000000p+2',
        '-0x1.8000000000000p+2', '0x1.4000000000000p+2', '0x1.0000000000000p+0',
        '0x1.c000000000000p+1', '0x1.8000000000000p+1', '-0x1.1999999999980p+1',
        '0x1.2000000000000p+2', '0x1.2000000000000p+2', '0x1.0000000000000p+0',
        '0x1.0000000000000p-2', '-0x1.8000000000000p-2', '0x1.8000000000000p+1',
        '0x1.5555555555550p+2', '0x1.4000000000000p+1', '-0x1.1999999999980p+1',
        '0x1.745d1745d1800p-3', '-0x1.c000000000000p+0',
    ]),
    'dyadic_pi': ('0x1.457777777777cp+4', [
        # q = 10..19, 9 moduli
        '0x1.c000000000000p+1', '0x1.6666666666680p+1', '0x1.c000000000000p+1',
        '0x1.8000000000000p+0', '0x1.1000000000000p+2', '-0x1.8000000000000p-1',
        '-0x1.6000000000000p+0', '-0x1.0000000000000p+0', '-0x1.aaaaaaaaaaac0p+0',
    ]),
    'dyadic_psi': ('0x1.00c5a6a4b4c90p+7', [
        # q = 10..19, 9 moduli
        '-0x1.211d9d8c7c400p+2', '0x1.a6f0f04fbd000p+2', '-0x1.0912abb0fd600p+3',
        '-0x1.741ef96234600p+2', '0x1.359bbc6f6ed80p+4', '-0x1.b0efb43fce200p+4',
        '-0x1.a842e73233100p+4', '0x1.c618f9d089000p+3', '-0x1.00bda8b3d7a80p+4',
    ]),
    'thm4': ('0x1.93d8083576dc0p+7', [
        # q = 12..23, 12 moduli
        '-0x1.1cb5e6cd0a400p+3', '0x1.3318613f9d000p+1', '0x1.107137224d400p+5',
        '-0x1.c84a6559ab000p+0', '-0x1.74cc77989e000p-1', '-0x1.639709b8b0000p-4',
        '0x1.bd7c4afaed400p+3', '0x1.aaeff5b1b2800p+2', '-0x1.1cc38ba6198c0p+6',
        '0x1.7d35d0bb5b400p+4', '0x1.2541fe6751e00p+4', '-0x1.4091121794c00p+4',
    ]),
    'thm4_neg': ('0x1.24aebb45cbd00p+6', [
        # q = 10..17, 6 moduli
        '0x1.a0be37f444800p+3', '0x1.7cff6b7bd0000p+3', '-0x1.b2c67b1f01e00p+3',
        '-0x1.2a6aa8ba86600p+3', '0x1.7785e9041e000p+3', '0x1.b30129e0a3c00p+3',
    ]),
    'thm4_m_max': ('0x1.2d3bbacac7fe8p+8', [
        # q = 12..23, 12 moduli
        '-0x1.f2f967742f480p+5', '-0x1.2996020c08000p+1', '-0x1.6706b0c7b0000p+2',
        '-0x1.5b2411584f400p+4', '-0x1.070f1f37188c0p+5', '-0x1.9fa9a7a066600p+5',
        '-0x1.f4c41f2cca200p+4', '-0x1.4183eeaf9d600p+4', '-0x1.89a6550fe4280p+4',
        '-0x1.9dcc7ac73ab00p+3', '-0x1.fc2a41de68d00p+4', '0x1.d9ff80d8ab800p+1',
    ]),
    'thm4_p1_one': ('0x1.0f9a708207310p+6', [
        # q = 10..19, 9 moduli
        '0x1.d7323ff238800p+0', '-0x1.e66d4ebd44800p+2', '-0x1.d58a8c9b2a000p+0',
        '-0x1.c39895bb5c000p-3', '-0x1.bdf1e27289400p+3', '-0x1.89f0b1ca9c300p+4',
        '-0x1.b0c871a5eb400p+2', '0x1.bb6a7745d5800p+2', '0x1.0a144c96b7100p+2',
    ]),
    'lambda': ('0x1.8eb2bfcff1700p+5', [
        # q = 10..19, 9 moduli
        '0x1.8a166ca0af000p+1', '0x1.0eb5d899c6000p-1', '-0x1.0344a3a54e000p+1',
        '-0x1.f57ad828a1800p+2', '-0x1.dd1bcf442b000p+1', '0x1.6ab7195aff400p+2',
        '0x1.2d1e04e014d00p+3', '-0x1.9c0b83d0f6c00p+2', '0x1.64052a493ed00p+3',
    ]),
    'lambda_small_p1': ('0x1.4f5fe549aa5c0p+4', [
        # q = 9..17, 7 moduli
        '-0x1.6bac67f4d9800p+0', '0x1.956a87c8e0c00p-1', '0x1.d7b801a010d00p+1',
        '0x1.6d5ecb57c8400p-1', '0x1.3473b8fb0ee80p+2', '0x1.cab13314d8180p+1',
        '-0x1.7c92fd6fda940p+2',
    ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_aggregates_match_golden_bits(sieve_20k, name):
    rep = _aggregates(sieve_20k)[name]()
    total, per_q = GOLDEN[name]
    assert rep.total.hex() == total
    assert [float(v).hex() for _, v in rep.per_q] == per_q


@pytest.mark.parametrize("block", [8, 24, 256])
def test_pair_blocks_do_not_change_bits(sieve_20k, monkeypatch, block):
    # the pair enumerations go a block of _accel._BLOCK at a time; small blocks
    # split every table and modulus range into many, and must keep every bit
    monkeypatch.setattr(_accel, "_BLOCK", block)
    for name in ("thm4", "thm4_neg", "thm4_m_max", "thm4_p1_one", "lambda",
                 "lambda_small_p1"):
        rep = _aggregates(sieve_20k)[name]()
        assert rep.total.hex() == GOLDEN[name][0]
        assert [float(v).hex() for _, v in rep.per_q] == GOLDEN[name][1]


def test_threads_do_not_change_results(sieve_20k):
    call = _aggregates(sieve_20k)["bv"]
    one = call(threads=1)
    two = call(threads=2)
    assert one.total == two.total
    assert one.per_q == two.per_q
    wide = [_by_value(bv_sum(20_000, 150, sieve_20k, threads=n)) for n in (1, 2)]
    assert wide[0] == wide[1]


def test_fixed_point_sums_round_like_fsum():
    # the engine's exact sums must agree with math.fsum to the last bit,
    # including ties and terms far below the largest one
    rng = np.random.default_rng(7)
    cases = [np.array([2.0**53, 1.0, 2.0**-20]), np.array([1.0, 2.0**-53]),
             np.array([1.0, 2.0**-53, 2.0**-105]), np.zeros(3)]
    for _ in range(300):
        v = rng.random(int(rng.integers(1, 40))) * 2.0 ** rng.integers(-8, 40)
        v[rng.random(v.size) < 0.2] = 0.0
        cases.append(v)
    for v in cases:
        limbs, base = _fixed(v)
        got = _round_fixed(limbs.sum(axis=0, keepdims=True), base)[0]
        assert got.hex() == math.fsum(v.tolist()).hex()


def _round_fixed_per_row(rows: np.ndarray, base: int) -> np.ndarray:
    # the reference: each carried row read as one Python int, then divided
    rows = np.concatenate([rows, np.zeros((rows.shape[0], 1), dtype=np.int64)], axis=1)
    for k in range(rows.shape[1] - 1):
        carry = rows[:, k] >> 32
        rows[:, k] -= carry << 32
        rows[:, k + 1] += carry
    data = rows.astype("<u4").tobytes()
    width, scale = 4 * rows.shape[1], 1 << -base
    return np.fromiter((int.from_bytes(data[i:i + width], "little") / scale
                        for i in range(0, len(data), width)), np.float64, rows.shape[0])


def test_round_fixed_matches_the_per_row_form():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(3_000):
        m, width = int(rng.integers(1, 20)), int(rng.integers(1, 6))
        rows = rng.integers(0, 2 ** int(rng.integers(1, 63)), size=(m, width), dtype=np.int64)
        rows[rng.random(rows.shape) < 0.3] = 0
        cases.append((rows, int(rng.integers(-200, 0))))
    # exact ties (2**53 + 1) * 2**k, and their neighbours, across limbs
    for k in range(1, 100):
        for d in (-1, 0, 1):
            v = ((1 << 53) + 1 << k) + d
            limbs = [v >> 32 * i & 0xFFFFFFFF for i in range(v.bit_length() // 32 + 1)]
            cases += [(np.array([limbs], dtype=np.int64), base) for base in (-1, -53, -300)]
    for rows, base in cases:
        want = _round_fixed_per_row(rows.copy(), base)
        got = _round_fixed(rows.copy(), base)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()], (rows, base)


def test_trivial_bound_ratio(sieve_10k):
    rep = bv_sum(2000, 10, sieve_10k)
    assert abs(trivial_bound_ratio(rep) - rep.total / (2000.0 * log(4000.0))) < 1e-15


def test_argument_validation(sieve_10k):
    with pytest.raises(InvalidArgumentError):
        pi_ap(100, 0, 1, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        bv_sum(100, 0, sieve_10k)
    with pytest.raises(RangeBudgetError):
        bv_sum(20_001, 5, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        theorem4_sum(400, 5, 3, 50, 0, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        theorem4_sum(400, 5, 50, 3, 1, sieve_10k)
    # the progressions are reduced in int64: |a| < 2**63, refused by name
    for a in (2**63, -2**63, 10**30):
        with pytest.raises(RangeBudgetError, match=r"\|a\| < 2\*\*63"):
            theorem4_sum(400, 5, 3, 50, a, sieve_10k)
    # the largest modulus numpy reduces by is 2**63 - 1
    assert pi_ap(100, 2**63 - 1, 97, sieve_10k) == 1
    with pytest.raises(RangeBudgetError, match=r"q < 2\*\*63"):
        pi_ap(100, 2**63, 1, sieve_10k)


@pytest.mark.parametrize("x, Q, P1, P2, a", [
    (200_000, 19_071, math.sqrt(200_000), 200_000, 40_009),  # the CLI's window at 2e5
    (20_000, 60, 2, 3000, -(10**6 + 3)),
    (5000, 10, 1, 5000, 7),
    (5000, 9, 70, 5000, -5000),
])
def test_theorem4_reads_no_prime_above_x(x, Q, P1, P2, a):
    # a sieve of x answers as one that also covers every |p*m - a|
    small = theorem4_sum(x, Q, P1, P2, a, build_sieve(x))
    large = theorem4_sum(x, Q, P1, P2, a, build_sieve(x + abs(a) + 2))
    assert [v.hex() for v in small.values] == [v.hex() for v in large.values]
    assert small.total.hex() == large.total.hex()


def test_theorem4_reads_a_by_its_residues():
    # 1000000007 = 3527 (mod lcm(5..9) = 2520), and neither is at most x
    sieve = build_sieve(500)
    want = theorem4_sum(500, 5, math.sqrt(500), 500, 3527, sieve)
    got = theorem4_sum(500, 5, math.sqrt(500), 500, 1_000_000_007, sieve)
    assert [v.hex() for v in got.values] == [v.hex() for v in want.values]
    assert got.total.hex() == want.total.hex()
    assert f"{got.total:.15g}" == "20.2184341718317"


def test_moduli_beyond_the_sieve_are_refused_before_the_work(monkeypatch):
    # moduli up to 2e4 need the primes up to 141; the per-modulus work reads
    # the sieve's pi (signed/dyadic) or starts at the gather (theorem4)
    sieve = build_sieve(100)

    def boom(*_):
        raise AssertionError("per-modulus work started")

    monkeypatch.setattr(type(sieve), "pi", boom)
    for call in (lambda: signed_sum(100, 20_000, 1, sieve),
                 lambda: dyadic_abs_sum(100, 10_000, 1, sieve),
                 lambda: dyadic_abs_sum(100, 10_000, 1, sieve, use_psi=True)):
        with pytest.raises(RangeBudgetError, match="need a sieve limit of at least 141"):
            call()
    monkeypatch.undo()
    monkeypatch.setattr(_accel, "divisor_scatter", boom)
    with pytest.raises(RangeBudgetError, match="need a sieve limit of at least 141"):
        theorem4_sum(100, 10_000, 10, 100, 1, sieve)


def test_theorem4_weights_take_math_log():
    # np.log misses math.log by an ulp at p = 285343 and 287549; with a = p,
    # log p ends one progression sum per modulus, so the total shows which log
    # the product table used (recorded from its per-prime loop of math.log)
    sieve = build_sieve(290_000)
    for a, total in ((285343, "0x1.7050cd00c4c6ap+10"), (287549, "0x1.b5f334878032ep+10")):
        assert theorem4_sum(290_000, 100, 285_000, 290_000, a, sieve).total.hex() == total
