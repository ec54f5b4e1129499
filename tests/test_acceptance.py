"""Acceptance suite: one test per advertised guarantee, desk-scale sizes.

Each test states its tolerance and, where one is promised, its time budget.
Oracles are rebuilt here from first principles (an independent boolean
sieve, a last-touch greatest-prime-factor table, explicit pair loops) so a
library bug cannot hide behind its own tables.  conftest.py schedules this
module after the unit suites and records the session start time that the
final wall-clock check reads.
"""

import csv
import math
import time
from math import gcd, log
from pathlib import Path

import numpy as np
import pytest

from gpflab import ap, products, sequences, shifted, smooth
from gpflab.cli import main as cli_main
from gpflab.sieve import (build_sieve, greatest_prime_factor_batch,
                          verify_factorization_roundtrip)


# ---------------------------------------------------------------------------
# independent oracles (no library calls)


def _eratosthenes(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


@pytest.fixture(scope="session")
def oracle():
    """(primes up to 1e6, last-touch gpf table up to 1e6).

    Marking multiples of each prime in ascending order leaves the largest
    prime factor as the last value written at every index.
    """
    limit = 10**6
    primes = _eratosthenes(limit)
    gpf = np.zeros(limit + 1, dtype=np.int64)
    gpf[1] = 1
    for p in primes:
        gpf[p::p] = p
    return primes, gpf


@pytest.fixture(scope="session")
def oracle_lambda_10k(oracle):
    """von Mangoldt table for n <= 1e4 derived from the last-touch gpf."""
    _, gpf = oracle
    lam = np.zeros(10**4 + 1, dtype=np.float64)
    for n in range(2, 10**4 + 1):
        p = int(gpf[n])
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            lam[n] = log(p)
    return lam


def _naive_factor(n: int) -> list:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_factor_roundtrip_and_gpf_oracle(oracle, sieve_m):
    """Factorizations multiply back and P+ matches the last-touch table
    for every n <= 1e6, exactly, within 30 seconds."""
    t0 = time.monotonic()
    _, gpf_table = oracle
    assert verify_factorization_roundtrip(sieve_m, 10**6)
    values = np.arange(1, 10**6 + 1, dtype=np.int64)
    batch = greatest_prime_factor_batch(values, sieve_m)
    assert np.array_equal(batch, gpf_table[1:])
    assert time.monotonic() - t0 < 30.0


def test_criterion_02_divisor_expansion_equals_von_mangoldt(
        oracle_lambda_10k, sieve_10k):
    """The alternating divisor expansion reproduces Lambda(n) to 1e-9 for
    all n <= 1e4 at depths J in {1, 2, 3}, within 60 seconds."""
    t0 = time.monotonic()
    worst = 0.0
    for n in range(1, 10**4 + 1):
        want = oracle_lambda_10k[n]
        for J in (1, 2, 3):
            res = sequences.heath_brown_terms(n, float(n), J, sieve_10k)
            worst = max(worst, abs(res.total - want))
    assert worst < 1e-9
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_residue_concentration_inequality(sieve_10k):
    """The pair-concentration inequality holds for 500 random subsets of
    [1, 1e4] plus the dense and empty sets, within 60 seconds."""
    t0 = time.monotonic()
    N = 10**4
    rng = np.random.default_rng(20260819)
    sets = [shifted.IndexSet.dense(N),
            shifted.IndexSet.from_iterable([], n_max=N)]
    for _ in range(500):
        card = int(rng.integers(1, N + 1))
        members = np.sort(rng.choice(N, size=card, replace=False) + 1)
        sets.append(shifted.IndexSet.from_iterable(members, n_max=N))
    for U in sets:
        res = products.square_errors_check(U, N, sieve_10k)
        assert res.holds
        if len(U) == 0:
            assert res.lhs == 0.0 and res.rhs == 0.0
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_log_mass_split_dual_route(sieve_10k):
    """log_E = log_E1 + log_E2 and the residue-counting log_E1 agrees with
    per-pair factorization at 1e-6 relative, for dense sets at every
    N <= 300 and for 20 random sparse pairs."""
    # triples (value, prime, e*log p) for every value <= 300^2 + 1,
    # factored by repeated division with a locally built gpf table
    vmax = 300 * 300 + 1
    primes = _eratosthenes(vmax)
    gpf = np.zeros(vmax + 1, dtype=np.int64)
    gpf[1] = 1
    for p in primes:
        gpf[p::p] = p
    v_list, p_list, w_list = [], [], []
    for v in range(2, vmax + 1):
        m = v
        while m > 1:
            p = int(gpf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            v_list.append(v)
            p_list.append(p)
            w_list.append(e * log(p))
    v_arr = np.array(v_list, dtype=np.int64)
    p_arr = np.array(p_list, dtype=np.int64)
    w_arr = np.array(w_list, dtype=np.float64)
    logv = np.zeros(vmax + 1)
    logv[1:] = np.log(np.arange(1, vmax + 1, dtype=np.float64))

    side = np.arange(1, 301, dtype=np.int64)
    for N in range(1, 301):
        A = shifted.IndexSet.dense(N)
        prods = np.outer(side[:N], side[:N]).ravel() + 1
        mult = np.bincount(prods, minlength=vmax + 1).astype(np.float64)

        total = products.log_E(A, A)
        split = products.log_E1(A, A, N, sieve_10k)
        rest = products.log_E2(A, A, N, sieve_10k)
        assert total == pytest.approx(split.total + rest,
                                      rel=1e-6, abs=1e-9)
        assert total == pytest.approx(float(mult @ logv), rel=1e-6, abs=1e-9)

        mask = p_arr <= N
        direct = float(np.dot(w_arr[mask], mult[v_arr[mask]]))
        assert split.total == pytest.approx(direct, rel=1e-6, abs=1e-9)

    rng = np.random.default_rng(4)
    for _ in range(20):
        N = int(rng.integers(20, 301))
        card = int(rng.integers(5, min(40, N) + 1))
        a_members = np.sort(rng.choice(N, size=card, replace=False) + 1)
        b_members = np.sort(rng.choice(N, size=card, replace=False) + 1)
        A = shifted.IndexSet.from_iterable(a_members, n_max=N)
        B = shifted.IndexSet.from_iterable(b_members, n_max=N)

        direct = 0.0
        direct_all = 0.0
        for a in a_members:
            for b in b_members:
                v = int(a) * int(b) + 1
                direct_all += log(v)
                direct += sum(e * log(p) for p, e in _naive_factor(v)
                              if p <= N)
        total = products.log_E(A, B)
        split = products.log_E1(A, B, N, sieve_10k)
        rest = products.log_E2(A, B, N, sieve_10k)
        assert total == pytest.approx(split.total + rest, rel=1e-6)
        assert total == pytest.approx(direct_all, rel=1e-6)
        assert split.total == pytest.approx(direct, rel=1e-6, abs=1e-9)


def test_criterion_05_adversarial_sets_pin_one_prime(sieve_m):
    """Constructed congruence sets make every shifted product divisible by
    the chosen prime, forcing gamma_plus <= (N^2 + 1) / p, exactly."""
    for N in (100, 1000):
        for eps in (0.05, 0.1, 0.2):
            p, A, B = shifted.adversarial_sets(N, eps)
            assert 1.0 / (2 * eps) <= p <= 1.0 / eps
            a_members = np.array(list(A.members()), dtype=np.int64)
            b_members = np.array(list(B.members()), dtype=np.int64)
            assert a_members.max() <= N and b_members.max() <= N
            prods = np.outer(a_members, b_members) + 1
            assert np.all(prods % p == 0)
            res = shifted.gamma_plus(A, B, sieve_m)
            assert res.gamma_plus <= (N * N + 1) // p


def test_criterion_06_gamma_plus_and_search_vs_pair_enumeration(
        oracle, sieve_m):
    """gamma_plus equals the exhaustive pair maximum for 50 random set
    pairs with N <= 300, and interval search agrees with pair enumeration
    on existence over every dyadic window for every N <= 300."""
    primes, gpf_table = oracle
    rng = np.random.default_rng(11)
    for _ in range(50):
        N = int(rng.integers(2, 301))
        ca = int(rng.integers(1, N + 1))
        cb = int(rng.integers(1, N + 1))
        a_members = np.sort(rng.choice(N, size=ca, replace=False) + 1)
        b_members = np.sort(rng.choice(N, size=cb, replace=False) + 1)
        A = shifted.IndexSet.from_iterable(a_members, n_max=N)
        B = shifted.IndexSet.from_iterable(b_members, n_max=N)
        prods = np.outer(a_members, b_members) + 1
        brute = int(gpf_table[prods].max())
        res = shifted.gamma_plus(A, B, sieve_m)
        assert res.gamma_plus == brute
        wa, wb, wp = res.witness
        assert wa in A and wb in B
        assert gpf_table[wa * wb + 1] == res.gamma_plus == wp

    # existence over dyadic windows, all N <= 300, against incremental
    # marking of the products a*b
    cap = 300 * 300 + 1
    pvec = primes[primes <= cap]
    marked = np.zeros(cap + 1, dtype=bool)
    for N in range(1, 301):
        marked[N * np.arange(1, N + 1, dtype=np.int64)] = True
        prime_hits = marked[pvec - 1]
        hi_cap = N * N + 1
        k = 0
        while (1 << k) < hi_cap:
            lo = 1 << k
            hi = min(1 << (k + 1), hi_cap)
            i0 = np.searchsorted(pvec, lo + 1, side="left")
            i1 = np.searchsorted(pvec, hi, side="right")
            exists = bool(prime_hits[i0:i1].any())
            got = shifted.prime_in_interval_search(N, lo, hi, sieve_m)
            assert (got is not None) == exists
            if got is not None:
                p, a, b = got
                assert lo < p <= hi and a <= N and b <= N
                assert a * b + 1 == p and gpf_table[p] == p
            k += 1


def test_criterion_07_rho_analytic_and_factorial_bound():
    """rho matches 1 - log u to 1e-6 on [1, 2], stays under 1/Gamma(u+1)
    on the whole grid, and rho(1) is exactly 1."""
    assert smooth.dickman_rho(1.0) == 1.0
    for k in range(100):
        u = 1.0 + k / 99.0
        assert abs(smooth.dickman_rho(u) - (1.0 - log(u))) <= 1e-6
    table = smooth.default_dickman_table()
    for i in range(table.size):
        u = i / 256
        bound = math.exp(-math.lgamma(u + 1.0))
        assert table[i] <= bound * (1.0 + 1e-9)


def test_criterion_08_smooth_counts_match_naive_filter(oracle):
    """psi_count equals filtering by largest prime factor for every
    x <= 1e4 and y in {2, 3, 5, 10, 100}, exactly."""
    _, gpf_table = oracle
    gpf_small = gpf_table[: 10**4 + 1]
    sieve = build_sieve(100)
    for y in (2, 3, 5, 10, 100):
        counts = np.cumsum(gpf_small[1:] <= y)
        for x in range(1, 10**4 + 1):
            assert smooth.psi_count(x, y, sieve) == int(counts[x - 1])


def test_criterion_09_discrepancy_aggregates_match_brute(
        oracle, oracle_lambda_10k, sieve_10k):
    """All five discrepancy aggregates at x = 1e4 agree with explicit
    residue-loop enumeration: counting parts exactly, log-weighted parts
    to 1e-8."""
    x = 10**4
    primes, _ = oracle
    ps = primes[primes <= x]
    lam = oracle_lambda_10k
    npr = ps.size

    def phi(q):
        return sum(1 for r in range(1, q + 1) if gcd(r, q) == 1)

    # max-over-residues aggregate
    want = 0.0
    for q in range(2, 31):
        fq = phi(q)
        best = 0.0
        res = ps % q
        for a in range(q):
            if gcd(a, q) != 1:
                continue
            cnt = np.cumsum(res == a)
            dev = np.abs(cnt - np.arange(1, npr + 1) / fq).max()
            best = max(best, float(dev))
        want += best
    rep = ap.bv_sum(float(x), 30, sieve_10k)
    assert rep.total == pytest.approx(want, abs=1e-8)

    # signed aggregate at a fixed residue
    a0 = 7
    want = 0.0
    for q in range(2, 31):
        if gcd(q, a0) != 1:
            continue
        cnt = int(np.count_nonzero(ps % q == a0 % q))
        want += cnt - npr / phi(q)
    rep = ap.signed_sum(float(x), 30, a0, sieve_10k)
    assert rep.total == pytest.approx(want, abs=1e-8)

    # dyadic block of absolute discrepancies, both weights
    Q, a0 = 15, 1
    for use_psi in (False, True):
        want = 0.0
        for q in range(Q, 2 * Q):
            if gcd(q, a0) != 1:
                continue
            if use_psi:
                mine = math.fsum(lam[n] for n in range(1, x + 1)
                                 if n % q == a0 % q)
                full = math.fsum(lam[1:].tolist())
            else:
                mine = int(np.count_nonzero(ps % q == a0 % q))
                full = npr
            want += abs(mine - full / phi(q))
        rep = ap.dyadic_abs_sum(float(x), Q, a0, sieve_10k, use_psi=use_psi)
        assert rep.total == pytest.approx(want, abs=1e-8)

    # windowed product discrepancy over a dyadic modulus block
    Q, P1, P2, a0 = 6, 10, 500, 7
    window = [int(p) for p in ps if P1 < p <= P2]
    want_terms = []
    for q in range(Q, 2 * Q):
        if gcd(q, a0) != 1:
            continue
        a_side = 0.0
        for p in window:
            lp = log(p)
            for v in range(p, x + 1, p):
                if (v - a0) % q == 0:
                    a_side += lp
        w_side = 0.0
        for p in window:
            if q % p == 0:
                continue
            cnt = sum(1 for m in range(1, x // p + 1) if gcd(m, q) == 1)
            w_side += log(p) * cnt
        want_terms.append(a_side - w_side / phi(q))
    rep = ap.theorem4_sum(float(x), Q, float(P1), float(P2), a0, sieve_10k)
    got = [v for _, v in rep.per_q]
    assert len(got) == len(want_terms)
    for g, w in zip(got, want_terms):
        assert g == pytest.approx(w, abs=1e-8)
    assert rep.total == pytest.approx(
        math.fsum(abs(w) for w in want_terms), abs=1e-8)

    # rough-cofactor extension over prime-power windows
    Q, P1, P2, a0, z = 8, 50, 300, 3, 5.0
    stars = []
    for p in (int(t) for t in ps if t <= P2):
        if p < z:
            continue
        pk, w = p, log(p)
        while pk <= P2:
            if pk > P1:
                stars.append((pk, w))
            pk *= p
    want_terms = []
    for q in range(Q, 2 * Q):
        if gcd(q, a0) != 1:
            continue
        s1 = s2 = 0.0
        fq = phi(q)
        for n, w in stars:
            if gcd(n, q) != 1:
                continue
            for t in range(x // (2 * n) + 1, x // n + 1):
                if (n * t - a0) % q == 0:
                    s1 += w
                if gcd(t, q) == 1:
                    s2 += w / fq
        want_terms.append(s1 - s2)
    rep = ap.lambda_extension_sum(float(x), Q, float(P1), float(P2), a0, z,
                                  sieve_10k)
    got = [v for _, v in rep.per_q]
    assert len(got) == len(want_terms)
    for g, w in zip(got, want_terms):
        assert g == pytest.approx(w, abs=1e-8)


def test_criterion_10_product_counts_and_density_constant():
    """The density exponent matches 0.08607 to four decimals and the
    distinct-product count equals incremental dedup for every N <= 1e3."""
    want = 1.0 - (1.0 + log(log(2.0))) / log(2.0)
    assert shifted.FORD_EXPONENT == pytest.approx(want, abs=1e-15)
    assert abs(shifted.FORD_EXPONENT - 0.08607) < 5e-5

    marked = np.zeros(10**6 + 1, dtype=bool)
    running = 0
    for N in range(1, 10**3 + 1):
        idx = N * np.arange(1, N + 1, dtype=np.int64)
        running += int(np.count_nonzero(~marked[idx]))
        marked[idx] = True
        assert shifted.lv_count(N) == running


def test_criterion_11_decay_charts(tmp_path):
    """Produce the discrepancy decay tables: byte-identical to the committed
    charts, and bv-sum's whatever its thread count.  Reporting only: no
    decay rate is asserted."""
    charts = Path(__file__).resolve().parents[1] / "charts"
    xs = "10000,100000,1000000"
    for command, name, ncols, options in (
            ("bv-sum", "bv_decay.csv", 4, (["--threads", "1"], ["--threads", "3"])),
            ("thm4-sum", "thm4_decay.csv", 8, ([],))):
        committed = (charts / name).read_bytes()
        for i, extra in enumerate(options):
            out = tmp_path / f"{i}_{name}"
            rc = cli_main([command, "--x-list", xs, "--output", str(out), *extra])
            assert rc == 0
            assert out.read_bytes() == committed
        with (charts / name).open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert all(len(r) == ncols for r in rows)
        assert [r[0] for r in rows[1:]] == ["10000", "100000", "1000000"]


def test_criterion_12_suite_wall_clock(request):
    """The whole suite, this module included, finishes inside 15 minutes."""
    elapsed = time.monotonic() - request.config._suite_t0
    assert elapsed < 900.0
