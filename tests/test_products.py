"""Log-mass ledger over shifted pair products: the split by prime size is
validated against per-pair trial-division factorization."""

import math
import random
from math import log

import pytest

from gpflab.errors import InvalidArgumentError
from gpflab.products import (LedgerReport, log_E, log_E1, log_E2, ledger_report,
                             r_count, square_errors_check)
from gpflab.shifted import IndexSet, adversarial_sets, gamma_plus


def naive_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_split(A, B, N):
    """(total small-prime mass, sigma1, sigma2, large-prime mass) by
    factorizing every shifted product directly."""
    s1 = []
    s2 = []
    large = []
    for a in A:
        for b in B:
            for p, e in naive_factor(a * b + 1).items():
                if p > N:
                    large.append(e * log(p))
                    continue
                k_small = 0
                m = p
                while m <= N:
                    k_small += 1
                    m *= p
                s1.append(min(e, k_small) * log(p))
                if e > k_small:
                    s2.append((e - k_small) * log(p))
    return (math.fsum(s1) + math.fsum(s2), math.fsum(s1), math.fsum(s2),
            math.fsum(large))


def test_r_count():
    U = IndexSet.from_iterable([1, 4, 7, 10])
    assert r_count(U, 1, 3) == 4
    assert r_count(U, 0, 2) == 2
    assert r_count(U, 4, 3) == 4
    assert r_count(U, -2, 3) == 4
    assert r_count(U, 0, 1) == 4
    for m in (2, 3, 7):
        assert sum(r_count(U, h, m) for h in range(m)) == len(U)
    with pytest.raises(InvalidArgumentError):
        r_count(U, 0, 0)


def test_log_E_small():
    s3 = IndexSet.from_iterable([1, 2, 3])
    assert abs(log_E(s3, s3) - log(705600.0)) < 1e-12
    with pytest.raises(InvalidArgumentError):
        log_E(IndexSet(4), s3)


def test_log_E1_split_small(sieve_10k):
    s3 = IndexSet.from_iterable([1, 2, 3])
    split = log_E1(s3, s3, 3, sieve_10k)
    assert abs(split.total - log(576.0)) < 1e-12
    assert abs(split.sigma1 - log(144.0)) < 1e-12
    assert abs(split.sigma2 - log(4.0)) < 1e-12
    assert abs(log_E2(s3, s3, 3, sieve_10k) - log(705600.0 / 576.0)) < 1e-12


def test_log_E1_matches_factorization(sieve_10k):
    rng = random.Random(606)
    cases = [(40, IndexSet.dense(40), IndexSet.dense(40))]
    for _ in range(6):
        n = rng.randint(5, 60)
        A = IndexSet.from_iterable(rng.sample(range(1, n + 1),
                                              rng.randint(1, min(n, 12))), n_max=n)
        B = IndexSet.from_iterable(rng.sample(range(1, n + 1),
                                              rng.randint(1, min(n, 12))), n_max=n)
        cases.append((n, A, B))
    for N, A, B in cases:
        want_total, want_s1, want_s2, want_large = brute_split(A, B, N)
        split = log_E1(A, B, N, sieve_10k)
        assert abs(split.total - want_total) < 1e-9
        assert abs(split.sigma1 - want_s1) < 1e-9
        assert abs(split.sigma2 - want_s2) < 1e-9
        assert abs(log_E2(A, B, N, sieve_10k) - want_large) < 1e-9
        assert abs(log_E(A, B) - (want_total + want_large)) < 1e-9


# float.hex of (total, sigma1, sigma2), recorded from a scalar loop over
# residues with pow(h, -1, m); N = 1000 spans several blocks of moduli on
# both sides of N
LOG_E1_BITS = {
    ("dense", 20): ("0x1.b30cf14e4c84fp+9", "0x1.7f7150e002b32p+9",
                    "0x1.9cdd03724e8e9p+6"),
    ("random", 20): ("0x1.ebce28e573f2cp+5", "0x1.ba2b39b750f1dp+5",
                     "0x1.8d17797118078p+2"),
    ("dense", 60): ("0x1.50a623e6dc41ap+13", "0x1.3ca1661c561b8p+13",
                    "0x1.404bdca862618p+9"),
    ("random", 60): ("0x1.72b974aaed79bp+9", "0x1.5f631551f0504p+9",
                     "0x1.3565f58fd2977p+5"),
    ("dense", 300): ("0x1.89be42e3e3755p+18", "0x1.82238eff90e16p+18",
                     "0x1.e6acf914a4fc9p+12"),
    ("random", 300): ("0x1.acf57cf5695acp+14", "0x1.a44238fb0e7f7p+14",
                      "0x1.16687f4b5b6a7p+9"),
    ("dense", 1000): ("0x1.57730787a2ed1p+22", "0x1.54a878b9e8307p+22",
                      "0x1.654766dd5e539p+15"),
    ("random", 1000): ("0x1.6fd77ca2a3875p+18", "0x1.6cde50f07fac9p+18",
                       "0x1.7c95d911ed622p+11"),
}


@pytest.mark.parametrize("kind,N", sorted(LOG_E1_BITS))
def test_log_E1_matches_recorded_bits(sieve_10k, kind, N):
    if kind == "dense":
        A = B = IndexSet.dense(N)
    else:
        rng = random.Random(N)
        A = IndexSet.from_iterable(rng.sample(range(1, N + 1), N // 3), N)
        B = IndexSet.from_iterable(rng.sample(range(1, N + 1), N // 5), N)
    split = log_E1(A, B, N, sieve_10k)
    got = (split.total.hex(), split.sigma1.hex(), split.sigma2.hex())
    assert got == LOG_E1_BITS[kind, N]


def test_log_E1_rejects_out_of_range(sieve_10k):
    A = IndexSet.from_iterable([5])
    B = IndexSet.from_iterable([1])
    with pytest.raises(InvalidArgumentError):
        log_E1(A, B, 3, sieve_10k)


def test_square_errors_small(sieve_10k):
    res = square_errors_check(IndexSet.from_iterable([1, 2]), 2, sieve_10k)
    assert abs(res.lhs - 2.0 * log(2.0)) < 1e-12
    assert abs(res.rhs - 4.0 * log(2.0)) < 1e-12
    assert res.holds is True

    empty = square_errors_check(IndexSet(10), 10, sieve_10k)
    assert empty.lhs == 0.0 and empty.holds is True

    res1 = square_errors_check(IndexSet.from_iterable([1]), 1, sieve_10k)
    assert res1.lhs == 0.0 and res1.rhs == 0.0 and res1.holds is True


def test_square_errors_matches_brute(sieve_10k):
    rng = random.Random(707)
    N = 50
    for _ in range(8):
        U = IndexSet.from_iterable(rng.sample(range(1, N + 1),
                                              rng.randint(1, 20)), n_max=N)
        want = 0.0
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            m = p
            while m <= N:
                counts = [0] * m
                for u in U:
                    counts[u % m] += 1
                want += sum(c * c for c in counts) * log(p)
                m *= p
        res = square_errors_check(U, N, sieve_10k)
        assert abs(res.lhs - want) < 1e-9
        pi_n = 15
        card = len(U)
        assert abs(res.rhs - card * (card - 1 + pi_n) * log(N)) < 1e-9
        assert res.holds == (res.lhs <= res.rhs * (1 + 1e-12) + 1e-12)


def test_ledger_report_fields(sieve_10k):
    rng = random.Random(808)
    N = 30
    A = IndexSet.from_iterable(rng.sample(range(1, N + 1), 10), n_max=N)
    B = IndexSet.from_iterable(rng.sample(range(1, N + 1), 8), n_max=N)
    rep = ledger_report(A, B, N, sieve_10k)
    assert isinstance(rep, LedgerReport)
    assert rep.N == N and rep.A_card == 10 and rep.B_card == 8
    assert abs(rep.log_E - log_E(A, B)) < 1e-12
    assert abs(rep.log_E1 + rep.log_E2 - rep.log_E) < 1e-9
    assert abs(rep.sigma1 + rep.sigma2 - rep.log_E1) < 1e-9
    sq_a = square_errors_check(A, N, sieve_10k)
    sq_b = square_errors_check(B, N, sieve_10k)
    tight = sq_a if (sq_a.rhs - sq_a.lhs) <= (sq_b.rhs - sq_b.lhs) else sq_b
    assert rep.lemma72_lhs == tight.lhs and rep.lemma72_rhs == tight.rhs
    want_exp = 1.0 + rep.log_E2 / (8 * N * log(N))
    assert abs(rep.implied_exponent - want_exp) < 1e-12
    with pytest.raises(InvalidArgumentError):
        ledger_report(A, B, 1, sieve_10k)


def test_large_mass_support_matches_gamma(sieve_10k):
    rng = random.Random(909)
    for N in (60, 120):
        A = IndexSet.from_iterable(rng.sample(range(1, N + 1), 15), n_max=N)
        B = IndexSet.from_iterable(rng.sample(range(1, N + 1), 15), n_max=N)
        support = set()
        for a in A:
            for b in B:
                support.update(p for p in naive_factor(a * b + 1) if p > N)
        g = gamma_plus(A, B, sieve_10k).gamma_plus
        for p in support:
            assert g >= p
        if support:
            assert g == max(support)
        else:
            assert g <= N
            assert abs(log_E2(A, B, N, sieve_10k)) < 1e-9


def test_adversarial_mass_floor(sieve_10k):
    p, A, B = adversarial_sets(100, 0.1)
    split = log_E1(A, B, 100, sieve_10k)
    # every pair's product carries at least one factor p
    assert split.total >= len(A) * len(B) * log(p) - 1e-9
