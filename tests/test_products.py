"""Log-mass ledger over shifted pair products: the split by prime size is
validated against per-pair trial-division factorization."""

import math
import random
import tracemalloc
from math import log

import numpy as np
import pytest

from gpflab import products
from gpflab.cli import main
from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.products import (LEDGER_PAIR_BUDGET, SQERR_N_BUDGET, LedgerReport,
                             log_E, log_E1, log_E2, ledger_report,
                             square_errors_check)
from gpflab.shifted import IndexSet, _product_table, adversarial_sets, gamma_plus


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
    for a in A.members().tolist():
        for b in B.members().tolist():
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


def test_log_E_small():
    s3 = IndexSet.from_iterable([1, 2, 3])
    assert abs(log_E(s3, s3) - log(705600.0)) < 1e-12
    with pytest.raises(InvalidArgumentError):
        log_E(IndexSet(4), s3)


def row_fsums(A, B):
    """log E summed as fsum over the rows of each a's fsum over B."""
    bs = B.members().astype(np.float64)
    return math.fsum([math.fsum(np.log(a * bs + 1.0).tolist()) for a in A.members().tolist()])


def test_log_E_equals_row_fsums_dense():
    for N in range(1, 201):
        D = IndexSet.dense(N)
        assert log_E(D, D) == row_fsums(D, D), N


def test_log_E_equals_row_fsums_wide_members():
    # members up to the 1e8 cap: a*b passes 2**53 and is rounded in float64
    edge = IndexSet.from_iterable([1, 2, 10**8 - 1, 10**8])
    assert log_E(edge, edge) == row_fsums(edge, edge)
    rng = random.Random(21)
    past = 0
    for _ in range(8):
        A, B = (IndexSet.from_iterable(rng.sample(range(1, 10**8 + 1), rng.randint(1, 40)))
                for _ in range(2))
        assert log_E(A, B) == row_fsums(A, B)
        past += int(A.members()[-1]) * int(B.members()[-1]) > 2**53
    assert past


def test_log_E_one_row_per_block():
    B = IndexSet.dense(products._BLOCK + 4465)
    A = IndexSet.from_iterable([1, 2, 3, 7, products._BLOCK + 4465])
    assert log_E(A, B) == row_fsums(A, B)


def test_log_E_temporaries_bounded():
    """1.6e7 pairs a block of rows at a time: the whole float64 matrix
    would be 128 MiB."""
    D = IndexSet.dense(4000)
    tracemalloc.start()
    try:
        log_E(D, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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


def _no_euclid(h, m):
    raise AssertionError("the residue-class route ran")


def _route_cases():
    """(id, N, A, B, whether the histogram route applies): top = max A *
    max B + 1 < 8 |A| |B|."""
    cases = [(f"dense-{N}", N, IndexSet.dense(N), IndexSet.dense(N), True)
             for N in (*range(1, 61), 300, 1000)]
    rng = random.Random(1717)
    for n, card_a, card_b, hist in ((400, 300, 250, True), (400, 30, 25, False),
                                    (2000, 900, 700, True), (2000, 40, 60, False)):
        A = IndexSet.from_iterable(rng.sample(range(1, n + 1), card_a), n)
        B = IndexSet.from_iterable(rng.sample(range(1, n + 1), card_b), n)
        cases.append((f"random-{n}-{card_a}-{card_b}", n, A, B, hist))
    for a, b, N, hist in ((1, 1, 1, True), (2, 3, 3, True), (7, 7, 10, False),
                          (13, 40, 40, False)):
        cases.append((f"single-{a}-{b}", N, IndexSet.from_iterable([a]),
                      IndexSet.from_iterable([b]), hist))
    # n_max above the largest member, and N above both maxima
    cases.append(("wide-n-max", 50, IndexSet.from_iterable(range(2, 26), n_max=50),
                  IndexSet.from_iterable(range(3, 31), n_max=50), True))
    cases.append(("N-above", 90, IndexSet.dense(30),
                  IndexSet.from_iterable(range(5, 26), n_max=25), True))
    return cases


ROUTE_CASES = _route_cases()


@pytest.mark.parametrize("N,A,B,hist", [c[1:] for c in ROUTE_CASES],
                         ids=[c[0] for c in ROUTE_CASES])
def test_log_E1_histogram_and_residue_routes_agree(monkeypatch, sieve_10k, N, A, B, hist):
    a, b = A.members(), B.members()
    assert (int(a[-1]) * int(b[-1]) + 1 < 8 * a.size * b.size) == hist
    with monkeypatch.context() as mp:
        if hist:
            mp.setattr(products, "_neg_inverse", _no_euclid)
        split = log_E1(A, B, N, sieve_10k)
    monkeypatch.setattr(products, "_HIST_CAP", 0)  # every table over the cap
    euclid = log_E1(A, B, N, sieve_10k)
    assert (split.total, split.sigma1, split.sigma2) == (
        euclid.total, euclid.sigma1, euclid.sigma2)


def test_product_table_marks_and_counts():
    rng = random.Random(1818)
    a = np.array(sorted(rng.sample(range(1, 200), 80)), dtype=np.int64)
    b = np.array(sorted(rng.sample(range(1, 200), 90)), dtype=np.int64)
    top = int(a[-1]) * int(b[-1]) + 1
    r = _product_table(a, b, counts=True, cap=top + 1)
    want = np.bincount((np.multiply.outer(a, b) + 1).ravel(), minlength=top + 1)
    assert r.dtype == np.uint16 and np.array_equal(r, want)
    mask = _product_table(a, b)
    assert mask.dtype == bool and np.array_equal(mask, want > 0)
    assert _product_table(a, b, counts=True, cap=top) is None
    assert _product_table(a, b[-3:]) is None  # top >= 8 |A| |B|


LEDGER_1000_DENSE = ("1000,1000,1000,11824311.3474906,5627073.88245745,"
                     "6197237.46503317,5581342.18154979,45731.7009076573,"
                     "6406272.58616088,8061350.41057215,1.89714201136933")
LEDGER_60_RANDOM = ("60,10,10,544.775873131259,309.231627992767,"
                    "235.544245138492,300.353130589028,8.87849740373863,"
                    "820.209125853685,1064.52958617775,1.09588195031745")


def test_dense_ledger_runs_no_euclid(capsys, monkeypatch):
    monkeypatch.setattr(products, "_neg_inverse", _no_euclid)
    assert main(["ledger", "--n", "1000", "--dense"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == [LEDGER_1000_DENSE]


def test_sparse_ledger_keeps_the_residue_route(capsys, monkeypatch):
    calls = []
    inverse = products._neg_inverse

    def counted(h, m):
        calls.append(h.size)
        return inverse(h, m)

    monkeypatch.setattr(products, "_neg_inverse", counted)
    assert main(["ledger", "--n", "60", "--random-card", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == [LEDGER_60_RANDOM]
    assert calls


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
                for u in U.members().tolist():
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


def test_sqerr_and_ledger_budgets(sieve_10k):
    # refused before any modulus is read, so a small sieve is enough
    N = SQERR_N_BUDGET + 1
    U = IndexSet.from_iterable([1, 2], n_max=N)
    with pytest.raises(RangeBudgetError, match=f"N <= {SQERR_N_BUDGET}, got {N}"):
        square_errors_check(U, N, sieve_10k)
    with pytest.raises(RangeBudgetError, match=f"N <= {SQERR_N_BUDGET}, got {N}"):
        ledger_report(U, U, N, sieve_10k)
    A = IndexSet.dense(10_001)
    with pytest.raises(RangeBudgetError,
                       match=rf"\|A\|\*\|B\| <= {LEDGER_PAIR_BUDGET}, got 100020001"):
        ledger_report(A, A, 10_001, sieve_10k)


def test_large_mass_support_matches_gamma(sieve_10k):
    rng = random.Random(909)
    for N in (60, 120):
        A = IndexSet.from_iterable(rng.sample(range(1, N + 1), 15), n_max=N)
        B = IndexSet.from_iterable(rng.sample(range(1, N + 1), 15), n_max=N)
        support = set()
        for a in A.members().tolist():
            for b in B.members().tolist():
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
