"""Shifted-product extrema, distinct-product counts, and the constructions
around them, validated by exhaustive pair enumeration."""

import math
import random
from math import gcd, log

import pytest

from gpflab.errors import (ConstructionFailedError, InvalidArgumentError,
                           RangeBudgetError)
from gpflab.shifted import (FORD_EXPONENT, LV_COUNT_CAP, IndexSet,
                            adversarial_sets, check_gamma_pairs, ford_ratio,
                            gamma_plus, lv_count, prime_in_interval_search,
                            theorem1_sum, theorem1_thresholds, theorem2_sum)


def naive_gpf(n: int) -> int:
    best = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            best = d
            n //= d
        d += 1
    return max(best, n) if n > 1 else best


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_gamma(A, B) -> int:
    return max(naive_gpf(a * b + 1) for a in A for b in B)


def test_gamma_small_examples(sieve_10k):
    res = gamma_plus(IndexSet.from_iterable([1, 2, 3]),
                     IndexSet.from_iterable([1, 2, 3]), sieve_10k)
    assert res.gamma_plus == 7
    assert res.witness == (2, 3, 7)
    assert res.c_count == 6  # {2, 3, 4, 5, 7, 10}

    one = gamma_plus(IndexSet.from_iterable([1]), IndexSet.from_iterable([1]),
                     sieve_10k)
    assert one.gamma_plus == 2
    assert one.witness == (1, 1, 2)
    assert one.c_count == 1

    dense = gamma_plus(IndexSet.dense(10), IndexSet.dense(10), sieve_10k)
    assert dense.gamma_plus == 101
    assert dense.witness == (10, 10, 101)


def test_gamma_witness_prefers_largest_product(sieve_10k):
    res = gamma_plus(IndexSet.from_iterable([1]),
                     IndexSet.from_iterable([6, 13]), sieve_10k)
    # both 7 and 14 have greatest prime factor 7; 14 = 1*13 + 1 wins
    assert res.gamma_plus == 7
    assert res.witness == (1, 13, 7)


def test_gamma_matches_brute_random(sieve_10k):
    rng = random.Random(20260819)
    for _ in range(25):
        n = rng.randint(2, 120)
        a_vals = rng.sample(range(1, n + 1), rng.randint(1, min(n, 15)))
        b_vals = rng.sample(range(1, n + 1), rng.randint(1, min(n, 15)))
        A = IndexSet.from_iterable(a_vals, n_max=n)
        B = IndexSet.from_iterable(b_vals, n_max=n)
        res = gamma_plus(A, B, sieve_10k)
        assert res.gamma_plus == brute_gamma(a_vals, b_vals)
        a, b, p = res.witness
        assert a in A and b in B
        assert naive_gpf(a * b + 1) == p == res.gamma_plus


def test_gamma_symmetric(sieve_10k):
    rng = random.Random(7)
    for _ in range(10):
        A = IndexSet.from_iterable(rng.sample(range(1, 200), 12), n_max=200)
        B = IndexSet.from_iterable(rng.sample(range(1, 200), 12), n_max=200)
        ab = gamma_plus(A, B, sieve_10k)
        ba = gamma_plus(B, A, sieve_10k)
        assert ab.gamma_plus == ba.gamma_plus
        assert ab.c_count == ba.c_count


def test_gamma_monotone_under_inclusion(sieve_10k):
    rng = random.Random(11)
    base = rng.sample(range(1, 501), 30)
    B = IndexSet.dense(500)
    prev = 0
    for k in (10, 20, 30):
        A = IndexSet.from_iterable(base[:k], n_max=500)
        g = gamma_plus(A, B, sieve_10k).gamma_plus
        assert g >= prev
        prev = g


def test_gamma_rejects_bad_inputs(sieve_10k):
    with pytest.raises(InvalidArgumentError):
        gamma_plus(IndexSet(5), IndexSet.dense(5), sieve_10k)
    with pytest.raises(RangeBudgetError):
        gamma_plus(IndexSet.dense(10_001), IndexSet.dense(10), sieve_10k)
    # 3163**2 pairs are over the 1e7 budget, 3162**2 are not
    with pytest.raises(RangeBudgetError, match="budget"):
        gamma_plus(IndexSet.dense(3163), IndexSet.dense(3163), sieve_10k)
    check_gamma_pairs(IndexSet.dense(3162), IndexSet.dense(3162))


def test_lv_count_small_and_brute():
    assert lv_count(1) == 1
    assert lv_count(2) == 3
    assert lv_count(3) == 6
    assert lv_count(4) == 9
    for N in (10, 37, 100):
        want = len({a * b for a in range(1, N + 1) for b in range(1, N + 1)})
        assert lv_count(N) == want
    counts = [lv_count(N) for N in range(1, 41)]
    for lo, hi in zip(counts, counts[1:]):
        assert hi > lo
    assert all(c <= N * N for N, c in enumerate(counts, start=1))


def test_lv_count_bounds():
    with pytest.raises(InvalidArgumentError):
        lv_count(0)
    with pytest.raises(RangeBudgetError):
        lv_count(LV_COUNT_CAP + 1)


def test_ford_exponent_value():
    assert abs(FORD_EXPONENT - (1.0 - (1.0 + log(log(2.0))) / log(2.0))) == 0.0
    assert abs(FORD_EXPONENT - 0.0860713) < 5e-7


def test_ford_ratio_formula():
    N = 100
    want = lv_count(N) * log(N) ** FORD_EXPONENT * log(log(N)) ** 1.5 / N**2
    assert abs(ford_ratio(N) - want) < 1e-15
    with pytest.raises(InvalidArgumentError):
        ford_ratio(2)


def test_adversarial_sets_example(sieve_10k):
    p, A, B = adversarial_sets(20, 0.2)
    assert p == 3
    assert A.members().tolist() == [1, 4, 7, 10, 13, 16, 19]
    assert B.members().tolist() == [2, 5, 8, 11, 14, 17, 20]
    for a in A:
        for b in B:
            assert (a * b + 1) % p == 0
    res = gamma_plus(A, B, sieve_10k)
    assert res.gamma_plus <= (20 * 20 + 1) // p


def test_adversarial_sets_edges():
    p, A, B = adversarial_sets(9, 0.5)
    assert p == 2
    assert A.members().tolist() == [1, 3, 5, 7, 9]
    assert B.members().tolist() == [1, 3, 5, 7, 9]
    with pytest.raises(InvalidArgumentError):
        adversarial_sets(10, 0.6)
    with pytest.raises(ConstructionFailedError):
        adversarial_sets(3, 0.05)


def test_prime_search_examples(sieve_10k):
    assert prime_in_interval_search(10, 90, 101, sieve_10k) == (101, 10, 10)
    assert prime_in_interval_search(10, 97, 100, sieve_10k) is None
    # wider index bound finds the smaller factor first
    assert prime_in_interval_search(50, 90, 101, sieve_10k) == (101, 2, 50)
    only_ten = IndexSet.from_iterable([10])
    assert prime_in_interval_search(10, 90, 101, sieve_10k,
                                    B_opt=only_ten) == (101, 10, 10)
    only_seven = IndexSet.from_iterable([7])
    assert prime_in_interval_search(10, 90, 101, sieve_10k,
                                    B_opt=only_seven) is None
    with pytest.raises(InvalidArgumentError):
        prime_in_interval_search(10, 0, 5, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        prime_in_interval_search(10, 9, 5, sieve_10k)


def test_prime_search_factors_stay_bounded(sieve_10k):
    found = prime_in_interval_search(40, 1200, 1500, sieve_10k)
    assert found is not None
    p, a, b = found
    assert naive_is_prime(p) and 1200 <= p <= 1500
    assert a * b == p - 1 and a <= 40 and b <= 40


def test_theorem1_thresholds_shape():
    N, A_exp = 1000, 1.0
    Y, Z1, Z2 = theorem1_thresholds(N, A_exp)
    shrink = 1.0 / (2.0 * log(N))
    assert abs(Y - N * (1.0 - shrink)) < 1e-9
    assert abs(Z1 - N * N * (1.0 - shrink)) < 1e-6
    assert abs(Z2 - N * N * (1.0 - 2.0 * shrink)) < 1e-6
    assert Z2 < Z1 <= N * N
    with pytest.raises(InvalidArgumentError):
        theorem1_thresholds(1000, 0.0)


def test_theorem1_sum_matches_brute(sieve_m):
    N, A_exp = 1000, 1.0
    Y, Z1, Z2 = theorem1_thresholds(N, A_exp)
    want = 0
    for a in range(math.ceil(Y - 1e-9), N + 1):
        n = (int(Z2) // a) * a + 1
        while n <= Z2:
            n += a
        while n <= Z1:
            if naive_is_prime(n):
                want += 1
            n += a
    assert theorem1_sum(N, A_exp, sieve_m) == want


def test_theorem2_sum_matches_brute(sieve_m):
    N, delta = 500, 0.2
    lo, hi = (1 - 2 * delta) * N * N, (1 - delta) * N * N
    rng = random.Random(3)
    sparse = IndexSet.from_iterable(rng.sample(range(1, N + 1), 60), n_max=N)
    for B in (IndexSet.dense(N), sparse):
        want = 0
        for b in B:
            if b <= (1 - delta) * N or b > N:
                continue
            n = (int(lo) // b) * b + 1
            while n <= lo:
                n += b
            while n <= hi:
                if naive_is_prime(n):
                    want += 1
                n += b
        assert theorem2_sum(N, delta, B, sieve_m) == want
    with pytest.raises(InvalidArgumentError):
        theorem2_sum(N, 0.5, IndexSet.dense(N), sieve_m)


def test_indexset_basics():
    s = IndexSet.from_iterable([3, 1, 7, 3])
    assert s.n_max == 7
    assert len(s) == 3
    assert list(s) == [1, 3, 7]
    assert 3 in s and 2 not in s and 8 not in s
    assert IndexSet.dense(5).members().tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(InvalidArgumentError):
        IndexSet(0)
    with pytest.raises(InvalidArgumentError):
        IndexSet.from_iterable([0, 1])
    with pytest.raises(InvalidArgumentError):
        IndexSet.from_iterable([5], n_max=4)
    with pytest.raises(InvalidArgumentError):
        IndexSet.from_iterable([])


def test_indexset_file_roundtrip(tmp_path):
    path = tmp_path / "set.txt"
    orig = IndexSet.from_iterable([2, 5, 11], n_max=20)
    orig.to_file(path)
    back = IndexSet.from_file(path, n_max=20)
    assert back.members().tolist() == [2, 5, 11]
    assert back.n_max == 20

    commented = tmp_path / "commented.txt"
    commented.write_text("# header\n1\n4 # inline\n\n9\n")
    s = IndexSet.from_file(commented)
    assert s.members().tolist() == [1, 4, 9]
    assert s.n_max == 9


def test_indexset_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\ntwo\n")
    with pytest.raises(InvalidArgumentError):
        IndexSet.from_file(bad)
    bad.write_text("5\n4\n")
    with pytest.raises(InvalidArgumentError):
        IndexSet.from_file(bad)
    bad.write_text("0\n")
    with pytest.raises(InvalidArgumentError):
        IndexSet.from_file(bad)
    bad.write_text("3\n50\n")
    with pytest.raises(InvalidArgumentError):
        IndexSet.from_file(bad, n_max=10)
