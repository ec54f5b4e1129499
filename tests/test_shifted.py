"""Shifted-product extrema, distinct-product counts, and the constructions
around them, validated by exhaustive pair enumeration."""

import math
import random
import tracemalloc
from math import gcd, log

import numpy as np
import pytest

from gpflab import cli, shifted
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


def brute_gamma_result(A, B):
    """(gamma_plus, witness, c_count) by enumerating every pair: the largest
    gpf, then the largest product, then the smallest a, then the smallest b."""
    g, v, a, b = max((naive_gpf(a * b + 1), a * b + 1, -a, -b) for a in A for b in B)
    return g, (-a, -b, g), len({a * b + 1 for a in A for b in B})


def _sets_with_top(rng, ka, kb, top):
    """Random A, B with |A| = ka, |B| = kb and max A * max B + 1 == top,
    or None if top - 1 has no such split."""
    splits = [d for d in range(ka, top) if (top - 1) % d == 0 and (top - 1) // d >= kb]
    if not splits:
        return None
    a_max = rng.choice(splits)
    b_max = (top - 1) // a_max
    A = rng.sample(range(1, a_max), ka - 1) + [a_max]
    B = rng.sample(range(1, b_max), kb - 1) + [b_max]
    return A, B


def test_gamma_both_routes_match_brute(sieve_10k, monkeypatch):
    # top = max A * max B + 1 on each side of 8|A||B|: below it the products
    # are marked in a byte mask, from it on they are sorted
    sorted_calls = []
    sort_route = shifted._distinct_shifted_products
    monkeypatch.setattr(shifted, "_distinct_shifted_products",
                        lambda a, b: sorted_calls.append(1) or sort_route(a, b))
    rng = random.Random(20261019)
    routes = {True: 0, False: 0}
    while min(routes.values()) < 60:
        ka, kb = rng.randint(1, 12), rng.randint(1, 12)
        top = 8 * ka * kb + rng.choice([-1, 0, 1])
        sets = _sets_with_top(rng, ka, kb, top)
        if sets is None:
            continue
        A, B = sets
        n = max(max(A), max(B))
        sorted_calls.clear()
        res = gamma_plus(IndexSet.from_iterable(A, n), IndexSet.from_iterable(B, n),
                         sieve_10k)
        assert bool(sorted_calls) == (top >= 8 * ka * kb)
        routes[bool(sorted_calls)] += 1
        assert (res.gamma_plus, res.witness, res.c_count) == brute_gamma_result(A, B)


@pytest.mark.parametrize("a, b", [
    (range(1, 61), range(1, 61)),  # many equal products
    ([1], [1]),
    ([7], [10 ** 8]),
    ([3, 5, 15], [1]),
    (range(10 ** 8 - 40, 10 ** 8 + 1, 3), range(10 ** 8 - 30, 10 ** 8 + 1)),  # near the cap
])
def test_sort_route_matches_unique(a, b):
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    got = shifted._distinct_shifted_products(a, b)
    want = np.unique(np.multiply.outer(a, b) + 1)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_sort_route_memory(sieve_m):
    # the int64 products are sorted in place: the peak stays under three
    # copies of them
    rng = np.random.default_rng(5)
    A, B = IndexSet(100_000), IndexSet(100_000)
    A.bits[rng.choice(100_000, 1000, replace=False) + 1] = True
    B.bits[rng.choice(100_000, 1000, replace=False) + 1] = True
    tracemalloc.start()
    try:
        gamma_plus(A, B, sieve_m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 1000 * 1000


def test_gamma_sparse_answer_pinned(sieve_m):
    # 9e6 products, past 2**23 of them
    args = cli.build_parser().parse_args(
        ["gamma-plus", "--n", "100000", "--random-card", "3000", "--rng-seed", "2"])
    A, B = cli._sets(args)
    res = gamma_plus(A, B, sieve_m)
    assert (res.gamma_plus, res.witness, res.c_count) == \
        (9987100129, (99872, 99999, 9987100129), 8951003)


def _smooth_upto(x, primes):
    out = [1]
    for p in primes:
        grown = []
        for m in out:
            while m <= x:
                grown.append(m)
                m *= p
        out = grown
    return sorted(out)


@pytest.mark.parametrize("x, p, masked", [(20_001, 113, True), (1_000_001, 13, False)])
def test_gamma_ties_across_blocks(sieve_m, x, p, masked):
    # A = {1}, B = {v - 1: v <= x p-smooth}: every multiple of p in the set
    # ties on gpf p, over many blocks of the downward scan; the largest wins
    vals = _smooth_upto(x, [q for q in range(2, p + 1) if naive_is_prime(q)])[1:]
    assert len(vals) > 2 ** 11
    assert (vals[-1] < 8 * len(vals)) == masked
    res = gamma_plus(IndexSet.from_iterable([1]),
                     IndexSet.from_iterable([v - 1 for v in vals]), sieve_m)
    top_tie = max(v for v in vals if v % p == 0)
    assert res.gamma_plus == p
    assert res.witness == (1, top_tie - 1, p)
    assert res.c_count == len(vals)


@pytest.mark.parametrize("x, p", [(20_001, 113), (1_000_001, 13)])
def test_gamma_winner_just_above_the_bound(sieve_m, x, p):
    # a prime q in (p, 2p] under the p-smooth values: the scan stops only
    # once every value left is at most the best, so it reaches q
    q = max(v for v in range(p + 1, 2 * p + 1) if naive_is_prime(v))
    vals = _smooth_upto(x, [r for r in range(2, p + 1) if naive_is_prime(r)])[1:]
    res = gamma_plus(IndexSet.from_iterable([1]),
                     IndexSet.from_iterable([v - 1 for v in vals + [q]]), sieve_m)
    assert (res.gamma_plus, res.witness, res.c_count) == (q, (1, q - 1, q), len(vals) + 1)


def test_gamma_dense_takes_the_mask(sieve_10k, monkeypatch):
    def refuse(a, b):
        raise AssertionError("a dense set sorted its products")
    monkeypatch.setattr(shifted, "_distinct_shifted_products", refuse)
    for n in (1, 2, 10, 30):
        res = gamma_plus(IndexSet.dense(n), IndexSet.dense(n), sieve_10k)
        members = range(1, n + 1)
        assert (res.gamma_plus, res.witness, res.c_count) == \
            brute_gamma_result(members, members)
    gamma_plus(IndexSet.dense(600), IndexSet.dense(600), sieve_10k)


def test_gamma_factors_only_the_top(sieve_10k, monkeypatch):
    # gpf(v) <= v: the scan stops once every value left is at most the best
    factored = []
    batch = shifted.greatest_prime_factor_batch
    monkeypatch.setattr(shifted, "greatest_prime_factor_batch",
                        lambda v, s: factored.append(len(v)) or batch(v, s))
    res = gamma_plus(IndexSet.dense(600), IndexSet.dense(600), sieve_10k)
    assert res.c_count == 91816
    assert sum(factored) * 20 < res.c_count


def test_gamma_dense_answers_pinned(sieve_10k):
    pins = {600: (358201, (597, 600, 358201), 91816),
            1000: (997001, (997, 1000, 997001), 248083),
            3000: (8991001, (2997, 3000, 8991001), 2121063)}
    for n, want in pins.items():
        res = gamma_plus(IndexSet.dense(n), IndexSet.dense(n), sieve_10k)
        assert (res.gamma_plus, res.witness, res.c_count) == want


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
