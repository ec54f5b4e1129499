"""Weighted sequences, convolution, condition checks, the von Mangoldt
expansion, and the divisor-sum family, each against direct enumeration."""

import math
import random
import subprocess
import sys
import time
from math import gcd, isqrt, log

import pytest

from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.sequences import (DIVISOR_SELECTORS, ConditionReport,
                              WeightedSequence, a1_lhs, check_A2, check_A3,
                              check_A4, convolve, convolve3, delta,
                              divisor_sum_lhs, divisor_sum_rhs_shape,
                              heath_brown_terms, norm)
from gpflab.sieve import build_sieve, factorize, is_prime_u64, rough_indicator, tau_ell


def naive_phi(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if gcd(a, q) == 1)


def naive_tau_j(n: int, j: int) -> int:
    # ordered j-tuples with product n
    if j == 0:
        return 1 if n == 1 else 0
    if j == 1:
        return 1
    return sum(naive_tau_j(n // d, j - 1) for d in range(1, n + 1) if n % d == 0)


def naive_spf(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_rough(n: int, z: float) -> bool:
    return n == 1 or naive_spf(n) >= z


def naive_lambda(n: int) -> float:
    if n < 2:
        return 0.0
    p = naive_spf(n)
    m = n
    while m % p == 0:
        m //= p
    return log(p) if m == 1 else 0.0


def rand_seq(rng, lo_max=8, width=24) -> WeightedSequence:
    lo = rng.randint(1, lo_max)
    hi = lo + rng.randint(0, width)
    vals = [rng.choice([0.0, 0.0, rng.uniform(-2, 2)]) for _ in range(hi - lo + 1)]
    return WeightedSequence(lo, hi, vals)


def test_sequence_basics():
    f = WeightedSequence.from_pairs([(3, 1.5), (7, -2.0)])
    assert (f.lo, f.hi) == (3, 7)
    assert f.value(3) == 1.5 and f.value(7) == -2.0
    assert f.value(5) == 0.0 and f.value(2) == 0.0 and f.value(8) == 0.0
    assert f.support().tolist() == [3, 7]
    assert abs(norm(f) - math.sqrt(1.5**2 + 4.0)) < 1e-15
    ind = WeightedSequence.indicator(2, 5)
    assert ind.values.tolist() == [1.0, 1.0, 1.0, 1.0]
    with pytest.raises(InvalidArgumentError):
        WeightedSequence(0, 5, [1.0] * 6)
    with pytest.raises(InvalidArgumentError):
        WeightedSequence(2, 5, [1.0] * 3)
    with pytest.raises(InvalidArgumentError):
        WeightedSequence.from_pairs([(3, 1.0), (3, 2.0)])
    with pytest.raises(InvalidArgumentError):
        WeightedSequence.from_pairs([])


def test_sequence_file_parsing(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# weights\n3 1.5\n\n7 -2 # tail\n")
    f = WeightedSequence.from_file(path)
    assert f.value(3) == 1.5 and f.value(7) == -2.0
    path.write_text("3 1.5 9\n")
    with pytest.raises(InvalidArgumentError):
        WeightedSequence.from_file(path)
    path.write_text("x 1.5\n")
    with pytest.raises(InvalidArgumentError):
        WeightedSequence.from_file(path)
    path.write_text("# nothing\n")
    with pytest.raises(InvalidArgumentError):
        WeightedSequence.from_file(path)


def test_sequence_refuses_non_finite_weights(tmp_path):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="n = 6"):
            WeightedSequence(5, 7, [1.0, bad, 2.0])
        with pytest.raises(InvalidArgumentError, match="n = 9"):
            WeightedSequence.from_pairs([(3, 1.0), (9, bad)])
    path = tmp_path / "seq.txt"
    path.write_text("2 1\n# comment\n3 nan\n")
    with pytest.raises(InvalidArgumentError, match=f"{path}:3:"):
        WeightedSequence.from_file(path)


def test_convolve_small_example():
    f = WeightedSequence.indicator(1, 2)
    g = WeightedSequence.indicator(1, 2)
    fg = convolve(f, g)
    assert (fg.lo, fg.hi) == (1, 4)
    assert fg.value(1) == 1.0
    assert fg.value(2) == 2.0
    assert fg.value(3) == 0.0
    assert fg.value(4) == 1.0
    one = WeightedSequence.from_pairs([(1, 1.0)])
    h = WeightedSequence.from_pairs([(2, 0.5), (9, -3.0)])
    assert convolve(one, h).values.tolist() == h.values.tolist()


def test_convolve_matches_double_loop():
    rng = random.Random(101)
    for _ in range(8):
        f, g = rand_seq(rng), rand_seq(rng)
        fg = convolve(f, g)
        for n in range(fg.lo, fg.hi + 1):
            want = math.fsum(f.value(d) * g.value(n // d)
                             for d in range(1, n + 1) if n % d == 0)
            assert abs(fg.value(n) - want) < 1e-12


def test_convolve_commutative_associative():
    rng = random.Random(55)
    for _ in range(6):
        f, g, h = rand_seq(rng), rand_seq(rng), rand_seq(rng)
        fg, gf = convolve(f, g), convolve(g, f)
        assert (fg.lo, fg.hi) == (gf.lo, gf.hi)
        assert all(abs(a - b) < 1e-12 for a, b in zip(fg.values, gf.values))
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        assert (lhs.lo, lhs.hi) == (rhs.lo, rhs.hi)
        assert all(abs(a - b) < 1e-12 for a, b in zip(lhs.values, rhs.values))
        tri = convolve3(f, g, h)
        assert all(abs(a - b) < 1e-12 for a, b in zip(tri.values, lhs.values))


def test_convolve_budget():
    f = WeightedSequence.indicator(1, 100_000)
    g = WeightedSequence.indicator(1, 10_001)
    with pytest.raises(RangeBudgetError):
        convolve(f, g)


def test_delta_brute_and_residue_sum():
    rng = random.Random(202)
    for _ in range(6):
        f = rand_seq(rng)
        for q in (1, 2, 5, 12):
            for a in (0, 1, 3, -1):
                main = math.fsum(f.value(n) for n in range(f.lo, f.hi + 1)
                                 if n % q == a % q)
                cop = math.fsum(f.value(n) for n in range(f.lo, f.hi + 1)
                                if gcd(n, q) == 1)
                assert abs(delta(f, q, a) - (main - cop / naive_phi(q))) < 1e-12
        # summed over reduced residues the discrepancies cancel
        for q in (3, 8, 15):
            s = math.fsum(delta(f, q, a) for a in range(1, q + 1)
                          if gcd(a, q) == 1)
            assert abs(s) < 1e-12
    with pytest.raises(InvalidArgumentError):
        delta(WeightedSequence.indicator(1, 5), 0, 1)


def test_delta_of_convolution_matches_pair_loop():
    rng = random.Random(303)
    for _ in range(5):
        f, g = rand_seq(rng), rand_seq(rng)
        fg = convolve(f, g)
        for q, a in ((7, 2), (12, 5), (20, 19)):
            s1 = s2 = 0.0
            for m in range(f.lo, f.hi + 1):
                for n in range(g.lo, g.hi + 1):
                    w = f.value(m) * g.value(n)
                    if w == 0.0:
                        continue
                    if (m * n - a) % q == 0:
                        s1 += w
                    if gcd(m * n, q) == 1:
                        s2 += w
            assert abs(delta(fg, q, a) - (s1 - s2 / naive_phi(q))) < 1e-9


def test_a1_lhs_example_and_brute():
    f = WeightedSequence.indicator(1, 20)
    assert abs(a1_lhs(f, 2, 3, 1) - 0.5) < 1e-12
    rng = random.Random(404)
    for _ in range(5):
        g = rand_seq(rng)
        for d, k, ell in ((2, 3, 1), (6, 5, 2), (1, 4, 3)):
            main = math.fsum(g.value(n) for n in range(g.lo, g.hi + 1)
                             if gcd(n, d) == 1 and n % k == ell % k)
            ref = math.fsum(g.value(n) for n in range(g.lo, g.hi + 1)
                            if gcd(n, d * k) == 1)
            assert abs(a1_lhs(g, d, k, ell) - abs(main - ref / naive_phi(k))) < 1e-12
    with pytest.raises(InvalidArgumentError):
        a1_lhs(f, 2, 6, 3)
    # d and k fit int64 but their product, which numpy reduces by, does not
    with pytest.raises(RangeBudgetError, match=r"d\*k < 2\*\*63"):
        a1_lhs(f, 5 * 10**9, 5 * 10**9, 1)


def test_check_a2():
    ok = check_A2(WeightedSequence.indicator(1, 30), 1.0)
    assert ok.holds is True
    bad = check_A2(WeightedSequence.from_pairs([(2, 5.0)]), 1.0)
    assert bad.holds is False
    assert bad.worst_case == 2
    assert bad.lhs == 5.0 and bad.rhs == 2.0
    empty = check_A2(WeightedSequence.from_pairs([(3, 0.0)]), 1.0)
    assert empty.holds is True and empty.worst_case is None
    with pytest.raises(InvalidArgumentError):
        check_A2(WeightedSequence.indicator(1, 3), 0.0)


def per_integer_a2(f, bound, sieve):
    """check_A2 by one tau_ell per supported n, the first maximum kept."""
    worst, worst_ratio = None, -1.0
    for n in f.support().tolist():
        ratio = abs(f.value(n)) / (bound * tau_ell(n, 2, sieve) ** bound)
        if ratio > worst_ratio:
            worst, worst_ratio = n, ratio
    if worst is None:
        return ConditionReport("A2", {"B": bound}, True, None, None, None)
    return ConditionReport("A2", {"B": bound}, worst_ratio <= 1.0, worst,
                           abs(f.value(worst)),
                           bound * tau_ell(worst, 2, sieve) ** bound)


def test_check_a2_strikes_match_per_integer_loop(sieve_m):
    # the strided tau over the hull against tau_ell of each supported n:
    # same floats, same first maximum; windows up to 1e12 leave one prime
    # above isqrt(hi) as cofactor
    rng = random.Random(14)
    for i in range(300):
        top = 10 ** 12 if i % 60 == 0 else rng.choice([60, 10 ** 5, 10 ** 9])
        lo = rng.choice([1, 2, rng.randint(1, top)])
        hi = lo + rng.randint(0, 40 if top > 10 ** 9 else 300)
        keep = rng.choice([0.05, 0.5, 1.0])
        vals = [rng.choice([1.0, -0.5, 3.0, rng.uniform(-40, 40)])
                if rng.random() < keep else 0.0 for _ in range(lo, hi + 1)]
        f = WeightedSequence(lo, hi, vals)
        bound = rng.choice([1, 2, 0.5, 1.7, rng.uniform(0.1, 3)])
        assert check_A2(f, bound) == per_integer_a2(f, bound, sieve_m), (lo, hi, bound)


def test_check_a2_window_of_1e5_is_fast(sieve_m):
    f = WeightedSequence.indicator(1, 100_000)
    t0 = time.perf_counter()
    rep = check_A2(f, 2)
    assert time.perf_counter() - t0 < 0.3
    assert rep == per_integer_a2(f, 2, sieve_m)


def test_check_a3_both_sides_of_threshold():
    x = 10_000.0
    z0 = math.exp(log(x) / log(log(x)) ** 2)
    assert 5.0 < z0 < 7.0  # the probe residues below sit on each side
    rough = check_A3(WeightedSequence.from_pairs([(7, 1.0), (11, 2.0)]), x)
    assert rough.holds is True
    smooth = check_A3(WeightedSequence.from_pairs([(5, 1.0), (7, 1.0)]), x)
    assert smooth.holds is False
    assert smooth.worst_case == 5 and smooth.lhs == 5.0
    assert abs(smooth.rhs - z0) < 1e-12
    trivial = check_A3(WeightedSequence.from_pairs([(1, 3.0)]), x)
    assert trivial.holds is True


def test_check_a3_strikes_match_per_integer_loop():
    # the strided strikes against the spf of each supported n in turn: the
    # worst case is the first n with the least spf, n = 1 is skipped
    rng = random.Random(13)
    for _ in range(300):
        lo = rng.choice([1, 2, rng.randint(1, 60), rng.randint(1, 200_000)])
        hi = lo + rng.randint(0, 300)
        keep = rng.choice([0.05, 0.5, 1.0])
        odd = rng.random() < 0.4  # supports with no small prime factor
        vals = [rng.choice([1.0, -0.5]) if rng.random() < keep
                and (not odd or n == 1 or naive_spf(n) > 7) else 0.0
                for n in range(lo, hi + 1)]
        f = WeightedSequence(lo, hi, vals)
        x = 10 ** rng.uniform(1, 8)
        worst = worst_spf = None
        for n in f.support().tolist():
            if n != 1 and (worst_spf is None or naive_spf(n) < worst_spf):
                worst, worst_spf = n, naive_spf(n)
        rep = check_A3(f, x)
        assert rep.worst_case == worst, (lo, hi)
        if worst is None:
            assert rep.holds is True and rep.lhs is None
        else:
            assert rep.lhs == float(worst_spf)
            assert rep.holds == (worst_spf > rep.rhs)


def test_check_a3_strikes_only_primes_that_hit_the_hull():
    # the primes in [1e12, 1e12 + 1000]: no prime <= 1e6 divides any of
    # them, so the report is that of the per-integer loop on their least
    # prime factors, and only the primes with a multiple in the hull are struck
    lo = 10 ** 12
    sup = [n for n in range(lo, lo + 1001) if is_prime_u64(n)]
    assert len(sup) == 37
    f = WeightedSequence.from_pairs([(n, 1.0) for n in sup])
    x = 1e6
    sieve = build_sieve(10 ** 6 + 1)
    spfs = [factorize(n, sieve).factors[0][0] for n in sup]
    worst = sup[spfs.index(min(spfs))]
    z0 = math.exp(log(x) / log(log(x)) ** 2)
    want = ConditionReport("A3", {"x": x}, min(spfs) > z0, worst, float(min(spfs)), z0)
    assert check_A3(f, x) == want
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        check_A3(f, x)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.1


def test_check_a4():
    members = [n for n in range(11, 20) if is_rough(n, 4)]
    assert members == [11, 13, 17, 19]
    good = WeightedSequence.from_pairs([(n, 1.0) for n in members])
    assert check_A4(good, 4.0).holds is True
    hole = WeightedSequence.from_pairs([(11, 1.0), (17, 1.0), (19, 1.0)])
    rep = check_A4(hole, 4.0)
    assert rep.holds is False and rep.worst_case == 13
    scaled = WeightedSequence.from_pairs([(11, 2.0), (13, 1.0)])
    assert check_A4(scaled, 4.0).holds is False
    wide = WeightedSequence.indicator(10, 20)
    rep = check_A4(wide, 2.0)
    assert rep.holds is False and rep.worst_case == 20
    assert check_A4(WeightedSequence.from_pairs([(5, 0.0)]), 3.0).holds is True
    with pytest.raises(InvalidArgumentError):
        check_A4(wide, 1.5)


def test_check_a4_strikes_match_rough_indicator(sieve_10k):
    # windows whose threshold z sits just below, at and above isqrt(l2) + 1,
    # where an unstruck n turns from rough to "rough iff a prime >= z"
    rng = random.Random(4)
    for _ in range(300):
        l2 = rng.randint(2, 60_000)
        l1 = rng.randint(max(l2 // 2 + 1, l2 - 1_000), l2)
        z = isqrt(l2) + 1 + rng.choice([-1.5, -1, -0.5, 0, 0.5, 1, 2.5])
        z = max(z, 2)
        rough = [rough_indicator(n, z, sieve_10k) for n in range(l1, l2 + 1)]
        if not any(rough):
            continue
        f = WeightedSequence(l1, l2, rough)
        assert check_A4(f, z).holds is True, (l1, l2, z)
        flip = rng.randrange(l2 - l1 + 1)
        f.values[flip] = 1.0 - f.values[flip]
        sup = f.support()
        if not sup.size:
            continue
        lo, hi = int(sup[0]), int(sup[-1])
        first = next((n for n in range(lo, hi + 1)
                      if rough[n - l1] != (f.value(n) != 0)), None)
        rep = check_A4(f, z)
        assert (rep.holds, rep.worst_case) == (first is None, first), (l1, l2, z, flip)


def test_heath_brown_equals_von_mangoldt(sieve_10k):
    for n in list(range(1, 200)) + [243, 256, 257, 331, 420, 499]:
        lam = naive_lambda(n)
        for J in (1, 2, 3, 4):
            res = heath_brown_terms(n, float(n), J, sieve_10k)
            assert abs(res.total - lam) < 1e-9
            assert [j for j, _ in res.terms] == list(range(1, J + 1))
    # n may exceed x up to the factor 2
    res = heath_brown_terms(97, 50.0, 2, sieve_10k)
    assert abs(res.total - log(97)) < 1e-9


def test_heath_brown_rejects(sieve_10k):
    with pytest.raises(InvalidArgumentError):
        heath_brown_terms(10, 10.0, 0, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        heath_brown_terms(10, 10.0, 8, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        heath_brown_terms(0, 10.0, 2, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        heath_brown_terms(21, 10.0, 2, sieve_10k)


# "n x J" then float.hex of term_1..term_J and of the total, recorded from the
# expansion that listed every chain m_1..m_j; the merged chain states must
# reproduce them bit for bit.  x < n, x = n and x = 1e16 for each n and J.
_HB_PINNED = """
    1 1.0 1 0x0.0p+0 0x0.0p+0
    1 1e+16 1 0x0.0p+0 0x0.0p+0
    1 1.0 2 0x0.0p+0 0x0.0p+0 0x0.0p+0
    1 1e+16 2 0x0.0p+0 0x0.0p+0 0x0.0p+0
    1 1.0 3 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0
    1 1e+16 3 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0
    1 1.0 4 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0
    1 1e+16 4 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0
    1 1.0 5 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x0.0p+0
    1 1e+16 5 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x0.0p+0
    1 1.0 6 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0
    1 1e+16 6 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0
    1 1.0 7 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0
    1 1e+16 7 0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0 0x0.0p+0
        0x0.0p+0 0x0.0p+0
    60 30.5 1 -0x1.0000000000000p-53 -0x1.0000000000000p-53
    60 60.0 1 -0x1.0000000000000p-53 -0x1.0000000000000p-53
    60 1e+16 1 -0x1.0000000000000p-53 -0x1.0000000000000p-53
    60 30.5 2 -0x1.326643c4479cap+2 -0x1.326643c4479ccp+3 0x1.0000000000000p-48
    60 60.0 2 -0x1.3e116bcd39e7dp+1 -0x1.3e116bcd39e81p+2 0x1.0000000000000p-48
    60 1e+16 2 -0x1.0000000000000p-53 -0x1.4000000000000p-48 0x1.3000000000000p-48
    60 30.5 3 -0x1.26bb1bbb55516p+1 -0x1.7f7427b73e395p+2 -0x1.6221e6c65d58bp+3
        0x1.2000000000000p-47
    60 60.0 3 -0x1.26bb1bbb55516p+1 -0x1.7f7427b73e395p+2 -0x1.6221e6c65d58bp+3
        0x1.2000000000000p-47
    60 1e+16 3 -0x1.0000000000000p-53 -0x1.4000000000000p-48 -0x1.5400000000000p-47
        0x1.0000000000000p-48
    60 30.5 4 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e6p+1 0x1.8f40b5ed98126p+2
        0x1.62e42fefa39eap+3 0x1.4000000000000p-47
    60 60.0 4 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e6p+1 0x1.8f40b5ed98126p+2
        0x1.62e42fefa39eap+3 0x1.4000000000000p-47
    60 1e+16 4 -0x1.0000000000000p-53 -0x1.4000000000000p-48 -0x1.5400000000000p-47
        0x1.0000000000000p-46 -0x1.d000000000000p-46
    60 30.5 5 0x1.0609bdc65328bp+2 0x1.890e9ca97cbd0p+4 0x1.26caf57f1d8ddp+6
        0x1.478c2d37e7f2ep+7 0x1.33136a646973bp+8 -0x1.0000000000000p-47
    60 60.0 5 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e6p+1 0x1.8f40b5ed98126p+2
        0x1.62e42fefa39eap+3 0x1.1542457337d3ap+4 -0x1.2000000000000p-48
    60 1e+16 5 -0x1.0000000000000p-53 -0x1.4000000000000p-48 -0x1.5400000000000p-47
        0x1.0000000000000p-46 0x1.e800000000000p-48 -0x1.0280000000000p-43
    60 30.5 6 0x1.0609bdc65328bp+2 0x1.890e9ca97cbd0p+4 0x1.26caf57f1d8ddp+6
        0x1.478c2d37e7f2ep+7 0x1.33136a646973bp+8 0x1.01f196cf39dc1p+9
        0x0.0p+0
    60 60.0 6 0x1.0609bdc65328bp+2 0x1.890e9ca97cbd0p+4 0x1.26caf57f1d8ddp+6
        0x1.478c2d37e7f2ep+7 0x1.33136a646973bp+8 0x1.01f196cf39dc1p+9
        0x0.0p+0
    60 1e+16 6 -0x1.0000000000000p-53 -0x1.4000000000000p-48 -0x1.5400000000000p-47
        0x1.0000000000000p-46 0x1.e800000000000p-48 -0x1.0000000000000p-43
        -0x1.9900000000000p-43
    60 30.5 7 0x1.0609bdc65328bp+2 0x1.890e9ca97cbd0p+4 0x1.26caf57f1d8ddp+6
        0x1.478c2d37e7f2ep+7 0x1.33136a646973bp+8 0x1.01f196cf39dc1p+9
        0x1.913eea97af565p+9 0x1.3000000000000p-44
    60 60.0 7 0x1.0609bdc65328bp+2 0x1.890e9ca97cbd0p+4 0x1.26caf57f1d8ddp+6
        0x1.478c2d37e7f2ep+7 0x1.33136a646973bp+8 0x1.01f196cf39dc1p+9
        0x1.913eea97af565p+9 0x1.3000000000000p-44
    60 1e+16 7 -0x1.0000000000000p-53 -0x1.4000000000000p-48 -0x1.5400000000000p-47
        0x1.0000000000000p-46 0x1.e800000000000p-48 -0x1.0000000000000p-43
        -0x1.0a80000000000p-44 0x1.4380000000000p-43
    64 32.5 1 0x1.62e42fefa39ecp-1 0x1.62e42fefa39ecp-1
    64 64.0 1 0x1.62e42fefa39ecp-1 0x1.62e42fefa39ecp-1
    64 1e+16 1 0x1.62e42fefa39ecp-1 0x1.62e42fefa39ecp-1
    64 32.5 2 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa39f0p-1
    64 64.0 2 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa39f0p-1
    64 1e+16 2 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa39f0p-1
    64 32.5 3 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa3a24p-1
    64 64.0 3 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa3a24p-1
    64 1e+16 3 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa3a24p-1
    64 32.5 4 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa3bb4p-1
    64 64.0 4 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa3bb4p-1
    64 1e+16 4 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa3bb4p-1
    64 32.5 5 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa39c9p-1 0x1.62e42fefa40a9p-1
    64 64.0 5 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa39c9p-1 0x1.62e42fefa40a9p-1
    64 1e+16 5 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa39c9p-1 0x1.62e42fefa40a9p-1
    64 32.5 6 0x1.0a2b23f3bab73p+2 0x1.d1cb7eea86c09p+3 0x1.3687a9f1af2b1p+5
        0x1.5d589f2fe5107p+6 0x1.5d589f2fe5107p+7 0x1.403be7413ca47p+8
        0x1.62e42fefa3380p-1
    64 64.0 6 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa39c9p-1 0x1.62e42fefa389ep-1
        0x1.62e42fefa4d12p-1
    64 1e+16 6 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa39c9p-1 0x1.62e42fefa389ep-1
        0x1.62e42fefa4d12p-1
    64 32.5 7 0x1.0a2b23f3bab73p+2 0x1.d1cb7eea86c09p+3 0x1.3687a9f1af2b1p+5
        0x1.5d589f2fe5107p+6 0x1.5d589f2fe5107p+7 0x1.403be7413ca47p+8
        0x1.127c7d13588cfp+9 0x1.62e42fefa3120p-1
    64 64.0 7 0x1.0a2b23f3bab73p+2 0x1.d1cb7eea86c09p+3 0x1.3687a9f1af2b1p+5
        0x1.5d589f2fe5107p+6 0x1.5d589f2fe5107p+7 0x1.403be7413ca47p+8
        0x1.127c7d13588cfp+9 0x1.62e42fefa3120p-1
    64 1e+16 7 0x1.62e42fefa39ecp-1 0x1.62e42fefa39e8p-1 0x1.62e42fefa3a18p-1
        0x1.62e42fefa38ecp-1 0x1.62e42fefa39c9p-1 0x1.62e42fefa389ep-1
        0x1.62e42fefa32edp-1 0x1.62e42fefa628dp-1
    97 49.0 1 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 97.0 1 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 1e+16 1 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 49.0 2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 97.0 2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 1e+16 2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 49.0 3 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2
    97 97.0 3 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2
    97 1e+16 3 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2
    97 49.0 4 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 97.0 4 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 1e+16 4 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 49.0 5 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 97.0 5 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 1e+16 5 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 49.0 6 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54c08p+2
    97 97.0 6 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54c08p+2
    97 1e+16 6 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54c08p+2
    97 49.0 7 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 97.0 7 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    97 1e+16 7 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
        0x1.24c8108e54bf8p+2 0x1.24c8108e54bf8p+2
    720720 360360.5 1 0x1.0000000000000p-50 0x1.0000000000000p-50
    720720 720720.0 1 0x1.0000000000000p-50 0x1.0000000000000p-50
    720720 1e+16 1 0x1.0000000000000p-50 0x1.0000000000000p-50
    720720 360360.5 2 -0x1.5a2c894b42bcap+4 -0x1.5a2c894b42bbcp+5 -0x1.c000000000000p-44
    720720 720720.0 2 -0x1.5b5c15228f1b4p+4 -0x1.5b5c15228f1aap+5 -0x1.4000000000000p-44
    720720 1e+16 2 0x1.0000000000000p-50 0x1.3000000000000p-43 -0x1.2c00000000000p-43
    720720 360360.5 3 0x1.c9e6579622fcep+4 0x1.a38f3e228f5c1p+6 0x1.c9a07c5b8a0ccp+7
        0x1.0b80000000000p-36
    720720 720720.0 3 0x1.ca1b31c97f6c9p+4 0x1.926bd4c871bb4p+6 0x1.afd78c811aed1p+7
        0x1.ce80000000000p-37
    720720 1e+16 3 0x1.0000000000000p-50 0x1.3000000000000p-43 0x1.1b2f000000000p-37
        0x1.0d07000000000p-37
    720720 360360.5 4 0x1.0711f3368379ap+3 -0x1.33b2b6c3ada5ap+8 -0x1.82adb224d543cp+9
        -0x1.2f96c28a72181p+10 0x1.2668000000000p-33
    720720 720720.0 4 0x1.2736af24316ffp+4 -0x1.72d867654d09ep+6 -0x1.2c3729e44ba0dp+8
        -0x1.1d6530581788ep+9 0x1.e4f0000000000p-34
    720720 1e+16 4 0x1.3e116bcd39e7ep+2 0x1.3e116bcd39ec8p+3 0x1.dd1a21b3d7f90p+3
        0x1.3e116bcd3800ep+4 0x1.04e0000000000p-34
    720720 360360.5 5 -0x1.7534a61fec258p+4 0x1.203e9b3a379e8p+9 0x1.05fed50194ee0p+11
        0x1.196fc1f137d63p+12 0x1.d0cce9f5931edp+12 -0x1.1a17000000000p-29
    720720 720720.0 5 -0x1.766431f738842p+4 0x1.9d3500629e581p+9 0x1.5f8e4465c9ebcp+10
        0x1.375ba5fe8b84bp+9 -0x1.40f05b949053dp+11 -0x1.3059000000000p-29
    720720 1e+16 5 0x1.02fabd33c45c0p+2 0x1.02fabd33c4602p+3 0x1.84781bcda7b5cp+3
        0x1.02fabd33c2484p+4 0x1.43b96c7fb530fp+4 -0x1.e032200000000p-29
    720720 360360.5 6 -0x1.76bb0a177fe9ep+4 0x1.4913c0358595ep+8 0x1.10f4a12bf0d6dp+11
        0x1.c9a72d00e60bcp+12 0x1.1c1eae9f2ca1ep+14 0x1.27cb0424ecadap+15
        -0x1.63fd800000000p-27
    720720 720720.0 6 -0x1.76bb0a177fe9ep+4 0x1.4913c0358595ep+8 0x1.10f4a12bf0d6dp+11
        0x1.c9a72d00e60bcp+12 0x1.1c1eae9f2ca1ep+14 0x1.27cb0424ecadap+15
        -0x1.63fd800000000p-27
    720720 1e+16 6 -0x1.cd23e1ab53125p+4 -0x1.cd23e1ab53118p+5 -0x1.59dae9407e252p+6
        -0x1.cd23e1ab53ac0p+6 -0x1.20366d0b341a0p+7 -0x1.59dae9406975ep+7
        -0x1.9fb6c00000000p-26
    720720 360360.5 7 -0x1.7c1d3acdc4b71p+3 -0x1.0d92f85a30d55p+7 -0x1.268bae4963650p+9
        -0x1.ac9bae40cdb2fp+10 -0x1.f03748fce4947p+11 -0x1.efd2b4814243ap+12
        -0x1.bef1cc06657f8p+13 -0x1.9760300000000p-26
    720720 720720.0 7 -0x1.7c1d3acdc4b71p+3 -0x1.0d92f85a30d55p+7 -0x1.268bae4963650p+9
        -0x1.ac9bae40cdb2fp+10 -0x1.f03748fce4947p+11 -0x1.efd2b4814243ap+12
        -0x1.bef1cc06657f8p+13 -0x1.9760300000000p-26
    720720 1e+16 7 -0x1.4e69d29167d6ap+2 -0x1.0254a48ec13c2p+5 -0x1.44cb1f5ade2f7p+6
        -0x1.2fe48231c841cp+7 -0x1.e91200b0d9fdcp+7 -0x1.66f70595193aap+8
        -0x1.ef3c50cf5375ap+8 -0x1.a780ba0000000p-24
    9699690 1e+16 5 -0x1.0892ed983d6f0p+6 -0x1.1f39ccb4f0554p+7 -0x1.d0d101ba74e68p+7
        -0x1.4c878aee56486p+8 -0x1.bbfa048dcf5cap+8 -0x1.c9d0000000000p-31
"""


def test_heath_brown_keeps_its_bits(sieve_10k):
    tokens = _HB_PINNED.split()
    cases = 0
    while tokens:
        n, x, J = int(tokens[0]), float(tokens[1]), int(tokens[2])
        want, tokens = tokens[3:4 + J], tokens[4 + J:]
        res = heath_brown_terms(n, x, J, sieve_10k)
        assert [t.hex() for _, t in res.terms] + [res.total.hex()] == want, (n, x, J)
        cases += 1
    assert cases == 99


def test_heath_brown_merges_chains(sieve_10k):
    # 2*3*...*19 has 256 divisors; a list of chains took 25 s at J = 6
    t0 = time.perf_counter()
    res = heath_brown_terms(9699690, 1e16, 7, sieve_10k)
    assert time.perf_counter() - t0 < 2.0
    assert abs(res.total) < 1e-6


def test_window_tau_power(sieve_10k):
    assert divisor_sum_lhs("window-tau-power",
                           {"x": 10, "y": 10, "ell": 1, "k": 1}, sieve_10k) == 10.0
    x, y, ell, k = 50.5, 20.3, 3, 2
    want = math.fsum(naive_tau_j(n, ell) ** k
                     for n in range(1, 51) if x - y < n <= x)
    got = divisor_sum_lhs("window-tau-power",
                          {"x": x, "y": y, "ell": ell, "k": k}, sieve_10k)
    assert abs(got - want) < 1e-9
    with pytest.raises(InvalidArgumentError):
        divisor_sum_lhs("window-tau-power", {"x": 5, "y": 9, "ell": 1, "k": 1},
                        sieve_10k)


def test_rough_tau_family(sieve_10k):
    assert divisor_sum_lhs("rough-tau", {"x": 50, "z": 51, "j": 3}, sieve_10k) == 1.0
    x, z, j = 300, 7, 2
    terms = [(n, naive_tau_j(n, j)) for n in range(1, x + 1) if is_rough(n, z)]
    want_plain = float(sum(t for _, t in terms))
    want_harm = math.fsum(t / n for n, t in terms)
    want_hyp = float(sum(t * (x // n) for n, t in terms))
    assert abs(divisor_sum_lhs("rough-tau", {"x": x, "z": z, "j": j},
                               sieve_10k) - want_plain) < 1e-9
    assert abs(divisor_sum_lhs("rough-tau-harmonic", {"x": x, "z": z, "j": j},
                               sieve_10k) - want_harm) < 1e-9
    assert abs(divisor_sum_lhs("rough-tau-hyperbola", {"x": x, "z": z, "j": j},
                               sieve_10k) - want_hyp) < 1e-9

    w = 5
    want_log = math.fsum(t / (n * log(2.0 * n)) for n, t in terms if n > w)
    assert abs(divisor_sum_lhs("rough-tau-harmonic-log",
                               {"w": w, "x": x, "z": z, "j": j}, sieve_10k)
               - want_log) < 1e-9

    xw, yw = 50, 3.0
    want_win = math.fsum(naive_tau_j(n, j) / n for n in range(51, 151)
                         if is_rough(n, z))
    assert abs(divisor_sum_lhs("rough-tau-window-harmonic",
                               {"x": xw, "y": yw, "z": z, "j": j}, sieve_10k)
               - want_win) < 1e-9

    want_hh = math.fsum((naive_tau_j(n, j) / n)
                        * math.fsum(1.0 / t for t in range(xw // n + 1,
                                                           (xw * 3) // n + 1))
                        for n in range(1, 151) if is_rough(n, z))
    assert abs(divisor_sum_lhs("rough-tau-hyperbola-harmonic",
                               {"x": xw, "y": yw, "z": z, "j": j}, sieve_10k)
               - want_hh) < 1e-8


def _brute_fourfold(x, y, z, w, js, glued=False):
    xi = int(x)
    total = 0.0
    e4 = max(1, math.ceil(w))
    while e4**4 <= xi:
        if is_rough(e4, z):
            f4 = naive_tau_j(e4, js[3])
            e3 = e4
            while e3**3 * e4 <= xi and e3 <= y * e4:
                if is_rough(e3, z):
                    f3 = naive_tau_j(e3, js[2])
                    e2 = e3
                    while e2 * e2 * e3 * e4 <= xi:
                        if is_rough(e2, z):
                            f2 = naive_tau_j(e2, js[1])
                            cap = min(xi // (e2 * e3 * e4), int(y * e2))
                            for e1 in range(e2, cap + 1):
                                if glued:
                                    f1 = sum(naive_tau_j(d, js[0])
                                             for d in range(1, e1 + 1)
                                             if e1 % d == 0 and is_rough(d, z))
                                elif is_rough(e1, z):
                                    f1 = naive_tau_j(e1, js[0])
                                else:
                                    f1 = 0
                                total += f4 * f3 * f2 * f1
                        e2 += 1
                e3 += 1
        e4 += 1
    return total


def test_fourfold_matches_brute(sieve_10k):
    params = {"x": 2000, "y": 4.0, "z": 3.0, "w": 2,
              "j1": 2, "j2": 1, "j3": 1, "j4": 1}
    want = _brute_fourfold(2000, 4.0, 3.0, 2, (2, 1, 1, 1))
    got = divisor_sum_lhs("fourfold-ordered", params, sieve_10k)
    assert abs(got - want) < 1e-9
    want_g = _brute_fourfold(2000, 4.0, 3.0, 2, (2, 1, 1, 1), glued=True)
    got_g = divisor_sum_lhs("fourfold-glued", params, sieve_10k)
    assert abs(got_g - want_g) < 1e-9


def _brute_sfold(x, y, z, w, js, nu=None):
    s = len(js)
    xi = int(x)
    total = 0.0

    def weight(pos, e):
        # pos is 1-based from the innermost variable
        if nu is not None and pos == nu:
            return sum(naive_tau_j(d, js[pos - 1]) for d in range(1, e + 1)
                       if e % d == 0 and is_rough(d, z))
        return naive_tau_j(e, js[pos - 1]) if is_rough(e, z) else 0

    def rec(pos, lo, prod, wgt, e_s):
        if wgt == 0:
            return
        nonlocal total
        if pos == 1:
            for e1 in range(lo, xi // prod + 1):
                total += wgt * weight(1, e1)
            return
        e = lo
        while prod * e**pos <= xi:
            if pos == s - 2 and e > y * e_s:
                break
            rec(pos - 1, e, prod * e, wgt * weight(pos, e), e_s)
            e += 1

    e = max(1, math.ceil(w))
    while e**s <= xi:
        rec(s - 1, e, e, weight(s, e), e)
        e += 1
    return total


def test_sfold_matches_brute(sieve_10k):
    base = {"x": 500, "y": 3.0, "z": 3.0, "w": 1, "s": 5,
            "j1": 1, "j2": 1, "j3": 1, "j4": 1, "j5": 1}
    want = _brute_sfold(500, 3.0, 3.0, 1, (1, 1, 1, 1, 1))
    assert abs(divisor_sum_lhs("sfold-ordered", base, sieve_10k) - want) < 1e-9

    glued = dict(base, nu=3)
    want_g = _brute_sfold(500, 3.0, 3.0, 1, (1, 1, 1, 1, 1), nu=3)
    assert abs(divisor_sum_lhs("sfold-glued", glued, sieve_10k) - want_g) < 1e-9

    six = {"x": 200, "y": 2.5, "z": 2.0, "w": 1, "s": 6,
           "j1": 1, "j2": 1, "j3": 1, "j4": 1, "j5": 1, "j6": 1}
    want6 = _brute_sfold(200, 2.5, 2.0, 1, (1, 1, 1, 1, 1, 1))
    assert abs(divisor_sum_lhs("sfold-ordered", six, sieve_10k) - want6) < 1e-9


def test_divisor_sum_monotone(sieve_10k):
    # growing the window adds mass; raising the roughness bar removes it
    by_x = [divisor_sum_lhs("rough-tau", {"x": x, "z": 5, "j": 2}, sieve_10k)
            for x in (100, 200, 400)]
    assert by_x[0] <= by_x[1] <= by_x[2]
    by_z = [divisor_sum_lhs("rough-tau", {"x": 400, "z": z, "j": 2}, sieve_10k)
            for z in (2, 5, 20)]
    assert by_z[0] >= by_z[1] >= by_z[2]


def test_divisor_sum_rejects(sieve_10k):
    with pytest.raises(InvalidArgumentError):
        divisor_sum_lhs("no-such-sum", {}, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        divisor_sum_lhs("rough-tau", {"x": 100, "z": 5}, sieve_10k)
    with pytest.raises(RangeBudgetError):
        divisor_sum_lhs("rough-tau", {"x": 10_000_001, "z": 5, "j": 1}, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        divisor_sum_lhs("sfold-glued",
                        {"x": 100, "y": 2, "z": 2, "w": 1, "s": 5, "nu": 9,
                         **{f"j{i}": 1 for i in range(1, 6)}}, sieve_10k)
    with pytest.raises(InvalidArgumentError):
        divisor_sum_lhs("sfold-ordered",
                        {"x": 100, "y": 2, "z": 2, "w": 1, "s": 7,
                         **{f"j{i}": 1 for i in range(1, 8)}}, sieve_10k)
    # the shape reads its parameters through the same check as the sum
    with pytest.raises(InvalidArgumentError):
        divisor_sum_rhs_shape("rough-tau", {"x": 100})
    with pytest.raises(InvalidArgumentError):
        divisor_sum_rhs_shape("sfold-ordered",
                              {"x": 100, "y": 2, "z": 2, "w": 1, "s": 5})


def _every_param(x, y, z, w, j, nu):
    return {"x": x, "y": y, "z": z, "w": w, "j": j, "ell": 2, "k": 2,
            "s": 6 if nu == 6 else 5, "nu": nu, **{f"j{i}": j for i in range(1, 7)}}


# float.hex of (lhs, rhs_shape), recorded before the sums shared one
# parameter check and one chain enumerator: every selector at the two
# parameter sets of the factor-tables benchmark, widened to every parameter,
# and at the parameters of the brute-force tests above
_FACTOR_TABLES = (_every_param(5e5, 2, 5, 1, 3, 2), _every_param(1e5, 2, 3, 1, 2, 6))
_PINNED = {
    0: """window-tau-power 0x1.c200000000000p+10 0x1.499e30c9d307fp+12
rough-tau 0x1.5789c00000000p+21 0x1.dd2152b270d40p+22
rough-tau-harmonic 0x1.2c765e8857840p+5 0x1.afffffffffffdp+7
rough-tau-harmonic-log 0x1.201badf18ff1cp+2 0x1.379f43d5cb684p+8
rough-tau-window-harmonic 0x1.214ab949f640bp+2 0x1.91a54dc943783p+4
rough-tau-hyperbola 0x1.0cc0510000000p+24 0x1.116d72bb34bffp+28
rough-tau-hyperbola-harmonic 0x1.e396de46acb24p+4 0x1.d49799ce1a220p+9
fourfold-ordered 0x1.8ff4200000000p+20 0x1.9dfb1bf19203bp+44
fourfold-glued 0x1.8169640000000p+22 0x1.f54ca5e53cc10p+49
sfold-ordered 0x1.edfaf40000000p+23 0x1.f7f5e1399f7ecp+56
sfold-glued 0x1.65560b8000000p+25 0x1.270e1a77edc28p+68""",
    1: """window-tau-power 0x1.6800000000000p+10 0x1.c6a3e5e9030abp+11
rough-tau 0x1.3eb0000000000p+18 0x1.734af7b627911p+18
rough-tau-harmonic 0x1.866a62a3a83cbp+4 0x1.734380dd568f3p+5
rough-tau-harmonic-log 0x1.da83c54e527dcp+1 0x1.0bcf653f33441p+6
rough-tau-window-harmonic 0x1.3f69a9188625ep+1 0x1.78ba284b347c7p+2
rough-tau-hyperbola 0x1.193d900000000p+21 0x1.66f7739dafe89p+23
rough-tau-hyperbola-harmonic 0x1.33962fd6b2f61p+4 0x1.73e8b4d29a042p+7
fourfold-ordered 0x1.19df800000000p+18 0x1.902da5af9303fp+33
fourfold-glued 0x1.1977900000000p+20 0x1.972bceb3b6267p+38
sfold-ordered 0x1.f0e7f80000000p+21 0x1.20d754c766dcap+49
sfold-glued 0x1.06b55c0000000p+22 0x1.3611ec27e13d7p+61""",
}
_BRUTE_PINNED = [
    ("window-tau-power", {"x": 10, "y": 10, "ell": 1, "k": 1},
     "0x1.4000000000000p+3", "0x1.4000000000000p+3"),
    ("window-tau-power", {"x": 50.5, "y": 20.3, "ell": 3, "k": 2},
     "0x1.b120000000000p+12", "0x1.fe00164d0ffa7p+21"),
    ("rough-tau", {"x": 50, "z": 51, "j": 3},
     "0x1.0000000000000p+0", "0x1.56fde9c8d1b7fp+3"),
    ("rough-tau", {"x": 300, "z": 7, "j": 2},
     "0x1.8600000000000p+7", "0x1.138bf31e59092p+8"),
    ("rough-tau-harmonic", {"x": 300, "z": 7, "j": 2},
     "0x1.ba835baedebddp+1", "0x1.78085729a8197p+2"),
    ("rough-tau-hyperbola", {"x": 300, "z": 7, "j": 2},
     "0x1.df00000000000p+9", "0x1.a66fa9fbe7a8cp+11"),
    ("rough-tau-harmonic-log", {"w": 5, "x": 300, "z": 7, "j": 2},
     "0x1.30c1784214425p-1", "0x1.469e24ccb3a6bp+1"),
    ("rough-tau-window-harmonic", {"x": 50, "y": 3.0, "z": 7, "j": 2},
     "0x1.52fc96d4cdeedp-1", "0x1.d14459feb4bc8p+0"),
    ("rough-tau-hyperbola-harmonic", {"x": 50, "y": 3.0, "z": 7, "j": 2},
     "0x1.a0b1db1f56823p+1", "0x1.e4b7e1395ccd6p+3"),
    ("fourfold-ordered", {"x": 2000, "y": 4.0, "z": 3.0, "w": 2,
                          "j1": 2, "j2": 1, "j3": 1, "j4": 1},
     "0x1.6c00000000000p+7", "0x1.97a70d9ef8091p+18"),
    ("fourfold-glued", {"x": 2000, "y": 4.0, "z": 3.0, "w": 2,
                        "j1": 2, "j2": 1, "j3": 1, "j4": 1},
     "0x1.0280000000000p+9", "0x1.fe3b788d3ffcbp+22"),
    ("sfold-ordered", {"x": 500, "y": 3.0, "z": 3.0, "w": 1, "s": 5,
                       **{f"j{i}": 1 for i in range(1, 6)}},
     "0x1.1a80000000000p+9", "0x1.a4b7b4d7d7836p+19"),
    ("sfold-glued", {"x": 500, "y": 3.0, "z": 3.0, "w": 1, "s": 5, "nu": 3,
                     **{f"j{i}": 1 for i in range(1, 6)}},
     "0x1.7180000000000p+9", "0x1.490f960fb7f76p+28"),
    ("sfold-ordered", {"x": 200, "y": 2.5, "z": 2.0, "w": 1, "s": 6,
                       **{f"j{i}": 1 for i in range(1, 7)}},
     "0x1.bb80000000000p+9", "0x1.5046301a37545p+21"),
]


def test_divisor_sums_keep_their_bits(sieve_m):
    cases = [(sel, _FACTOR_TABLES[k], lhs, rhs)
             for k, rows in _PINNED.items()
             for sel, lhs, rhs in (row.split() for row in rows.splitlines())]
    assert {c[0] for c in cases} == set(DIVISOR_SELECTORS) == {c[0] for c in _BRUTE_PINNED}
    for sel, params, lhs, rhs in cases + _BRUTE_PINNED:
        got = (divisor_sum_lhs(sel, params, sieve_m).hex(),
               divisor_sum_rhs_shape(sel, params).hex())
        assert got == (lhs, rhs), (sel, params)


@pytest.mark.parametrize("x, y, z, j, want", [
    (1e5, 10, 5, 3, "0x1.61ac6a79c0676p+6"),
    (3e3, 7.5, 2, 1, "0x1.47c13ca438107p+4"),
    (12345, 3, 7, 2, "0x1.11a1a6692b868p+3"),
    (2e5, 1.5, 11, 4, "0x1.69437f018dfcdp+3"),
    (999, 1, 3, 0, "0x0.0p+0"),
    (7e4, 13, 2.5, 2, "0x1.33e325f0cb2bep+6"),
])
def test_hyperbola_harmonic_keeps_its_bits(sieve_m, x, y, z, j, want):
    # recorded while every term was computed over the whole range at once
    params = {"x": x, "y": y, "z": z, "j": j}
    assert divisor_sum_lhs("rough-tau-hyperbola-harmonic", params, sieve_m).hex() == want


def test_hyperbola_harmonic_peak_memory():
    """x*y = 4e6 integers: 207 MiB of peak growth measured with the terms
    computed a block at a time, 390 MiB with every longdouble array at full
    length.  The peak is the process's own VmHWM: ru_maxrss would start from
    the peak of the test process, which a child keeps across exec."""
    code = ("def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM'))\n"
            "from gpflab.sequences import divisor_sum_lhs\n"
            "from gpflab.sieve import build_sieve\n"
            "sieve = build_sieve(4 * 10**6 + 1)\n"
            "before = hwm()\n"
            "divisor_sum_lhs('rough-tau-hyperbola-harmonic',\n"
            "                {'x': 4e5, 'y': 10, 'z': 5, 'j': 3}, sieve)\n"
            "print(hwm() - before)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) < 300 * 1024  # VmHWM counts KiB


def test_rhs_shapes_positive_finite():
    cases = {
        "window-tau-power": {"x": 100, "y": 10, "ell": 2, "k": 2},
        "rough-tau": {"x": 100, "z": 5, "j": 2},
        "rough-tau-harmonic": {"x": 100, "z": 5, "j": 2},
        "rough-tau-harmonic-log": {"w": 4, "x": 100, "z": 5, "j": 2},
        "rough-tau-window-harmonic": {"x": 100, "y": 3, "z": 5, "j": 2},
        "rough-tau-hyperbola": {"x": 100, "z": 5, "j": 2},
        "rough-tau-hyperbola-harmonic": {"x": 100, "y": 3, "z": 5, "j": 2},
        "fourfold-ordered": {"x": 100, "y": 3, "z": 5, "w": 2,
                             "j1": 1, "j2": 1, "j3": 1, "j4": 1},
        "fourfold-glued": {"x": 100, "y": 3, "z": 5, "w": 2,
                           "j1": 1, "j2": 1, "j3": 1, "j4": 1},
        "sfold-ordered": {"x": 100, "y": 3, "z": 5, "w": 2, "s": 5,
                          **{f"j{i}": 1 for i in range(1, 6)}},
        "sfold-glued": {"x": 100, "y": 3, "z": 5, "w": 2, "s": 6, "nu": 2,
                        **{f"j{i}": 1 for i in range(1, 7)}},
    }
    assert set(cases) == set(DIVISOR_SELECTORS)
    for sel, params in cases.items():
        shape = divisor_sum_rhs_shape(sel, params)
        assert math.isfinite(shape) and shape > 0.0
    want = 100.0 / log(200.0) * (log(200.0) / log(10.0)) ** 2
    assert abs(divisor_sum_rhs_shape("rough-tau", cases["rough-tau"]) - want) < 1e-12
