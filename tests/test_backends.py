"""The numpy kernels of ``gpflab._accel`` against independent oracles.

The loop forms of the divisor-function tables (Dirichlet steps over d, and
the sum over divisors that glues a free variable) stay here as reference
implementations for the tables the prime-power strikes build.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from gpflab import _accel
from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.sequences import WeightedSequence, check_A2
from gpflab.sieve import (MAX_SIEVE_LIMIT, build_sieve, factorize,
                          greatest_prime_factor, greatest_prime_factor_batch,
                          segmented_primes, tau_table)


def dirichlet_tau_table(limit: int, ell: int) -> np.ndarray:
    """tau_ell over [0, limit] by ell - 1 Dirichlet steps with the ones."""
    if ell == 0:
        out = np.zeros(limit + 1, np.int64)
        out[1:2] = 1
        return out
    cur = np.ones(limit + 1, np.int64)
    cur[0] = 0
    for _ in range(ell - 1):
        nxt = np.zeros(limit + 1, np.int64)
        for d in range(1, limit + 1):
            if cur[d]:
                nxt[d::d] += cur[d]
        cur = nxt
    return cur


def divisor_sum_table(w: np.ndarray) -> np.ndarray:
    """(w * 1)(n) = sum over d | n of w[d], for n >= 1."""
    out = np.zeros_like(w)
    for d in range(1, w.size):
        if w[d]:
            out[d::d] += w[d]
    return out


def test_backend_reports_valid_name():
    assert _accel.backend() == "numpy"


def test_fresh_process_reports_numpy_backend():
    # the package binds no names: each is imported from its module
    code = ("import gpflab\n"
            "print([n for n in vars(gpflab) if not n.startswith('__')])\n"
            "import gpflab._accel, gpflab.cli\n"
            "print(gpflab._accel.backend(), gpflab.cli.main(['gpf', '--n', '91']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "n,gpf", "91,13", "numpy 0"]


def test_spf_fill_matches_trial_division():
    for limit in (0, 1, 2, 3, 4, 5000):
        spf = _accel.spf_fill(limit)
        assert spf.size == limit + 1
        want = [0, 1][: limit + 1] + [next(p for p in range(2, n + 1) if n % p == 0)
                                      for n in range(2, limit + 1)]
        assert spf.tolist() == want


def test_prime_fill_matches_trial_division():
    limits = list(range(301)) + [k * k + d for k in (17, 100) for d in (-1, 0, 1)]
    for limit in limits:
        want = [n for n in range(2, limit + 1)
                if all(n % p for p in range(2, math.isqrt(n) + 1))]
        assert _accel.prime_fill(limit).tolist() == want, limit


def plain_byte_sieve(limit: int) -> np.ndarray:
    """Primes <= limit from a byte sieve over every integer."""
    comp = np.zeros(limit + 1, np.bool_)
    comp[:2] = True
    for i in range(2, math.isqrt(limit) + 1):
        if not comp[i]:
            comp[i * i :: i] = True
    return np.flatnonzero(~comp)


def test_odd_only_prime_fill_matches_plain_byte_sieve():
    plain = plain_byte_sieve(4_096)
    for limit in range(4_097):
        got = _accel.prime_fill(limit)
        assert got.dtype == plain.dtype and np.array_equal(got, plain[plain <= limit]), limit
    for limit in (65_535, 65_536, 65_537, 10**6, 10**6 + 1, (1 << 22) + 1):
        got, want = _accel.prime_fill(limit), plain_byte_sieve(limit)
        assert got.dtype == want.dtype and np.array_equal(got, want), limit


def test_odd_only_spf_fill_matches_plain_strided_fill():
    # limits of both parities, on either side of a square
    for limit in (5, 6, 7, 8, 9, 10, 48, 49, 50, 51, 9_999, 10_000, 10_001, 65_536, 65_537):
        want = np.arange(limit + 1, dtype=np.int32)
        for p in plain_byte_sieve(math.isqrt(limit))[::-1].tolist():
            want[p * p :: p] = p
        got = _accel.spf_fill(limit)
        assert got.dtype == want.dtype and np.array_equal(got, want), limit


def test_odd_only_segment_mark_matches_trial_division():
    # lo of both parities, lo < 2 <= hi, hi below 4, and p*p inside the range
    plain = plain_byte_sieve(3_000)
    composite = np.ones(3_001, np.bool_)
    composite[plain] = False
    composite[:2] = False  # 0 and 1 are not composite
    base = plain_byte_sieve(60)
    rng = np.random.default_rng(28)
    cases = [(lo, hi) for lo in range(6) for hi in range(lo, 12)]
    cases += [(lo, lo + d) for lo in (24, 25, 48, 49, 120, 121, 2_000, 2_001)
              for d in (0, 1, 2, 97, 800)]
    cases += [(int(lo), int(lo + d)) for lo, d in zip(rng.integers(0, 2_000, 60),
                                                        rng.integers(0, 1_000, 60))]
    for lo, hi in cases:
        got = _accel.segment_mark(lo, hi, base)
        assert got.dtype == np.bool_ and np.array_equal(got, composite[lo + 1:hi + 1]), (lo, hi)


def test_spf_is_filled_once_on_first_read(monkeypatch):
    calls, fill = [], _accel.spf_fill

    def counted(limit):
        calls.append(limit)
        return fill(limit)

    monkeypatch.setattr(_accel, "spf_fill", counted)
    sieve = build_sieve(10_000)
    assert calls == []
    spf = sieve.spf
    assert np.array_equal(spf, fill(10_000)) and spf.dtype == np.int32
    assert sieve.spf is spf and calls == [10_000]


def test_primes_filled_once_on_first_read(monkeypatch):
    calls, fill = [], _accel.prime_fill

    def counted(limit):
        calls.append(limit)
        return fill(limit)

    monkeypatch.setattr(_accel, "prime_fill", counted)
    sieve = build_sieve(10_000)
    assert calls == [] and repr(sieve) == "PrimeSieve(limit=10000)"
    primes = sieve.primes
    assert np.array_equal(primes, fill(10_000))
    assert sieve.primes is primes and calls == [10_000]


def test_roundtrip_finds_a_corrupted_entry():
    spf = _accel.spf_fill(50_000)
    assert _accel.roundtrip_first_bad(spf, 50_000) == 0
    spf[1003] = 2  # 1003 = 17 * 59; the peel now divides 1003 by 2
    assert _accel.roundtrip_first_bad(spf, 1002) == 0
    assert _accel.roundtrip_first_bad(spf, 50_000) == 1003


def test_gpf_batch_within_limit_matches_scalar():
    sieve = build_sieve(10_000)
    values = np.arange(-2, 10_001, dtype=np.int64)
    got = _accel.gpf_batch(values, sieve.spf)
    assert got[:4].tolist() == [1, 1, 1, 1]
    for v, g in zip(values[3:].tolist(), got[3:].tolist()):
        assert g == greatest_prime_factor(v, sieve)


def test_gpf_batch_beyond_limit():
    sieve = build_sieve(1_000)
    reference = build_sieve(2_000)
    # all values stay within the certified range limit * (limit + 2)
    values = np.array([999_983, 1_001_000, 977 * 1_021, 64, 1_000, 1_001, 1],
                      dtype=np.int64)
    raw = _accel.gpf_batch(values, sieve.spf)
    assert raw.tolist()[:4] == [-1, -1, -1, 2]
    assert raw.tolist()[4:] == [5, -1, 1]
    public = greatest_prime_factor_batch(values, sieve)
    assert public.tolist() == [greatest_prime_factor(int(v), reference)
                               for v in values]


@pytest.mark.parametrize("limit", [1_000, 7_919])
def test_gpf_batch_matches_sympy_to_certified_range(limit):
    sympy = pytest.importorskip("sympy")
    sieve = build_sieve(limit)
    top = limit * (limit + 2)
    p, q = sieve.primes[-2:].tolist()
    edges = [(limit + 1) ** 2 - 1, top, p * q, q * q, 1, limit, limit + 1]
    rng = np.random.default_rng(limit)
    values = np.concatenate([np.array(edges, dtype=np.int64),
                             rng.integers(1, top + 1, size=3_000)])
    want = [max(sympy.factorint(int(v)), default=1) for v in values]
    assert greatest_prime_factor_batch(values, sieve).tolist() == want
    for v in values.tolist():
        assert factorize(v, sieve) == sorted(sympy.factorint(v).items())


@pytest.mark.parametrize("finish_rounds", [0, 10**9, None])
def test_wide_gpf_strip_and_finish_agree_with_sympy(monkeypatch, finish_rounds):
    """0 finishes every wide value alone, 10**9 strips them all as a batch,
    None keeps the switch between the two."""
    sympy = pytest.importorskip("sympy")
    from gpflab import sieve as sieve_mod

    if finish_rounds is not None:
        monkeypatch.setattr(sieve_mod, "_FINISH_ROUNDS", finish_rounds)
    limit = 100_003
    sieve = build_sieve(limit)
    p, q = sieve.primes[-2:].tolist()
    small = sieve.primes[:40].tolist()
    edges = [(limit + 1) ** 2 - 1, limit * (limit + 2), p * q, q * q, q * 2**16,
             3**4 * 7**2 * 11 * q, 65_537**2, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23,
             limit + 1, limit, 1]
    edges += [a * b * q for a, b in zip(small, small[1:])]
    rng = np.random.default_rng(7)
    values = np.concatenate([np.array(edges, dtype=np.int64),
                             rng.integers(limit + 1, limit * (limit + 2), size=300)])
    want = [max(sympy.factorint(int(v)), default=1) for v in values]
    assert greatest_prime_factor_batch(values, sieve).tolist() == want
    for v in values.tolist():
        assert factorize(v, sieve) == sorted(sympy.factorint(v).items())


def test_frontier_isqrt_matches_math_isqrt():
    from gpflab.smooth import _PSI_X_BUDGET

    # below the budget the float sqrt never rounds up to the next integer;
    # near 2^53, the top of the kernel's domain, sqrt(k*k - 1) rounds to k
    top = math.isqrt(2**53 - 2)
    k = np.concatenate([np.arange(1, math.isqrt(_PSI_X_BUDGET) + 2),
                        np.arange(top - 2_000, top + 1)]).astype(np.int64)
    m = np.concatenate([k * k - 1, k * k, k * k + 1])
    assert _accel._isqrt(m).tolist() == [math.isqrt(int(v)) for v in m]


def test_tau_table_matches_tau_ell():
    for limit in (0, 1, 2, 10, 4_000):
        for ell in range(6):
            tab = tau_table(limit, ell)
            assert tab.dtype == np.int64 and tab.size == limit + 1
            assert tab[0] == 0
            assert np.array_equal(tab, dirichlet_tau_table(limit, ell))


def test_tau_table_refuses_limits_out_of_range(monkeypatch):
    def no_fill(limit):
        raise AssertionError(f"spf table of {limit} allocated")

    monkeypatch.setattr(_accel, "spf_fill", no_fill)
    with pytest.raises(RangeBudgetError):
        tau_table(MAX_SIEVE_LIMIT + 1, 2)
    with pytest.raises(InvalidArgumentError):
        tau_table(-1, 2)


def test_tau_table_matches_dirichlet_steps():
    for ell in (0, 1, 2, 3, 7, 16):
        assert np.array_equal(tau_table(3_000, ell), dirichlet_tau_table(3_000, ell))
    across_blocks = 3 * _accel._BLOCK // 2
    assert np.array_equal(tau_table(across_blocks, 3), dirichlet_tau_table(across_blocks, 3))


def trial_factors(n: int) -> list[tuple[int, int]]:
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


# the edges of the strike: empty and tiny ranges, and a limit on either side
# of a square, where isqrt(limit) gains a prime or a power
STRIKE_LIMITS = (0, 1, 2, 3) + tuple(k * k + d for k in (2, 3, 5, 7, 11, 31)
                                     for d in (-1, 0, 1))


def test_strike_tau_table_matches_trial_division():
    facts = [[], []] + [trial_factors(n) for n in range(2, 31 * 31 + 2)]
    dirichlet = {ell: dirichlet_tau_table(31 * 31 + 1, ell) for ell in (0, 1, 2, 3)}
    primes = build_sieve(40).primes
    for limit in STRIKE_LIMITS:
        for z in (1, 2, math.isqrt(limit) + 1, limit + 1, limit + 5):
            for ell in (0, 1, 2, 3, 4, 5, 6, 16):
                got = _accel.tau_table(primes, 0, limit, ell, z)
                want = [0] + [math.prod(math.comb(e + ell - 1, ell - 1) if ell else 0
                                        for p, e in facts[n] if p >= z)
                              for n in range(1, limit + 1)]
                assert got.dtype == np.int64 and got.tolist() == want, (limit, z, ell)
                if z <= 2 and ell in dirichlet:
                    assert np.array_equal(got, dirichlet[ell][:limit + 1])


def test_strike_tau_table_across_two_word_edges():
    # rem is int32 below 2**31 and int64 from there; the exact-inverse
    # strikes wrap in uint32 or uint64, so both edges and 2**32 are checked
    sympy = pytest.importorskip("sympy")
    primes = build_sieve(65_600).primes
    for mid in (1 << 31, 1 << 32):
        for lo, hi in ((mid - 300, mid + 300), (mid - 200, mid - 1), (mid, mid + 200)):
            facts = [sympy.factorint(n) for n in range(lo, hi + 1)]
            assert np.array_equal(_accel.tau_table(primes, lo, hi, 2, 2),
                                  [sympy.divisor_count(n) for n in range(lo, hi + 1)])
            for ell, z in ((0, 2), (3, 2), (5, 7), (16, 1_000)):
                want = [math.prod(math.comb(e + ell - 1, ell - 1) if ell else 0
                                  for p, e in f.items() if p >= z) for f in facts]
                got = _accel.tau_table(primes, lo, hi, ell, z)
                assert got.dtype == np.int64 and got.tolist() == want, (lo, hi, ell, z)


def test_strike_tau_window_matches_full_table():
    primes = build_sieve(100).primes
    full = {ell: _accel.tau_table(primes, 0, 10_000, ell, 5) for ell in (0, 2, 16)}
    rng = np.random.default_rng(15)
    for lo in [1, 2, 3, 48, 49, 50, 9_999, 10_000] + rng.integers(1, 10_001, 40).tolist():
        for hi in {lo, min(lo + 1, 10_000), min(lo + 300, 10_000), 10_000}:
            for ell, tab in full.items():
                assert np.array_equal(_accel.tau_table(primes, lo, hi, ell, 5),
                                      tab[lo:hi + 1]), (lo, hi, ell)


def test_range_tables_never_peel(monkeypatch):
    """tau tables and check_A2 strike prime powers over their range;
    neither walks the spf table value by value."""
    def no_peel(*args):
        raise AssertionError("a range was peeled")

    monkeypatch.setattr(_accel, "_peel", no_peel)
    assert np.array_equal(tau_table(2_000, 3), dirichlet_tau_table(2_000, 3))
    # weights tau(n), one of them raised: only that n breaks |f| <= tau
    tau = dirichlet_tau_table(2_000, 2).astype(np.float64)
    tau[1_680] += 0.5
    rep = check_A2(WeightedSequence(1, 2_000, tau[1:]), 1)
    assert (rep.holds, rep.worst_case, rep.lhs, rep.rhs) == (False, 1_680, 40.5, 40)


def test_rough_and_glued_tables_match_loop_forms():
    limit = 3_000
    sieve = build_sieve(limit)
    for z in (1, 2, 3, 5, 7.5, 60, 3_001):
        rough = np.ones(limit + 1, dtype=bool)  # every prime below z struck
        rough[0] = False
        for p in sieve.primes[sieve.primes < z].tolist():
            rough[p::p] = False
        for j in (0, 1, 2, 3, 5, 16):
            want = dirichlet_tau_table(limit, j).astype(np.float64)
            want[~rough] = 0.0
            got = _accel.tau_table(sieve.primes, 0, limit, j, z, rough=True)
            assert np.array_equal(got, want)
            glued = _accel.tau_table(sieve.primes, 0, limit, j + 1, z)
            assert np.array_equal(glued, divisor_sum_table(want))


def test_product_mark_count_matches_brute_set():
    for n in (1, 2, 3, 7, 40, 300):
        want = len({a * b for a in range(1, n + 1) for b in range(1, n + 1)})
        assert _accel.product_mark_count(n) == want


def test_segmented_primes_matches_plain_sieve():
    sieve = build_sieve(1_000)
    plain = build_sieve(110_000).primes
    for lo, hi in ((100_000, 110_000), (500, 5_000), (0, 1_000), (996, 1_010)):
        want = plain[(plain > lo) & (plain <= hi)]
        got = segmented_primes(lo, hi, sieve)
        assert np.array_equal(got, want)
        assert got.size > 0


def test_segmented_primes_in_small_chunks(monkeypatch):
    monkeypatch.setattr("gpflab.sieve._SEGMENT_CHUNK", 97)
    sieve = build_sieve(1_000)
    plain = _accel.prime_fill(110_000)  # one byte sieve, no segment
    for lo, hi in ((100_000, 110_000), (500, 5_000), (996, 1_010), (1_000, 1_097),
                   (1_000, 1_098), (1_200, 1_200)):
        want = plain[(plain > lo) & (plain <= hi)]
        assert np.array_equal(segmented_primes(lo, hi, sieve), want), (lo, hi)


def test_compensated_cumsum_matches_fsum(sieve_m):
    # every prefix is the correctly rounded one; a cumsum in 80-bit long
    # double misrounds at 401 of these 78,498 entries, 3980 the first and
    # 78349 the last
    logs = np.log(sieve_m.primes.astype(np.float64))
    got = _accel.compensated_cumsum(logs)
    for idx in (0, 1, 100, 3_980, 4_106, 5_000, 16_383, 16_384, 75_551, 78_349,
                logs.size - 1):
        assert got[idx] == math.fsum(logs[: idx + 1].tolist()), idx


def test_exact_sum_matches_fsum():
    # signs, zeros, subnormals and 16 decades, split at random between two
    # calls carried through (total, base)
    rng = np.random.default_rng(7)
    for case in range(200):
        n = int(rng.integers(0, 40_000))
        v = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
        v[rng.random(n) < 0.1] = 0.0
        if case % 2:
            v[rng.random(n) < 0.5] *= -1
        if case % 5 == 0:
            v[: n // 100] = 5e-324 * rng.integers(1, 1 << 20, n // 100)
        cut = int(rng.integers(0, n + 1))
        total, base = _accel.exact_sum(v[:cut])
        assert _accel.round_exact(*_accel.exact_sum(v[cut:], total, base)) == math.fsum(v.tolist())
    assert _accel.round_exact(*_accel.exact_sum(np.array([1e308, 1e308, -1e308]))) == 1e308
    with pytest.raises(OverflowError):
        _accel.exact_sum(np.array([1.0, np.inf]))
