"""The numpy kernels of ``gpflab._accel`` against independent oracles.

The loop forms of the divisor-function tables (Dirichlet steps over d, and
the sum over divisors that glues a free variable) stay here as reference
implementations for the tables the spf peel builds.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from gpflab import _accel, sequences
from gpflab.sieve import (build_sieve, greatest_prime_factor,
                          greatest_prime_factor_batch, rough_table,
                          segmented_primes, tau_ell, tau_table)


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
    code = ("import gpflab, gpflab.cli\n"
            "print(gpflab.backend(), gpflab.cli.main(['gpf', '--n', '91']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["n,gpf", "91,13", "numpy 0"]


def test_spf_fill_matches_trial_division():
    for limit in (0, 1, 2, 3, 4, 5000):
        spf = _accel.spf_fill(limit)
        assert spf.size == limit + 1
        want = [0, 1][: limit + 1] + [next(p for p in range(2, n + 1) if n % p == 0)
                                      for n in range(2, limit + 1)]
        assert spf.tolist() == want


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
    sieve = build_sieve(4_000)
    for limit in (0, 1, 2, 10, 4_000):
        for ell in range(6):
            tab = tau_table(limit, ell)
            assert tab.dtype == np.int64 and tab.size == limit + 1
            assert tab[0] == 0
            assert tab[1:].tolist() == [tau_ell(n, ell, sieve)
                                        for n in range(1, limit + 1)]


def test_tau_table_matches_dirichlet_steps():
    for ell in (0, 1, 2, 3, 7, 16):
        assert np.array_equal(tau_table(3_000, ell), dirichlet_tau_table(3_000, ell))
    across_blocks = 3 * _accel._BLOCK // 2
    assert np.array_equal(tau_table(across_blocks, 3), dirichlet_tau_table(across_blocks, 3))


def test_theta_count_across_blocks():
    x = 3 * _accel._BLOCK // 2
    spf = _accel.spf_fill(x)
    for u in (2, 7, 300):
        smooth = np.ones(x + 1, np.int64)
        for p in build_sieve(max(u, 2)).primes.tolist():
            pk = p
            while pk <= x:
                smooth[pk::pk] *= p
                pk *= p
        for v in (1, 2, 64, 5_000):
            want = int(np.count_nonzero(smooth[1:] >= v))
            assert _accel.theta_count_scan(x, u, v, spf) == want


def test_rough_and_glued_tables_match_loop_forms():
    limit = 3_000
    sieve = build_sieve(limit)
    for z in (1, 2, 3, 5, 7.5, 60, 3_001):
        rough = rough_table(limit, z, sieve)
        for j in (0, 1, 2, 3, 5, 16):
            want = dirichlet_tau_table(limit, j).astype(np.float64)
            want[~rough] = 0.0
            got = sequences._weight_table(limit, j, z, sieve)
            assert np.array_equal(got, want)
            glued = sequences._weight_table(limit, j, z, sieve, glued=True)
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


def test_compensated_cumsum_matches_fsum():
    logs = build_sieve(100_000).log_primes()
    got = _accel.compensated_cumsum(logs)
    for idx in (0, 1, 100, 5_000, logs.size - 1):
        exact = math.fsum(logs[: idx + 1].tolist())
        assert got[idx] == pytest.approx(exact, rel=1e-13)
