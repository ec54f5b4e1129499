"""Parity between the numba kernels and the pure-numpy fallbacks.

Integer kernels must agree exactly; the one float kernel with differing
summation strategies (compensated cumulative sum) gets a tight tolerance.
Each test flips the backend inside try/finally so a failure cannot leak a
forced backend into the rest of the suite.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gpflab import _accel, shifted, smooth
from gpflab.errors import InvalidArgumentError
from gpflab.sieve import (build_sieve, greatest_prime_factor_batch,
                          segmented_primes, tau_table, theta_count)

requires_numba = pytest.mark.skipif(not _accel.HAS_NUMBA,
                                    reason="numba not importable")


def run_both(fn):
    """Evaluate fn() under the numba backend and again under numpy."""
    saved = _accel.backend()
    try:
        _accel.set_backend("numba")
        first = fn()
        _accel.set_backend("numpy")
        second = fn()
    finally:
        _accel.set_backend(saved)
    return first, second


def test_backend_reports_valid_name():
    assert _accel.backend() in ("numba", "numpy")


def test_set_backend_rejects_unknown():
    with pytest.raises(InvalidArgumentError):
        _accel.set_backend("cuda")


def test_set_backend_round_trip():
    saved = _accel.backend()
    try:
        _accel.set_backend("numpy")
        assert _accel.backend() == "numpy"
    finally:
        _accel.set_backend(saved)
    assert _accel.backend() == saved


@requires_numba
def test_spf_fill_identical():
    a, b = run_both(lambda: _accel.spf_fill(100_000))
    assert np.array_equal(a, b)


@requires_numba
def test_roundtrip_identical():
    spf = _accel.spf_fill(50_000)
    a, b = run_both(lambda: _accel.roundtrip_first_bad(spf, 50_000))
    assert a == b == 0


@requires_numba
def test_gpf_batch_within_limit_identical():
    sieve = build_sieve(10_000)
    values = np.arange(1, 10_001, dtype=np.int64)
    a, b = run_both(lambda: _accel.gpf_batch(values, sieve.spf, sieve.primes,
                                             sieve.limit))
    assert np.array_equal(a, b)


@requires_numba
def test_gpf_batch_beyond_limit_contract():
    # numba resolves values past the sieve limit in-kernel, numpy defers
    # them with -1; the public batch wrapper must agree across backends.
    sieve = build_sieve(1_000)
    # all values stay within the certified range limit * (limit + 2)
    values = np.array([999_983, 1_001_000, 977 * 1_021, 64], dtype=np.int64)
    raw_nb, raw_np = run_both(
        lambda: _accel.gpf_batch(values, sieve.spf, sieve.primes, sieve.limit))
    assert np.all(raw_np[values > sieve.limit] == -1)
    assert np.array_equal(raw_nb[values <= sieve.limit],
                          raw_np[values <= sieve.limit])

    pub_nb, pub_np = run_both(
        lambda: greatest_prime_factor_batch(values, sieve))
    assert np.array_equal(pub_nb, pub_np)
    reference = build_sieve(2_000)
    for v, g in zip(values, pub_nb):
        from gpflab.sieve import greatest_prime_factor
        assert g == greatest_prime_factor(int(v), reference)


@requires_numba
def test_theta_count_identical():
    sieve = build_sieve(5_000)
    cases = [(5_000, 7, 10), (5_000, 2, 2), (3_000, 50, 1), (1, 2, 2)]
    for x, u, v in cases:
        a, b = run_both(lambda: theta_count(x, u, v, sieve))
        assert a == b


@requires_numba
def test_segmented_primes_identical():
    sieve = build_sieve(1_000)
    a, b = run_both(lambda: segmented_primes(100_000, 110_000, sieve))
    assert np.array_equal(a, b)
    assert a.size > 0


@requires_numba
def test_product_mark_identical():
    a, b = run_both(lambda: _accel.product_mark_count(700))
    assert a == b == shifted.lv_count(700)


@requires_numba
def test_tau_table_identical():
    for ell in (1, 2, 3, 4):
        a, b = run_both(lambda: tau_table(4_000, ell))
        assert np.array_equal(a, b)


@requires_numba
def test_psi_count_identical():
    def work():
        sieve = build_sieve(1_000)
        return [smooth.psi_count(x, y, sieve)
                for x in (10**4, 10**6) for y in (2, 10, 97)]

    a, b = run_both(work)
    assert a == b


@requires_numba
def test_gamma_plus_identical():
    def work():
        sieve = build_sieve(40_001)
        res = shifted.gamma_plus(shifted.IndexSet.dense(200),
                                 shifted.IndexSet.dense(200), sieve)
        return res.gamma_plus, res.witness, res.c_count

    a, b = run_both(work)
    assert a == b


@requires_numba
def test_compensated_cumsum_close():
    sieve = build_sieve(100_000)
    logs = sieve.log_primes()
    a, b = run_both(lambda: _accel.compensated_cumsum(logs))
    # Kahan (numba) and longdouble (numpy) may differ in the last ulp
    assert np.allclose(a, b, rtol=1e-14, atol=0.0)
    for idx in (0, 100, logs.size - 1):
        exact = math.fsum(logs[: idx + 1].tolist())
        assert a[idx] == pytest.approx(exact, rel=1e-13)
        assert b[idx] == pytest.approx(exact, rel=1e-13)


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, GPFLAB_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c",
         "from gpflab import _accel; print(_accel.backend())"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "numpy"


def test_bench_smoke():
    env = dict(os.environ, GPFLAB_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-m", "gpflab.bench", "--limit", "20000",
         "--repeat", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0
    assert "kernel timings" in out.stdout
    for name in ("spf_fill", "gpf_batch", "product_mark", "tau_table",
                 "theta_scan"):
        assert name in out.stdout
