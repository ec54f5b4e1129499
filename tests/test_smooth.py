"""Smooth counting and the Dickman table against enumeration and analysis."""

from math import floor, gamma, isqrt, log
import re

import numpy as np
import pytest

from gpflab import _accel, cli, sieve, smooth
from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.smooth import (
    build_dickman_table,
    default_dickman_table,
    dickman_rho,
    psi_approx_report,
    psi_count,
)
from gpflab.sieve import build_sieve


def naive_gpf(n: int) -> int:
    best = 1
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            best = p
        p += 1
    return n if n > 1 else best


def test_psi_count_known_values(sieve_m):
    assert psi_count(10, 2, sieve_m) == 4  # 1, 2, 4, 8
    assert psi_count(100, 100, sieve_m) == 100
    assert psi_count(100, 5, sieve_m) == 34


def test_psi_count_recorded_frontier_values(sieve_m):
    # recorded from a scalar DFS that visits one node at a time
    assert psi_count(3e8, 1000, sieve_m) == 25097381
    assert psi_count(1e9, 1000, sieve_m) == 59244184
    # y > isqrt(x): recorded from x minus the sum of x // p over the primes
    # p in (y, x], sieved segment by segment, an independent formula
    assert psi_count(1e9, 4e4, sieve_m) == 351423452
    assert psi_count(1e9, 2e5, sieve_m) == 492537177
    assert psi_count(3e8, 31623, sieve_m) == 117054257
    assert psi_count(1e9, 31623, sieve_m) == 328899981


def test_psi_count_sieves_no_segment_above_y(monkeypatch):
    def no_segment(*args):
        raise AssertionError("psi_count sieved a segment above y")

    monkeypatch.setattr(_accel, "segment_mark", no_segment)
    assert psi_count(1e9, 4e4, build_sieve(40000)) == 351423452


def test_psi_count_segments_primes_above_the_sieve(monkeypatch):
    # for y >= sqrt(x) an n <= x is y-smooth unless one prime p in (y, x]
    # divides it, and at most one can: Psi(x, y) = x - sum of x // p over
    # them, read here from one byte sieve up to x, which uses no segment.  A
    # sieve up to isqrt(x) + 1 leaves the primes in (isqrt(x), y] to the
    # segments, a few hundred integers at a time
    monkeypatch.setattr(sieve, "_SEGMENT_CHUNK", 997)
    plain = _accel.prime_fill(100_003)
    for x in (10_000, 65_535, 65_536, 100_003):
        root = build_sieve(isqrt(x) + 1)
        for y in sorted({isqrt(x) + 1, isqrt(x) + 2, 2_000, 2_003, 4_999, x // 2, x - 1}):
            want = x - sum(x // p for p in plain[(plain > y) & (plain <= x)].tolist())
            assert psi_count(x, y, root) == want, (x, y)
            assert psi_count(x, y, build_sieve(y)) == want, (x, y)
    with pytest.raises(RangeBudgetError):
        psi_count(10_000, 5_000, build_sieve(100))


def test_psi_count_recorded_segmented_value():
    # Psi(1e9, 5e7) = 1e9 - sum of 1e9 // p over the primes in (5e7, 1e9];
    # the sieve stops at isqrt(1e9) + 1
    assert psi_count(1e9, 5e7, build_sieve(31_624)) == 864_067_894


def test_psi_count_y_at_least_x(sieve_m):
    for x in (2, 2.5, 17.9, 1000, 12345.6):
        assert psi_count(x, x, sieve_m) == floor(x)
    assert psi_count(7, 100, sieve_m) == 7


def test_psi_count_monotone(sieve_m):
    xs = [10, 50, 100, 500, 1000, 5000]
    ys = [2, 3, 7, 20, 97]
    grid = {(x, y): psi_count(x, y, sieve_m) for x in xs for y in ys}
    for y in ys:
        for lo, hi in zip(xs, xs[1:]):
            assert grid[(lo, y)] <= grid[(hi, y)]
    for x in xs:
        for lo, hi in zip(ys, ys[1:]):
            assert grid[(x, lo)] <= grid[(x, hi)]


def test_psi_count_matches_filter_smoke(sieve_m):
    gpfs = [0, 1] + [naive_gpf(n) for n in range(2, 2001)]
    for y in (2, 3, 5, 10, 100):
        want = sum(1 for n in range(1, 2001) if gpfs[n] <= y)
        assert psi_count(2000, y, sieve_m) == want


def test_psi_count_branches_agree(sieve_m):
    # the DFS runs on the primes <= min(y, isqrt(x)) and x // p is summed over
    # the primes p in (isqrt(x), y]: x around 10^4 puts y near 100 on either
    # side of isqrt(x), and a sieve that stops at y leaves x above its limit
    gpfs = [0, 1] + [naive_gpf(n) for n in range(2, 10_002)]
    for x in (9999, 10_000, 10_001):
        for y in (97, 99, 100, 101, 103, 200):
            want = sum(1 for n in range(1, x + 1) if gpfs[n] <= y)
            assert psi_count(x, y, sieve_m) == want
            assert psi_count(x, y, build_sieve(y)) == want


def test_psi_count_rejects_bad_input(sieve_m):
    with pytest.raises(InvalidArgumentError):
        psi_count(0, 10, sieve_m)
    with pytest.raises(InvalidArgumentError):
        psi_count(100, 1, sieve_m)
    with pytest.raises(RangeBudgetError):
        psi_count(10**10, 10**6, sieve_m)


def test_rho_on_unit_interval():
    assert dickman_rho(0.0) == 1.0
    assert dickman_rho(0.5) == 1.0
    assert dickman_rho(1.0) == 1.0


def test_rho_analytic_on_1_2():
    # rho(u) = 1 - log u there
    for i in range(101):
        u = 1.0 + i / 100.0
        assert abs(dickman_rho(u) - (1.0 - log(u))) <= 1e-6


def test_rho_known_points():
    assert abs(dickman_rho(2.0) - (1.0 - log(2.0))) < 1e-9
    # rho(3) = 1 - ln3 + (ln^2 3 - ln^2 2)/2 + Li2(1/3) - Li2(1/2), evaluated
    # to 60 digits; the others are from the 80-digit series run
    assert abs(dickman_rho(3.0) / 0.048608388291131566 - 1.0) < 1e-12
    assert abs(dickman_rho(4.0) / 0.004910925647760832 - 1.0) < 1e-12
    assert abs(dickman_rho(10.0) / 2.770171837725959e-11 - 1.0) < 1e-12
    assert abs(dickman_rho(20.0) / 2.461782828764918e-29 - 1.0) < 1e-12


def test_rho_table_shape():
    vals = default_dickman_table()
    assert vals[0] == 1.0
    n_unit = 256
    assert all(v == 1.0 for v in vals[: n_unit + 1])
    for i in range(n_unit, len(vals) - 1):
        assert vals[i + 1] <= vals[i]
        assert vals[i + 1] > 0.0
    for i, v in enumerate(vals.tolist()):
        u = i / n_unit
        assert v <= (1.0 / gamma(u + 1.0)) * (1.0 + 1e-9)


def test_shipped_table_is_the_series_build():
    shipped = default_dickman_table()
    built = build_dickman_table()
    assert (shipped.dtype, built.dtype) == (np.float64, np.float64)
    assert shipped.tobytes() == built.tobytes()


def test_default_table_is_read_not_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("default table rebuilt from the series")

    monkeypatch.setattr(smooth, "build_dickman_table", no_build)
    monkeypatch.setattr(smooth, "_TABLE", None)
    assert default_dickman_table().size == 20 * 256 + 1
    assert f"{dickman_rho(2.5):.15g}" == "0.130319561832251"


def test_default_table_is_read_only():
    with pytest.raises(ValueError):
        default_dickman_table()[300] = 0.5


def test_truncated_table_file_raises(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "dickman_rho.f64"
    bad.write_bytes(smooth._TABLE_PATH.read_bytes()[:-8])
    monkeypatch.setattr(smooth, "_TABLE_PATH", bad)
    monkeypatch.setattr(smooth, "_TABLE", None)
    with pytest.raises(OSError, match=re.escape(str(bad))):
        default_dickman_table()
    for u in ("2.5", "0.5"):  # u <= 1 reads the table too
        assert cli.main(["rho", "--u-list", u]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}") and err.count("\n") == 1


def test_rho_out_of_range():
    with pytest.raises(InvalidArgumentError):
        dickman_rho(-0.1)
    with pytest.raises(InvalidArgumentError):
        dickman_rho(20.5)


def test_psi_approx_report_fields(sieve_m):
    rep = psi_approx_report(100, 100, sieve_m)
    assert rep.exact == 100
    assert rep.u == 1.0
    assert abs(rep.approx - 100.0) < 1e-12
    assert abs(rep.residual) < 1e-12

    rep = psi_approx_report(10_000, 10, sieve_m)
    assert rep.exact == psi_count(10_000, 10, sieve_m)
    assert abs(rep.approx - 10_000 * dickman_rho(4.0)) < 1e-9
    want = (rep.exact - rep.approx) * log(10) / 10_000
    assert abs(rep.residual - want) < 1e-12


def test_psi_approx_report_rejects_deep_u(sieve_m):
    with pytest.raises(InvalidArgumentError):
        psi_approx_report(2**25, 2, sieve_m)
