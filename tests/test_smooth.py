"""Smooth counting and the Dickman table against enumeration and analysis."""

from math import floor, gamma, log

import pytest

from gpflab.errors import InvalidArgumentError, RangeBudgetError
from gpflab.smooth import (
    build_dickman_table,
    default_dickman_table,
    dickman_rho,
    psi_approx_report,
    psi_count,
)


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
    # x = 10^4 straddles the y^2 > x cutoff at y = 100
    gpfs = [0, 1] + [naive_gpf(n) for n in range(2, 10_001)]
    for y in (97, 100, 101, 103):
        want = sum(1 for n in range(1, 10_001) if gpfs[n] <= y)
        assert psi_count(10_000, y, sieve_m) == want


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
    t = default_dickman_table()
    vals = t.values
    assert vals[0] == 1.0
    n_unit = round(1.0 / t.step)
    assert all(v == 1.0 for v in vals[: n_unit + 1])
    for i in range(n_unit, len(vals) - 1):
        assert vals[i + 1] <= vals[i]
        assert vals[i + 1] > 0.0
    for i, v in enumerate(vals.tolist()):
        u = i * t.step
        assert v <= (1.0 / gamma(u + 1.0)) * (1.0 + 1e-9)


def test_rho_out_of_range():
    with pytest.raises(InvalidArgumentError):
        dickman_rho(-0.1)
    with pytest.raises(InvalidArgumentError):
        dickman_rho(20.5)


def test_custom_table_step():
    t = build_dickman_table(step=1.0 / 128, u_max=6.0)
    assert abs(dickman_rho(2.0, t) - (1.0 - log(2.0))) < 1e-7
    with pytest.raises(InvalidArgumentError):
        dickman_rho(7.0, t)


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
