"""Smooth-number counts and the Dickman density.

The Dickman function decays 29 orders of magnitude by u = 20, which rules
out every fixed-order march in double precision: quadrature truncation
injected near u = 1..3, where the function is O(1), rides a quasi-neutral
mode of the discretized delay recurrence and shows up as an absolute
~1e-16 floor under the true tail (rho(20) ~ 2.5e-29).  The table is built
instead from the piecewise power series of rho on each unit interval
[m, m+1], expanded about the midpoint: the delay equation
u*rho'(u) = -rho(u-1) turns the coefficient list of one interval into the
next by an exact recursion, with the series of 1 - log u seeding [1, 2].
Each interval crossing cancels about two decimal digits (the function
shrinks by up to ~70 per interval), so the recursion and the grid
evaluation run in 50-digit decimal arithmetic and the result is rounded
to float64 once, positive and strictly decreasing by construction.
Interpolation between table grid points is cubic with the stencil
confined to a single unit interval, because stencils spanning an integer
breakpoint would see the derivative kink at u = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
import decimal
from math import floor, isqrt, log
from pathlib import Path

import numpy as np

from . import _accel
from .errors import InvalidArgumentError, RangeBudgetError
from .sieve import PrimeSieve, _prime_spans

_PSI_X_BUDGET = 1_000_000_000

# the one grid, k/_INV_STEP for 0 <= k <= _U_MAX*_INV_STEP; the shipped table is
# build_dickman_table() written as raw little-endian float64:
#   build_dickman_table().astype("<f8").tofile("src/gpflab/dickman_rho.f64")
_INV_STEP = 256
_U_MAX = 20
_TABLE_PATH = Path(__file__).with_name("dickman_rho.f64")


_SERIES_TERMS = 96  # truncation compounds across intervals; 96 terms is converged at u=20


def _advance_series(b: list, m: int) -> list:
    """Series of rho about m + 1/2 from the series about m - 1/2.

    With rho(c + t) = sum a_j t^j on [m, m+1], c = m + 1/2, the delay
    equation (c + t) * rho'(c + t) = -rho(c - 1 + t) gives
    a_{j+1} = -(b_j + j*a_j) / (c*(j+1)) for j >= 0, and the constant
    term follows from continuity at u = m."""
    c = decimal.Decimal(2 * m + 1) / 2
    a = [decimal.Decimal(0)] * len(b)
    for j in range(len(b) - 1):
        a[j + 1] = -(b[j] + j * a[j]) / (c * (j + 1))
    half = decimal.Decimal(1) / 2
    at_left = _eval_series(a, -half)  # contribution of a_1.. at u = m
    a[0] = _eval_series(b, half) - at_left
    return a


def _eval_series(coeffs: list, t: "decimal.Decimal") -> "decimal.Decimal":
    out = decimal.Decimal(0)
    for cj in reversed(coeffs):
        out = out * t + cj
    return out


def build_dickman_table() -> np.ndarray:
    """Tabulate rho on the grid from its piecewise power series."""
    inv, top = _INV_STEP, _U_MAX
    rho = np.empty(top * inv + 1, dtype=np.float64)
    rho[: inv + 1] = 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        one = decimal.Decimal(1)
        # seed series on [1, 2]: 1 - log(3/2 + t) about c = 3/2
        t23 = decimal.Decimal(2) / 3
        coeffs = [one - (3 * one / 2).ln()]
        pw = one
        for j in range(1, _SERIES_TERMS + 1):
            pw *= -t23
            coeffs.append(pw / j)
        for i in range(inv + 1, 2 * inv + 1):
            rho[i] = float(one - (decimal.Decimal(i) / inv).ln())
        for m in range(2, top):
            coeffs = _advance_series(coeffs, m)
            for i in range(1, inv + 1):
                t = decimal.Decimal(2 * i - inv) / (2 * inv)
                rho[m * inv + i] = float(_eval_series(coeffs, t))
    return rho


_TABLE: np.ndarray | None = None


def default_dickman_table() -> np.ndarray:
    """The process-wide table, read once from the shipped file.

    It is read-only, so no caller can change what later dickman_rho calls
    see."""
    global _TABLE
    if _TABLE is None:
        values = np.fromfile(_TABLE_PATH, dtype="<f8")
        size = _U_MAX * _INV_STEP + 1
        if values.size != size:
            raise OSError(f"{_TABLE_PATH}: {values.size} float64 values, expected {size}")
        values.flags.writeable = False
        _TABLE = values
    return _TABLE


def dickman_rho(u: float) -> float:
    """Dickman rho(u); exactly 1.0 on [0, 1], interpolated from the table above."""
    vals = default_dickman_table()
    u = float(u)
    if u < 0 or u > _U_MAX:
        raise InvalidArgumentError(f"u={u} outside [0, {float(_U_MAX)}]")
    if u <= 1.0:
        return 1.0
    inv = _INV_STEP
    pos = u * inv
    k = int(floor(pos))
    if pos == k:  # a grid point, u = _U_MAX included
        return float(vals[k])
    # cubic stencil clamped inside the unit interval [m, m+1] containing u
    m = int(floor(u))
    lo = m * inv
    j0 = min(max(k - 1, lo), lo + inv - 3)
    xj = (np.arange(j0, j0 + 4, dtype=np.float64)) / inv
    yj = vals[j0 : j0 + 4]
    out = 0.0
    for i in range(4):
        term = yj[i]
        for t in range(4):
            if t != i:
                term *= (u - xj[t]) / (xj[i] - xj[t])
        out += term
    return float(out)


def psi_count(x, y, sieve: PrimeSieve) -> int:
    """Exact count of y-smooth integers n <= x (all prime factors <= y)."""
    if x < 1:
        raise InvalidArgumentError("psi_count needs x >= 1")
    if y < 2:
        raise InvalidArgumentError("psi_count needs y >= 2")
    xi = int(floor(x))
    yi = int(floor(y))
    if xi > _PSI_X_BUDGET:
        raise RangeBudgetError(f"psi_count budget is x <= {_PSI_X_BUDGET}")
    if yi >= xi:
        return xi
    r = min(yi, isqrt(xi))
    if min(yi, r + 1) > sieve.limit:
        raise RangeBudgetError("psi_count needs min(y, isqrt(x) + 1) <= sieve.limit when y < x")
    # an n <= x with a prime factor p > isqrt(x) is p*k for exactly one such p
    # and any k <= x // p; the DFS counts the rest, on the primes <= isqrt(x).
    # The primes in (isqrt(x), y] above the sieve come a bounded span at a time
    lo = sieve.pi(r)
    total = (_accel.smooth_dfs_count(xi, r, sieve.primes[:lo], sieve.pi(np.arange(r + 1)))
             + int(np.sum(xi // sieve.primes[lo:sieve.pi(yi)])))
    return total + sum(int(np.sum(xi // ps))
                       for ps in _prime_spans(sieve.limit, yi, sieve.primes))


@dataclass(frozen=True)
class PsiApproxReport:
    x: float
    y: float
    u: float
    exact: int
    approx: float
    residual: float


def psi_approx_report(x, y, sieve: PrimeSieve) -> PsiApproxReport:
    """Exact smooth count next to its Dickman approximation x*rho(log x/log y).

    The residual is (exact - approx) * log y / x, the natural normalization
    of the known second-order term.
    """
    if x < 1 or y <= 1:
        raise InvalidArgumentError("psi_approx_report needs x >= 1 and y > 1")
    u = log(x) / log(y)
    if u > _U_MAX:
        raise InvalidArgumentError(f"log x/log y = {u:.3f} beyond table u_max")
    exact = psi_count(x, y, sieve)
    approx = float(x) * dickman_rho(u)
    residual = (exact - approx) * log(y) / float(x)
    return PsiApproxReport(float(x), float(y), u, exact, approx, residual)
