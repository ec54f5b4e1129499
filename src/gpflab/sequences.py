"""Weighted sequences on integer intervals: norms, Dirichlet convolution,
progression discrepancies, structural condition checks, a combinatorial
expansion of the von Mangoldt function, and a family of exactly evaluated
multi-variable divisor sums with their reference upper-bound shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, floor, fsum, gcd, isqrt, log

import numpy as np

from . import _accel
from .ap import default_rough_z
from .errors import InvalidArgumentError, RangeBudgetError
from .sieve import (PrimeSieve, _tau_order, build_sieve, euler_phi, factorize,
                    rough_indicator, rough_table, tau_ell)

_SPAN_BUDGET = 100_000_000  # widest window of a dense sequence
_SINGLE_SUM_BUDGET = 10_000_000
_MULTI_SUM_BUDGET = 1_000_000


def _width(lo: int, hi: int) -> int:
    """The width of the window [lo, hi], checked before a table that wide is made."""
    if lo < 1 or hi < lo:
        raise InvalidArgumentError("WeightedSequence needs 1 <= lo <= hi")
    if hi - lo + 1 > _SPAN_BUDGET:
        raise RangeBudgetError(f"window [{lo}, {hi}] exceeds budget {_SPAN_BUDGET}")
    return hi - lo + 1


class WeightedSequence:
    """Real weights attached to the integers of a window [lo, hi]."""

    __slots__ = ("lo", "hi", "values")

    def __init__(self, lo: int, hi: int, values):
        lo = int(lo)
        hi = int(hi)
        _width(lo, hi)
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != (hi - lo + 1,):
            raise InvalidArgumentError("values length must equal hi - lo + 1")
        self.lo = lo
        self.hi = hi
        self.values = vals.copy()

    @classmethod
    def indicator(cls, lo: int, hi: int) -> "WeightedSequence":
        return cls(lo, hi, np.ones(_width(lo, hi)))

    @classmethod
    def from_pairs(cls, pairs) -> "WeightedSequence":
        pairs = [(int(n), float(v)) for n, v in pairs]
        if not pairs:
            raise InvalidArgumentError("from_pairs needs at least one pair")
        seen = set()
        for n, _ in pairs:
            if n in seen:
                raise InvalidArgumentError(f"duplicate index {n}")
            seen.add(n)
        lo = min(n for n, _ in pairs)
        hi = max(n for n, _ in pairs)
        out = cls(lo, hi, np.zeros(_width(lo, hi)))
        for n, v in pairs:
            out.values[n - lo] = v
        return out

    @classmethod
    def from_file(cls, path) -> "WeightedSequence":
        """Parse a sequence file: "n value" per line, '#' comments."""
        pairs = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: expected 'n value', got {line!r}")
                try:
                    pairs.append((int(parts[0]), float(parts[1])))
                except ValueError as exc:
                    raise InvalidArgumentError(f"{path}:{lineno}: bad pair {line!r}") from exc
        if not pairs:
            raise InvalidArgumentError(f"{path}: empty sequence file")
        return cls.from_pairs(pairs)

    def value(self, n: int) -> float:
        if self.lo <= n <= self.hi:
            return float(self.values[n - self.lo])
        return 0.0

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.values) + self.lo

    def __repr__(self):
        return f"WeightedSequence(lo={self.lo}, hi={self.hi}, support={self.support().size})"


def norm(f: WeightedSequence) -> float:
    """Euclidean norm of the weight vector."""
    return fsum(v * v for v in f.values.tolist()) ** 0.5


def convolve(f: WeightedSequence, g: WeightedSequence) -> WeightedSequence:
    """Dirichlet convolution: (f*g)(n) = sum over d*e = n of f(d) g(e)."""
    lo = f.lo * g.lo
    hi = f.hi * g.hi
    out = np.zeros(_width(lo, hi))
    g_idx = np.flatnonzero(g.values)
    g_ns = g_idx + g.lo
    g_vs = g.values[g_idx]
    for off in np.flatnonzero(f.values).tolist():
        d = f.lo + off
        out[d * g_ns - lo] += f.values[off] * g_vs
    return WeightedSequence(lo, hi, out)


def convolve3(f: WeightedSequence, g: WeightedSequence, h: WeightedSequence) -> WeightedSequence:
    """Triple Dirichlet convolution."""
    return convolve(convolve(f, g), h)


def _root_sieve(n_max: int) -> PrimeSieve:
    """A sieve that factors every integer up to n_max (see sieve.factorize)."""
    return build_sieve(max(2, isqrt(n_max) + 1))


def delta(f: WeightedSequence, q: int, a: int) -> float:
    """Progression discrepancy of the weights:
    sum over n = a (mod q) of f(n) minus the coprime average."""
    if q < 1:
        raise InvalidArgumentError("delta needs q >= 1")
    ns = np.arange(f.lo, f.hi + 1, dtype=np.int64)
    main = fsum(f.values[ns % q == a % q].tolist())
    cop = fsum(f.values[np.gcd(ns, q) == 1].tolist())
    return main - cop / euler_phi(q, _root_sieve(q))


def a1_lhs(f: WeightedSequence, d: int, k: int, ell: int) -> float:
    """Absolute discrepancy of f restricted to gcd(n, d) == 1:

        | sum_{n = ell (k), (n,d)=1} f(n) - (1/phi(k)) sum_{(n,dk)=1} f(n) |.
    """
    if d < 1 or k < 1:
        raise InvalidArgumentError("a1_lhs needs d, k >= 1")
    if gcd(ell, k) != 1:
        raise InvalidArgumentError("a1_lhs needs gcd(ell, k) == 1")
    ns = np.arange(f.lo, f.hi + 1, dtype=np.int64)
    cop_d = np.gcd(ns, d) == 1
    main = fsum(f.values[cop_d & (ns % k == ell % k)].tolist())
    ref = fsum(f.values[np.gcd(ns, d * k) == 1].tolist())
    return abs(main - ref / euler_phi(k, _root_sieve(k)))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a structural check on a weighted sequence."""

    condition: str
    parameters: dict
    holds: bool | None
    worst_case: int | None
    lhs: float | None
    rhs: float | None


def check_A2(f: WeightedSequence, bound: float) -> ConditionReport:
    """Divisor-bounded weights: |f(n)| <= bound * tau(n)^bound on the support."""
    if bound <= 0:
        raise InvalidArgumentError("check_A2 needs a positive bound")
    worst = None
    worst_ratio = -1.0
    sieve = _root_sieve(f.hi)
    for n in f.support().tolist():
        cap = bound * tau_ell(n, 2, sieve) ** bound
        ratio = abs(f.value(n)) / cap
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst = n
    if worst is None:
        return ConditionReport("A2", {"B": bound}, True, None, None, None)
    return ConditionReport("A2", {"B": bound}, worst_ratio <= 1.0, worst,
                           abs(f.value(worst)),
                           bound * tau_ell(worst, 2, sieve) ** bound)


def check_A3(f: WeightedSequence, x) -> ConditionReport:
    """Support roughness: every supported n has all prime factors strictly
    above exp(log x / (log log x)^2)."""
    z0 = default_rough_z(x)
    worst = None
    worst_spf = None
    sieve = _root_sieve(f.hi)
    for n in f.support().tolist():
        if n == 1:
            continue  # no prime factors: vacuously rough
        s = factorize(n, sieve).factors[0][0]
        if worst_spf is None or s < worst_spf:
            worst_spf = s
            worst = n
    if worst is None:
        return ConditionReport("A3", {"x": float(x)}, True, None, None, z0)
    return ConditionReport("A3", {"x": float(x)}, worst_spf > z0, worst,
                           float(worst_spf), z0)


def check_A4(f: WeightedSequence, z) -> ConditionReport:
    """Canonical shape: f is the roughness indicator (threshold z) of an
    interval sitting inside one dyadic block.

    Checks that all supported weights equal 1 exactly, that within the hull
    [min support, max support] the support is exactly the set of z-rough
    integers, and that max < 2 * min."""
    if z < 2:
        raise InvalidArgumentError("check_A4 needs z >= 2")
    sup = f.support().tolist()
    if not sup:
        return ConditionReport("A4", {"z": float(z)}, True, None, None, None)
    l1, l2 = sup[0], sup[-1]
    holds = True
    worst = None
    for n in sup:
        if f.value(n) != 1.0:
            holds = False
            worst = n
            break
    if holds:
        sieve = _root_sieve(l2)
        for n in range(l1, l2 + 1):
            rough = rough_indicator(n, z, sieve)
            have = 1 if f.value(n) != 0.0 else 0
            if rough != have:
                holds = False
                worst = n
                break
    if holds and l2 >= 2 * l1:
        holds = False
        worst = l2
    return ConditionReport("A4", {"z": float(z)}, holds, worst, float(l2), float(2 * l1))


@dataclass(frozen=True)
class HeathBrownResult:
    """Raw terms and the signed binomial total of the truncated expansion."""

    n: int
    x: float
    J: int
    terms: list[tuple[int, float]]
    total: float


def _cutoff_root(x, J: int) -> int:
    m = int(x ** (1.0 / J))
    while (m + 1) ** J <= x:
        m += 1
    while m > 0 and m**J > x:
        m -= 1
    return m


def heath_brown_terms(n: int, x, J: int, sieve: PrimeSieve) -> HeathBrownResult:
    """Truncated divisor-expansion of Lambda(n) with J levels.

    term_j sums mu(m_1)...mu(m_j) * g_j(n / (m_1...m_j)) over squarefree
    m_i <= x^(1/J) dividing n, where g_j(k) = tau_j(k) * log(k) / j.  The
    signed total sum_j (-1)^(j-1) * binom(J, j) * term_j equals Lambda(n)
    whenever n <= 2x.
    """
    n = int(n)
    J = int(J)
    if J < 1 or J > 7:
        raise InvalidArgumentError("J must be in [1, 7]")
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if x < 1 or n > 2 * x:
        raise InvalidArgumentError("the expansion needs n <= 2x")
    M = _cutoff_root(x, J)
    fact = factorize(n, sieve).factors
    ps = [p for p, _ in fact]
    es = [e for _, e in fact]
    r = len(ps)

    def tau_j_of(exps, j):
        out = 1
        for e in exps:
            if e:
                out *= comb(e + j - 1, j - 1)
        return out

    def squarefree_choices(exps):
        # squarefree divisors m <= M of the integer with exponent vector exps
        out = [(1, 1, exps)]
        stack = [(0, 1, 1, exps)]
        while stack:
            i, m, mu, cur = stack.pop()
            for t in range(i, r):
                if cur[t] == 0:
                    continue
                m2 = m * ps[t]
                if m2 > M:
                    continue
                nxt = list(cur)
                nxt[t] -= 1
                nxt = tuple(nxt)
                out.append((m2, -mu, nxt))
                stack.append((t + 1, m2, -mu, nxt))
        return out

    terms: list[tuple[int, float]] = []
    for j in range(1, J + 1):
        level = [(1.0, tuple(es))]
        for _ in range(j):
            nxt_level = []
            for coef, exps in level:
                for _, mu, rem in squarefree_choices(exps):
                    nxt_level.append((coef * mu, rem))
            level = nxt_level
        parts = []
        for coef, exps in level:
            k = 1
            for p, e in zip(ps, exps):
                k *= p**e
            if k > 1:
                parts.append(coef * tau_j_of(exps, j) * log(k) / j)
        terms.append((j, fsum(parts)))
    total = fsum((-1.0) ** (j - 1) * comb(J, j) * t for j, t in terms)
    return HeathBrownResult(n, float(x), J, terms, total)


# ---------------------------------------------------------------------------
# exactly evaluated multi-variable divisor sums

# the parameters each selector reads; the s-fold sums also read j1..js
_SELECTOR_KEYS = {
    "window-tau-power": ("x", "y", "ell", "k"),
    "rough-tau": ("x", "z", "j"),
    "rough-tau-harmonic": ("x", "z", "j"),
    "rough-tau-harmonic-log": ("w", "x", "z", "j"),
    "rough-tau-window-harmonic": ("x", "y", "z", "j"),
    "rough-tau-hyperbola": ("x", "z", "j"),
    "rough-tau-hyperbola-harmonic": ("x", "y", "z", "j"),
    "fourfold-ordered": ("x", "y", "z", "w", "j1", "j2", "j3", "j4"),
    "fourfold-glued": ("x", "y", "z", "w", "j1", "j2", "j3", "j4"),
    "sfold-ordered": ("x", "y", "z", "w", "s"),
    "sfold-glued": ("x", "y", "z", "w", "s", "nu"),
}

DIVISOR_SELECTORS = tuple(_SELECTOR_KEYS)


def selector_params(selector: str, params: dict) -> list:
    """The values of the parameters ``selector`` reads, in the order of
    ``_SELECTOR_KEYS`` and then j1..js.  An unknown selector, a missing
    parameter or an s other than 5 or 6 raises, before any table is built."""
    if selector not in DIVISOR_SELECTORS:
        raise InvalidArgumentError(f"unknown selector {selector!r}")
    keys = list(_SELECTOR_KEYS[selector])
    if "s" in keys and "s" in params:
        s = int(params["s"])
        if s not in (5, 6):
            raise InvalidArgumentError("s must be 5 or 6")
        keys += [f"j{i}" for i in range(1, s + 1)]
    missing = [k for k in keys if k not in params]
    if missing:
        raise InvalidArgumentError(f"{selector} needs parameters {missing}")
    return [params[k] for k in keys]


def _ld_sum(arr) -> float:
    return float(np.sum(arr.astype(np.longdouble)))


def _weight_table(limit: int, j: int, z, sieve: PrimeSieve, glued=False) -> np.ndarray:
    """tau_j(n) * [n is z-rough] as float64 over [0, limit], or with
    ``glued`` its convolution with 1, which counts the glued free variable.

    The convolution sums tau_j over the divisors of the z-rough part of n,
    so it is tau_{j+1} of that part.
    """
    j = _tau_order(j)
    tab = _accel.tau_table(sieve.spf[: limit + 1], j + glued, z).astype(np.float64)
    if not glued:
        tab[~rough_table(limit, z, sieve)] = 0.0
    return tab


def _single_budget(xi: int) -> None:
    if xi > _SINGLE_SUM_BUDGET:
        raise RangeBudgetError(f"single-variable sum budget is x <= {_SINGLE_SUM_BUDGET}")


def _multi_budget(xi: int) -> None:
    if xi > _MULTI_SUM_BUDGET:
        raise RangeBudgetError(f"multi-variable sum budget is x <= {_MULTI_SUM_BUDGET}")


def _fourfold(xi: int, y: float, w_lo: float, tables: list[np.ndarray]) -> float:
    t1, t2, t3, t4 = tables
    pre1 = np.cumsum(t1.astype(np.longdouble))
    e4_lo = max(1, ceil(w_lo))
    parts = []
    e4 = e4_lo
    while e4 * e4 * e4 * e4 <= xi:
        if t4[e4] != 0.0:
            f4 = t4[e4]
            e3 = e4
            while e3 * e3 * e3 * e4 <= xi and e3 <= y * e4:
                if t3[e3] != 0.0:
                    f34 = f4 * t3[e3]
                    e2 = e3
                    while e2 * e2 * e3 * e4 <= xi:
                        if t2[e2] != 0.0:
                            hi1 = min(xi // (e2 * e3 * e4), int(floor(y * e2)))
                            if hi1 >= e2:
                                block = float(pre1[hi1] - pre1[e2 - 1])
                                parts.append(f34 * t2[e2] * block)
                        e2 += 1
                e3 += 1
        e4 += 1
    return fsum(parts)


def _sfold(xi: int, y: float, w_lo: float, tables: list[np.ndarray]) -> float:
    s = len(tables)
    pre1 = np.cumsum(tables[0].astype(np.longdouble))
    parts = []
    e_last = [0]  # current value at position s, for the y-condition

    def rec(pos: int, lo: int, prod: int, wgt: float):
        # pos counts down; chain values ascend from position s to 1
        if pos == 1:
            hi1 = xi // prod
            if hi1 >= lo:
                parts.append(wgt * float(pre1[hi1] - pre1[lo - 1]))
            return
        tab = tables[pos - 1]
        cap = int(floor(y * e_last[0])) if pos == s - 2 else None
        e = lo
        while prod * e**pos <= xi:
            if cap is not None and e > cap:
                break
            if tab[e] != 0.0:
                rec(pos - 1, e, prod * e, wgt * tab[e])
            e += 1

    tab_s = tables[s - 1]
    e = max(1, ceil(w_lo))
    while e**s <= xi:
        if tab_s[e] != 0.0:
            e_last[0] = e
            rec(s - 1, e, e, float(tab_s[e]))
        e += 1
    return fsum(parts)


def divisor_sum_lhs(selector: str, params: dict, sieve: PrimeSieve) -> float:
    """Exact value of one of the eleven windowed divisor sums.

    Selector tokens name the sum's structure; every sum is evaluated by
    nested enumeration with pruning (or an equivalent exact regrouping of
    the innermost free variable).  See divisor_sum_rhs_shape for the matching
    reference upper-bound shapes evaluated with constant 1.
    """
    given = selector_params(selector, params)

    if selector == "window-tau-power":
        x, y, ell, k = given
        if x < 1 or y < 1 or y > x:
            raise InvalidArgumentError("needs 1 <= y <= x")
        if k < 0 or ell < 1:
            raise InvalidArgumentError("needs k >= 0 and ell >= 1")
        xi = int(floor(x))
        _single_budget(xi)
        if xi > sieve.limit:
            raise RangeBudgetError("needs x <= sieve.limit")
        tab = _accel.tau_table(sieve.spf[: xi + 1], _tau_order(ell), 2)
        ns = np.arange(xi + 1, dtype=np.int64)
        mask = (ns > x - y) & (ns <= x) & (ns >= 1)
        vals = tab[mask].astype(np.float64) ** int(k)
        return _ld_sum(vals)

    if selector in ("rough-tau", "rough-tau-harmonic", "rough-tau-hyperbola"):
        x, z, j = given
        if x < 1 or z < 1 or j < 0:
            raise InvalidArgumentError("needs x, z >= 1 and j >= 0")
        xi = int(floor(x))
        _single_budget(xi)
        if xi > sieve.limit:
            raise RangeBudgetError("needs x <= sieve.limit")
        w = _weight_table(xi, int(j), z, sieve)
        ns = np.arange(xi + 1, dtype=np.float64)
        if selector == "rough-tau":
            return _ld_sum(w[1:])
        if selector == "rough-tau-harmonic":
            return _ld_sum(w[1:] / ns[1:])
        counts = xi // np.arange(1, xi + 1, dtype=np.int64)
        return _ld_sum(w[1:] * counts)

    if selector == "rough-tau-harmonic-log":
        w_lo, x, z, j = given
        if x < 1 or w_lo < 1 or z < 1 or j < 0:
            raise InvalidArgumentError("needs x, w, z >= 1 and j >= 0")
        xi = int(floor(x))
        _single_budget(xi)
        if xi > sieve.limit:
            raise RangeBudgetError("needs x <= sieve.limit")
        w = _weight_table(xi, int(j), z, sieve)
        ns = np.arange(xi + 1, dtype=np.float64)
        mask = ns > w_lo
        mask[0] = False
        vals = w[mask] / (ns[mask] * np.log(2.0 * ns[mask]))
        return _ld_sum(vals)

    if selector == "rough-tau-window-harmonic":
        x, y, z, j = given
        if x < 1 or y < 1 or z < 1 or j < 0:
            raise InvalidArgumentError("needs x, y, z >= 1 and j >= 0")
        hi = int(floor(x * y))
        _single_budget(hi)
        if hi > sieve.limit:
            raise RangeBudgetError("needs x*y <= sieve.limit")
        w = _weight_table(hi, int(j), z, sieve)
        ns = np.arange(hi + 1, dtype=np.float64)
        mask = (ns > x) & (ns <= x * y)
        return _ld_sum(w[mask] / ns[mask])

    if selector == "rough-tau-hyperbola-harmonic":
        x, y, z, j = given
        if x < 1 or y < 1 or z < 1 or j < 0:
            raise InvalidArgumentError("needs x, y, z >= 1 and j >= 0")
        hi = int(floor(x * y))
        _single_budget(hi)
        if hi > sieve.limit:
            raise RangeBudgetError("needs x*y <= sieve.limit")
        w = _weight_table(hi, int(j), z, sieve)
        ns = np.arange(1, hi + 1, dtype=np.int64)
        ns_ld = ns.astype(np.longdouble)
        harm = np.concatenate(([np.longdouble(0.0)],
                               np.cumsum(1.0 / ns_ld)))
        lo_t = np.floor(np.longdouble(x) / ns_ld).astype(np.int64)
        hi_t = np.floor(np.longdouble(x) * np.longdouble(y) / ns_ld).astype(np.int64)
        inner = harm[np.minimum(hi_t, hi)] - harm[np.minimum(lo_t, hi)]
        vals = (w[1:].astype(np.longdouble) / ns_ld) * inner
        return float(np.sum(vals))

    if selector in ("fourfold-ordered", "fourfold-glued"):
        x, y, z, w_lo, *js = given
        if x < 1 or y < 1 or z < 1 or w_lo < 1 or any(j < 0 for j in js):
            raise InvalidArgumentError("needs x, y, z, w >= 1 and j_i >= 0")
        xi = int(floor(x))
        _multi_budget(xi)
        if xi > sieve.limit:
            raise RangeBudgetError("needs x <= sieve.limit")
        glued = selector == "fourfold-glued"
        tables = [_weight_table(xi, int(j), z, sieve, glued and i == 0)
                  for i, j in enumerate(js)]
        return _fourfold(xi, float(y), float(w_lo), tables)

    # sfold-ordered / sfold-glued
    x, y, z, w_lo, s, *js = given
    nu = int(js.pop(0)) if selector == "sfold-glued" else 0
    if x < 1 or y < 1 or z < 1 or w_lo < 1 or any(j < 0 for j in js):
        raise InvalidArgumentError("needs x, y, z, w >= 1 and j_i >= 0")
    xi = int(floor(x))
    _multi_budget(xi)
    if xi > sieve.limit:
        raise RangeBudgetError("needs x <= sieve.limit")
    if selector == "sfold-glued" and not 1 <= nu <= int(s):
        raise InvalidArgumentError("nu must be in [1, s]")
    tables = [_weight_table(xi, int(j), z, sieve, i == nu)
              for i, j in enumerate(js, start=1)]
    return _sfold(xi, float(y), float(w_lo), tables)


def divisor_sum_rhs_shape(selector: str, params: dict) -> float:
    """The reference upper-bound shape for a selector, with constant 1."""
    if selector not in DIVISOR_SELECTORS:
        raise InvalidArgumentError(f"unknown selector {selector!r}")
    p = params

    def lratio(*zs):
        top = log(2.0 * np.prod([float(v) for v in zs]))
        return top / log(2.0 * float(p["z"]))

    if selector == "window-tau-power":
        return float(p["y"]) * log(2.0 * p["x"]) ** (int(p["ell"]) ** int(p["k"]) - 1)
    if selector == "rough-tau":
        return p["x"] / log(2.0 * p["x"]) * lratio(p["x"]) ** p["j"]
    if selector == "rough-tau-harmonic":
        return lratio(p["x"]) ** p["j"]
    if selector == "rough-tau-harmonic-log":
        return lratio(p["x"]) ** p["j"] / log(2.0 * p["w"])
    if selector == "rough-tau-window-harmonic":
        return (log(2.0 * p["y"]) / log(2.0 * p["x"])) * lratio(p["x"], p["y"]) ** p["j"]
    if selector == "rough-tau-hyperbola":
        return p["x"] * log(log(3.0 * p["x"])) * lratio(p["x"]) ** p["j"]
    if selector == "rough-tau-hyperbola-harmonic":
        return (log(2.0 * p["y"]) * log(log(3.0 * p["x"] * p["y"]))
                * lratio(p["x"], p["y"]) ** p["j"])
    if selector == "fourfold-ordered":
        jsum = sum(int(p[f"j{i}"]) for i in range(1, 5))
        return (p["x"] / log(2.0 * p["w"])
                * (log(2.0 * p["y"]) / log(2.0 * p["x"])) ** 2
                * lratio(p["x"], p["y"]) ** jsum)
    if selector == "fourfold-glued":
        jsum = sum(int(p[f"j{i}"]) for i in range(1, 5))
        return (log(log(3.0 * p["x"] * p["y"] * p["z"]))
                * p["x"] / log(2.0 * p["w"])
                * log(2.0 * p["y"]) ** 2 / log(2.0 * p["x"])
                * lratio(p["x"], p["y"]) ** jsum)
    s = int(p["s"])
    jsum = sum(int(p[f"j{i}"]) for i in range(1, s + 1))
    if selector == "sfold-ordered":
        return (p["x"] / log(2.0 * p["x"])
                * (log(2.0 * p["y"]) / log(2.0 * p["w"])) ** 2
                * lratio(p["x"], p["y"]) ** jsum)
    return (p["x"] * log(log(3.0 * p["x"] * p["y"] * p["z"])) ** s
            * (log(2.0 * p["y"]) / log(2.0 * p["w"])) ** 2
            * lratio(p["x"], p["y"]) ** jsum)
