"""Weighted sequences on integer intervals: norms, Dirichlet convolution,
progression discrepancies, structural condition checks, a combinatorial
expansion of the von Mangoldt function, and a family of exactly evaluated
multi-variable divisor sums with their reference upper-bound shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, floor, fsum, gcd, isfinite, isqrt, log

import numpy as np

from . import _accel
from .ap import check_modulus, default_rough_z
from .errors import InvalidArgumentError, RangeBudgetError
from .sieve import (PrimeSieve, _rough_mask, _tau_order, build_sieve, euler_phi,
                    factorize, rough_table)

_SPAN_BUDGET = 100_000_000  # widest window of a dense sequence


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
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise InvalidArgumentError(
                f"weight {vals[bad[0]]} at n = {lo + int(bad[0])} is not finite")
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
        vals = np.zeros(_width(lo, hi))
        for n, v in pairs:
            vals[n - lo] = v
        return cls(lo, hi, vals)

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
                if not isfinite(pairs[-1][1]):
                    raise InvalidArgumentError(f"{path}:{lineno}: weight is not finite: {line!r}")
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
    check_modulus("delta", "q", q)
    ns = np.arange(f.lo, f.hi + 1, dtype=np.int64)
    main = fsum(f.values[ns % q == a % q].tolist())
    cop = fsum(f.values[np.gcd(ns, q) == 1].tolist())
    return main - cop / euler_phi(q, _root_sieve(q))


def a1_lhs(f: WeightedSequence, d: int, k: int, ell: int) -> float:
    """Absolute discrepancy of f restricted to gcd(n, d) == 1:

        | sum_{n = ell (k), (n,d)=1} f(n) - (1/phi(k)) sum_{(n,dk)=1} f(n) |.
    """
    for name, v in (("d", d), ("k", k), ("d*k", d * k)):
        check_modulus("a1_lhs", name, v)
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
    sup = f.support()
    if not sup.size:
        return ConditionReport("A2", {"B": bound}, True, None, None, None)
    l1, l2 = int(sup[0]), int(sup[-1])
    tau = _accel.tau_table(_root_sieve(l2).primes, l1, l2, 2, 2)
    # ratios in Python floats (numpy's power may round another way); the
    # first maximum is the worst
    lhs = np.abs(f.values[sup - f.lo]).tolist()
    taus = tau[sup - l1].tolist()
    ratio = [v / (bound * t ** bound) for v, t in zip(lhs, taus)]
    i = max(range(len(ratio)), key=ratio.__getitem__)
    return ConditionReport("A2", {"B": bound}, ratio[i] <= 1.0, int(sup[i]),
                           lhs[i], bound * taus[i] ** bound)


def check_A3(f: WeightedSequence, x) -> ConditionReport:
    """Support roughness: every supported n has all prime factors strictly
    above exp(log x / (log log x)^2)."""
    z0 = default_rough_z(x)
    sieve = _root_sieve(f.hi)
    sup = f.support()
    sup = sup[sup != 1]  # no prime factors: vacuously rough
    if not sup.size:
        return ConditionReport("A3", {"x": float(x)}, True, None, None, z0)
    # strike the primes p <= isqrt(l2) in ascending order: the first to hit
    # the support is the least spf, its first hit the worst case; if none
    # hits, every supported n is prime and the smallest is the worst
    l1, l2 = int(sup[0]), int(sup[-1])
    on = np.zeros(l2 - l1 + 1, dtype=bool)
    on[sup - l1] = True
    worst = worst_spf = l1
    ps = sieve.primes[:sieve.pi(isqrt(l2))]
    for p in ps[-l1 % ps < on.size].tolist():
        hit = np.flatnonzero(on[-l1 % p::p])
        if hit.size:
            worst, worst_spf = l1 + -l1 % p + p * int(hit[0]), p
            break
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
    sup = f.support()
    if not sup.size:
        return ConditionReport("A4", {"z": float(z)}, True, None, None, None)
    l1, l2 = int(sup[0]), int(sup[-1])
    have = f.values[l1 - f.lo:l2 - f.lo + 1]
    bad = np.flatnonzero((have != 0.0) & (have != 1.0))
    if not bad.size:
        rough = _rough_mask(l1, l2, z, _root_sieve(l2).primes)
        bad = np.flatnonzero(rough != (have != 0.0))
    worst = l1 + int(bad[0]) if bad.size else (l2 if l2 >= 2 * l1 else None)
    return ConditionReport("A4", {"z": float(z)}, worst is None, worst,
                           float(l2), float(2 * l1))


@dataclass(frozen=True)
class HeathBrownResult:
    """Raw terms and the signed binomial total of the truncated expansion."""

    n: int
    x: float
    J: int
    terms: list[tuple[int, float]]
    total: float


def _cutoff_root(x, J: int, n: int) -> int:
    # the largest m <= n with m**J <= x, by bisection (int-float <= is exact)
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**J <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


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
    if not x >= 1 or n > 2 * x:
        raise InvalidArgumentError("the expansion needs n <= 2x")
    M = _cutoff_root(x, J, n)
    ps = [p for p, _ in factorize(n, sieve).factors]

    def steps(k: int) -> list[tuple[int, int]]:
        # the squarefree m <= M dividing k, with mu(m)
        out = [(1, 1)]
        for p in ps:
            if k % p == 0:
                out += [(m * p, -mu) for m, mu in out if m * p <= M]
        return out

    def tau_j(k: int, j: int) -> int:
        out = 1
        for p in ps:
            e = 0
            while k % p == 0:
                k //= p
                e += 1
            out *= comb(e + j - 1, j - 1)
        return out

    # each cofactor k = n / (m_1...m_j) maps to the signed count of its
    # chains, mu(m_1)...mu(m_j) summed over them; level j is level j - 1
    # advanced by one more m
    level = {n: 1}
    terms: list[tuple[int, float]] = []
    for j in range(1, J + 1):
        nxt: dict[int, int] = {}
        for k, c in level.items():
            for m, mu in steps(k):
                nxt[k // m] = nxt.get(k // m, 0) + mu * c
        level = {k: c for k, c in nxt.items() if c}
        # a chain adds its sign times the float tau_j(k) * log(k) / j; the sum
        # is exact over a power-of-two denominator and rounded once, so it
        # equals fsum over the chains
        parts = [(c, (tau_j(k, j) * log(k) / j).as_integer_ratio())
                 for k, c in level.items() if k > 1]
        den = max((d for _, (_, d) in parts), default=1)
        terms.append((j, sum(c * a * (den // d) for c, (a, d) in parts) / den))
    total = fsum((-1.0) ** (j - 1) * comb(J, j) * t for j, t in terms)
    return HeathBrownResult(n, float(x), J, terms, total)


# ---------------------------------------------------------------------------
# exactly evaluated multi-variable divisor sums

_SINGLE = 10_000_000  # largest table of a single-variable sum
_MULTI = 1_000_000  # largest table of a four- or s-fold sum

# selector: the parameters it reads (the s-fold sums also read j1..js), the
# parameters whose product its tables span, and the budget of that span
_SELECTORS = {
    "window-tau-power": (("x", "y", "ell", "k"), ("x",), _SINGLE),
    "rough-tau": (("x", "z", "j"), ("x",), _SINGLE),
    "rough-tau-harmonic": (("x", "z", "j"), ("x",), _SINGLE),
    "rough-tau-harmonic-log": (("w", "x", "z", "j"), ("x",), _SINGLE),
    "rough-tau-window-harmonic": (("x", "y", "z", "j"), ("x", "y"), _SINGLE),
    "rough-tau-hyperbola": (("x", "z", "j"), ("x",), _SINGLE),
    "rough-tau-hyperbola-harmonic": (("x", "y", "z", "j"), ("x", "y"), _SINGLE),
    "fourfold-ordered": (("x", "y", "z", "w", "j1", "j2", "j3", "j4"), ("x",), _MULTI),
    "fourfold-glued": (("x", "y", "z", "w", "j1", "j2", "j3", "j4"), ("x",), _MULTI),
    "sfold-ordered": (("x", "y", "z", "w", "s"), ("x",), _MULTI),
    "sfold-glued": (("x", "y", "z", "w", "s", "nu"), ("x",), _MULTI),
}

DIVISOR_SELECTORS = tuple(_SELECTORS)


def selector_params(selector: str, params: dict) -> tuple[list, int]:
    """The values of the parameters ``selector`` reads, in the order of
    ``_SELECTORS`` and then j1..js, and the largest integer its tables span.

    Raises before any table is built: an unknown selector, a missing
    parameter, an s other than 5 or 6, a nu outside [1, s] or a value below
    its lower bound (``InvalidArgumentError``), or a span above the
    selector's budget (``RangeBudgetError``)."""
    if selector not in _SELECTORS:
        raise InvalidArgumentError(f"unknown selector {selector!r}")
    keys, span, budget = _SELECTORS[selector]
    keys = list(keys)
    if "s" in keys and "s" in params:
        s = int(params["s"])
        if s not in (5, 6):
            raise InvalidArgumentError("s must be 5 or 6")
        keys += [f"j{i}" for i in range(1, s + 1)]
    missing = [k for k in keys if k not in params]
    if missing:
        raise InvalidArgumentError(f"{selector} needs parameters {missing}")
    for key in keys:
        low = 0 if key == "k" or key[0] == "j" else 1
        if key not in ("s", "nu") and params[key] < low:
            raise InvalidArgumentError(f"{selector} needs {key} >= {low}")
    if selector == "window-tau-power" and params["y"] > params["x"]:
        raise InvalidArgumentError("needs 1 <= y <= x")
    if selector == "sfold-glued" and not 1 <= params["nu"] <= params["s"]:
        raise InvalidArgumentError("nu must be in [1, s]")
    hi = int(floor(params["x"] * params["y"] if span == ("x", "y") else params["x"]))
    if hi > budget:
        raise RangeBudgetError(f"{selector} budget is {'*'.join(span)} <= {budget}")
    return [params[k] for k in keys], hi


def _ld_sum(arr) -> float:
    return float(np.sum(arr.astype(np.longdouble)))


def _weight_table(limit: int, j: int, z, sieve: PrimeSieve, glued=False) -> np.ndarray:
    """tau_j(n) * [n is z-rough] as float64 over [0, limit], or with
    ``glued`` its convolution with 1, which counts the glued free variable.

    The convolution sums tau_j over the divisors of the z-rough part of n,
    so it is tau_{j+1} of that part.
    """
    j = _tau_order(j)
    tab = _accel.tau_table(sieve.primes, 0, limit, j + glued, z).astype(np.float64)
    if not glued:
        tab[~rough_table(limit, z, sieve)] = 0.0
    return tab


def _chain(xi: int, y: float, w_lo: float, tables: list[np.ndarray], caps: dict) -> float:
    """Sum of tables[0][e_1] * ... * tables[s-1][e_s] over the chains
    w_lo <= e_s <= ... <= e_1 with e_1 * ... * e_s <= xi, where each entry
    i: r of ``caps`` also bounds e_i <= y * e_r.  The innermost variable is
    summed from a prefix table."""
    pre1 = np.cumsum(tables[0].astype(np.longdouble))
    chain = [0] * (len(tables) + 1)  # chain[i] holds e_i while it is fixed
    parts = []

    def rec(pos: int, lo: int, prod: int, wgt: float):
        # pos counts down; chain values ascend from position s to 1
        cap = int(floor(y * chain[caps[pos]])) if pos in caps else xi
        if pos == 1:
            hi1 = min(xi // prod, cap)
            if hi1 >= lo:
                parts.append(wgt * float(pre1[hi1] - pre1[lo - 1]))
            return
        tab = tables[pos - 1]
        e = lo
        while prod * e**pos <= xi and e <= cap:
            if tab[e] != 0.0:
                chain[pos] = e
                rec(pos - 1, e, prod * e, wgt * tab[e])
            e += 1

    rec(len(tables), max(1, ceil(w_lo)), 1, 1.0)
    return fsum(parts)


def divisor_sum_lhs(selector: str, params: dict, sieve: PrimeSieve) -> float:
    """Exact value of one of the eleven windowed divisor sums.

    Selector tokens name the sum's structure; every sum is evaluated by
    nested enumeration with pruning (or an equivalent exact regrouping of
    the innermost free variable).  See divisor_sum_rhs_shape for the matching
    reference upper-bound shapes evaluated with constant 1.
    """
    given, hi = selector_params(selector, params)
    if hi > sieve.limit:
        span = "*".join(_SELECTORS[selector][1])
        raise RangeBudgetError(f"needs {span} <= sieve.limit")

    if selector == "window-tau-power":
        x, y, ell, k = given
        # the n in (x - y, x]: 1 <= y <= x, so the window is not empty
        tab = _accel.tau_table(sieve.primes, floor(x - y) + 1, hi, _tau_order(ell), 2)
        return _ld_sum(tab.astype(np.float64) ** int(k))

    if not selector.startswith(("fourfold", "sfold")):
        *lead, z, j = given
        w = _weight_table(hi, int(j), z, sieve)
        if selector == "rough-tau":
            return _ld_sum(w[1:])
        if selector == "rough-tau-hyperbola":
            return _ld_sum(w[1:] * (hi // np.arange(1, hi + 1, dtype=np.int64)))
        ns = np.arange(hi + 1, dtype=np.float64)
        if selector == "rough-tau-harmonic":
            return _ld_sum(w[1:] / ns[1:])
        if selector == "rough-tau-harmonic-log":
            mask = ns > lead[0]  # w >= 1 leaves out n = 0
            return _ld_sum(w[mask] / (ns[mask] * np.log(2.0 * ns[mask])))
        x, y = lead
        if selector == "rough-tau-window-harmonic":
            mask = (ns > x) & (ns <= x * y)
            return _ld_sum(w[mask] / ns[mask])
        # rough-tau-hyperbola-harmonic: the terms a block of n at a time into
        # one array, so that the one pairwise sum adds them in the same order
        harm = np.zeros(hi + 1, dtype=np.longdouble)
        np.cumsum(1.0 / np.arange(1, hi + 1, dtype=np.int64).astype(np.longdouble),
                  out=harm[1:])
        terms = np.empty(hi, dtype=np.longdouble)
        for lo in range(1, hi + 1, _accel._BLOCK):
            top = min(lo + _accel._BLOCK, hi + 1)
            n = np.arange(lo, top, dtype=np.int64).astype(np.longdouble)
            lo_t = np.floor(np.longdouble(x) / n).astype(np.int64)
            hi_t = np.floor(np.longdouble(x) * np.longdouble(y) / n).astype(np.int64)
            inner = harm[np.minimum(hi_t, hi)] - harm[np.minimum(lo_t, hi)]
            terms[lo - 1:top - 1] = (w[lo:top].astype(np.longdouble) / n) * inner
        return float(np.sum(terms))

    if selector.startswith("fourfold"):
        x, y, z, w_lo, *js = given
        glued = [selector == "fourfold-glued", False, False, False]
        caps = {3: 4, 1: 2}
    else:
        x, y, z, w_lo, s, *js = given
        nu = int(js.pop(0)) if selector == "sfold-glued" else 0
        glued = [i == nu for i in range(1, len(js) + 1)]
        caps = {len(js) - 2: len(js)}
    keys = [(int(j), g) for j, g in zip(js, glued)]
    built = {(j, g): _weight_table(hi, j, z, sieve, g) for j, g in dict.fromkeys(keys)}
    return _chain(hi, float(y), float(w_lo), [built[key] for key in keys], caps)


def divisor_sum_rhs_shape(selector: str, params: dict) -> float:
    """The reference upper-bound shape for a selector, with constant 1, for
    the parameters that ``selector_params`` accepts."""
    selector_params(selector, params)
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
