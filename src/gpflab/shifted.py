"""Shifted products a*b + 1 over index sets and their prime structure."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, inf, log

import numpy as np

from . import _accel
from .errors import ConstructionFailedError, InvalidArgumentError, RangeBudgetError
from .sieve import (MAX_SIEVE_LIMIT, PrimeSieve, _root_sieve, divisor_list, factorize,
                    greatest_prime_factor_batch, is_prime_u64, segmented_primes)

LV_COUNT_CAP = 10_000
# most pairs |A|*|B| gamma_plus takes; --n 3000 --dense (9e6 pairs) still runs
GAMMA_PAIR_BUDGET = 10_000_000

# exponent in the density normalization of the distinct-product count
FORD_EXPONENT = 1.0 - (1.0 + log(log(2.0))) / log(2.0)


class IndexSet:
    """Subset of [1, n_max] stored as a bit mask."""

    __slots__ = ("n_max", "bits")

    def __init__(self, n_max: int):
        n_max = int(n_max)
        if n_max < 1:
            raise InvalidArgumentError("IndexSet needs n_max >= 1")
        # a set this wide could not be sieved anyway; refuse it before allocating
        if n_max > MAX_SIEVE_LIMIT:
            raise RangeBudgetError(f"IndexSet n_max {n_max} exceeds cap {MAX_SIEVE_LIMIT}")
        self.n_max = n_max
        self.bits = np.zeros(n_max + 1, dtype=bool)

    @classmethod
    def dense(cls, n_max: int) -> "IndexSet":
        out = cls(n_max)
        out.bits[1:] = True
        return out

    @classmethod
    def from_iterable(cls, values, n_max: int | None = None) -> "IndexSet":
        vals = sorted(set(int(v) for v in values))
        if vals and vals[0] < 1:
            raise InvalidArgumentError("IndexSet members must be >= 1")
        if n_max is None:
            if not vals:
                raise InvalidArgumentError("cannot infer n_max from an empty set")
            n_max = vals[-1]
        out = cls(n_max)
        for v in vals:
            if v > n_max:
                raise InvalidArgumentError(f"member {v} exceeds n_max {n_max}")
            out.bits[v] = True
        return out

    @classmethod
    def from_file(cls, path, n_max: int | None = None) -> "IndexSet":
        """Parse a set file: one integer per line, '#' comments, strictly
        increasing values within [1, n_max]."""
        vals: list[int] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    v = int(line)
                except ValueError as exc:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: not an integer: {line!r}") from exc
                if vals and v <= vals[-1]:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: values must be strictly increasing")
                if v < 1:
                    raise InvalidArgumentError(f"{path}:{lineno}: values must be >= 1")
                vals.append(v)
        if n_max is not None and vals and vals[-1] > n_max:
            raise InvalidArgumentError(f"{path}: value {vals[-1]} exceeds n_max {n_max}")
        return cls.from_iterable(vals, n_max)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for v in self.members().tolist():
                fh.write(f"{v}\n")

    def max_member(self) -> int:
        """The largest member, 0 for the empty set."""
        return int(np.flatnonzero(self.bits).max(initial=0))

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.bits).astype(np.int64)

    def __contains__(self, v) -> bool:
        v = int(v)
        return 1 <= v <= self.n_max and bool(self.bits[v])

    def __len__(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __repr__(self):
        return f"IndexSet(n_max={self.n_max}, cardinality={len(self)})"


@dataclass(frozen=True)
class GammaResult:
    """Largest prime factor over all shifted products, with a witness pair."""

    gamma_plus: int
    witness: tuple[int, int, int]  # (a, b, p) with p = P+(a*b + 1)
    c_count: int  # number of distinct shifted products


def _distinct_shifted_products(a_members: np.ndarray, b_arr: np.ndarray) -> np.ndarray:
    """The distinct a*b + 1, ascending: one in-place sort and a neighbour compare."""
    vals = np.multiply.outer(a_members, b_arr).ravel()
    vals += 1
    vals.sort()
    keep = np.empty(vals.size, dtype=bool)
    keep[0] = True
    np.not_equal(vals[1:], vals[:-1], out=keep[1:])
    return vals[keep]


def _product_table(a_members: np.ndarray, b_arr: np.ndarray, counts: bool = False,
                   cap: float = inf) -> np.ndarray | None:
    """The a*b + 1 marked over [0, top], top = max a * max b + 1: True in a
    bool table, or with counts the number of pairs at each value in a uint16
    one.  None when top >= 8 |A| |B|, where a byte per value would outweigh
    the int64 products, or when top >= cap."""
    top = int(a_members[-1]) * int(b_arr[-1]) + 1
    if top >= min(8 * a_members.size * b_arr.size, cap):
        return None
    table = np.zeros(top + 1, dtype=np.uint16 if counts else bool)
    for a in a_members.tolist():
        if counts:  # the values of one row are distinct, so the add is exact
            table[a * b_arr + 1] += 1
        else:
            table[a * b_arr + 1] = True
    return table


def check_gamma_pairs(A: IndexSet, B: IndexSet) -> None:
    """Refuse a gamma_plus call over more than GAMMA_PAIR_BUDGET pairs."""
    pairs = len(A) * len(B)
    if pairs > GAMMA_PAIR_BUDGET:
        raise RangeBudgetError(
            f"gamma_plus budget is |A|*|B| <= {GAMMA_PAIR_BUDGET}, got {pairs}")


def gamma_plus(A: IndexSet, B: IndexSet, sieve: PrimeSieve) -> GammaResult:
    """max over (a, b) in A x B of the greatest prime factor of a*b + 1.

    The witness is the pair achieving the max; among ties the largest
    product value wins, then the smallest a, then the smallest b.
    """
    if len(A) == 0 or len(B) == 0:
        raise InvalidArgumentError("gamma_plus needs nonempty sets")
    check_gamma_pairs(A, B)
    a_members = A.members()
    b_arr = B.members()
    if max(a_members[-1], b_arr[-1]) > sieve.limit:
        raise RangeBudgetError("gamma_plus needs every member <= sieve.limit")
    mask = _product_table(a_members, b_arr)
    distinct = (_distinct_shifted_products(a_members, b_arr) if mask is None
                else np.flatnonzero(mask))
    # scan down from the top: gpf(v) <= v, so once every value left is at
    # most best none can win, and a later tie is a smaller product
    best = vmax = 0
    hi, step = distinct.size, 1 << 10
    while hi and int(distinct[hi - 1]) > best:
        lo = max(0, hi - step)
        vals = distinct[lo:hi][::-1]
        vals = vals[vals > best]
        gpf = greatest_prime_factor_batch(vals, sieve)
        i = int(np.argmax(gpf))  # the first maximum: the largest value
        if gpf[i] > best:
            best, vmax = int(gpf[i]), int(vals[i])
        hi, step = lo, min(2 * step, _accel._BLOCK)
    target = vmax - 1
    for a in a_members.tolist():
        if target % a == 0:
            b = target // a
            if b in B:
                return GammaResult(best, (a, b, best), int(distinct.size))
    raise AssertionError("witness reconstruction failed")  # pragma: no cover


def lv_count(N: int) -> int:
    """Number of distinct products a*b with 1 <= a, b <= N."""
    N = int(N)
    if N < 1:
        raise InvalidArgumentError("lv_count needs N >= 1")
    if N > LV_COUNT_CAP:
        raise RangeBudgetError(f"lv_count cap is N <= {LV_COUNT_CAP}")
    return _accel.product_mark_count(N)


def ford_ratio(count: int, N: int) -> float:
    """count = lv_count(N) normalized by its known density shape:

        count * (log N)^c * (log log N)^(3/2) / N^2,

    with c the multiplication-table exponent (about 0.0861)."""
    if N < 3:
        raise InvalidArgumentError("ford_ratio needs N >= 3 (log log N > 0)")
    return count * log(N) ** FORD_EXPONENT * log(log(N)) ** 1.5 / float(N) ** 2


def adversarial_sets(N: int, eps: float) -> tuple[int, IndexSet, IndexSet]:
    """Congruence classes forcing every shifted product to carry the prime p.

    Picks the smallest prime p in [1/(2*eps), 1/eps], then A = {a <= N:
    a = 1 (mod p)} and B = {b <= N: b = -1 (mod p)}, so p divides a*b + 1
    for every pair and the largest prime factor can be as small as
    (N^2 + 1)/p."""
    N = int(N)
    if N < 1:
        raise InvalidArgumentError("adversarial_sets needs N >= 1")
    if not (0.0 < eps <= 0.5):
        raise InvalidArgumentError("adversarial_sets needs 0 < eps <= 1/2")
    if 2.0 * eps * (N + 1) < 1.0:  # the test grows with cand: all candidates > N + 1
        raise ConstructionFailedError(f"residue class -1 mod p is empty below N={N}")
    if N > MAX_SIEVE_LIMIT:  # before a search whose float steps may not move cand
        raise RangeBudgetError(f"IndexSet n_max {N} exceeds cap {MAX_SIEVE_LIMIT}")
    cand = max(2, ceil(0.5 / eps))
    while cand > 2 and 2.0 * eps * (cand - 1) >= 1.0:
        cand -= 1
    p = 0
    while cand * eps <= 1.0:
        if 2.0 * eps * cand >= 1.0 and is_prime_u64(cand):
            p = cand
            break
        cand += 1
    if p == 0:
        raise ConstructionFailedError(f"no prime in [1/(2*eps), 1/eps] for eps={eps}")
    if p - 1 > N:
        raise ConstructionFailedError(f"residue class -1 mod {p} is empty below N={N}")
    A, B = IndexSet(N), IndexSet(N)
    A.bits[1::p] = True
    B.bits[p - 1::p] = True
    return p, A, B


def prime_in_interval_search(N: int, lo, hi, sieve: PrimeSieve):
    """Largest prime p in [lo, hi] with p - 1 = a*b, a, b <= N.  Returns
    (p, a, b) with the smallest such a, or None."""
    N = int(N)
    if N < 1:
        raise InvalidArgumentError("search needs N >= 1")
    if lo < 1 or hi < lo:
        raise InvalidArgumentError("search needs 1 <= lo <= hi")
    ps = segmented_primes(int(floor(lo)) - 1, int(floor(hi)), sieve)
    for p in ps[::-1].tolist():
        if p < lo:
            continue
        target = p - 1  # >= 1, as p is a prime
        a_min = -(-target // N)  # ceil(target / N): ensures b <= N
        for d in divisor_list(factorize(target, sieve)):
            if d > N:
                break
            if d >= a_min:
                return p, d, target // d
    return None


def theorem1_thresholds(N: int, A_exp: float) -> tuple[float, float, float]:
    """The (Y, Z1, Z2) cut points: Y = N(1 - 1/(2(log N)^A)) and the prime
    window (Z2, Z1] = (N^2(1 - 1/(log N)^A), N^2(1 - 1/(2(log N)^A))]."""
    if N < 3:
        raise InvalidArgumentError("theorem1 thresholds need N >= 3")
    if A_exp <= 0:
        raise InvalidArgumentError("theorem1 thresholds need A_exp > 0")
    shrink = 1.0 / (2.0 * log(N) ** A_exp)
    Y = N * (1.0 - shrink)
    Z1 = float(N) ** 2 * (1.0 - shrink)
    Z2 = float(N) ** 2 * (1.0 - 2.0 * shrink)
    return Y, Z1, Z2


def _one_mod_pairs(moduli, lo: float, hi: float) -> int:
    """Number of pairs (m, p): m in moduli, p prime in (lo, hi], p = 1 (mod m)."""
    ps = segmented_primes(lo, hi, _root_sieve(floor(hi)))  # refuses a span over budget before w
    base = floor(lo) + 1  # the integers lo < n <= hi are base, base + 1, ...
    w = np.zeros(max(0, floor(hi) - base + 1), dtype=bool)
    w[ps - base] = True
    return sum(int(np.count_nonzero(w[(1 - base) % m::m])) for m in moduli)


def theorem1_sum(N: int, A_exp: float) -> int:
    """Number of pairs (a, p): Y <= a <= N, p prime in (Z2, Z1], p = 1 (mod a)."""
    Y, Z1, Z2 = theorem1_thresholds(N, A_exp)
    return _one_mod_pairs(range(max(int(ceil(Y - 1e-9)), 1), N + 1), Z2, Z1)


def theorem2_sum(N: int, delta: float, B: IndexSet) -> int:
    """Number of pairs (b, p): b in B with (1-delta)N < b <= N, p prime in
    ((1-2*delta)N^2, (1-delta)N^2], p = 1 (mod b)."""
    if not (0.0 < delta < 0.5):
        raise InvalidArgumentError("theorem2_sum needs 0 < delta < 1/2")
    N = int(N)
    if N < 2:
        raise InvalidArgumentError("theorem2_sum needs N >= 2")
    lo = (1.0 - 2.0 * delta) * float(N) ** 2
    hi = (1.0 - delta) * float(N) ** 2
    bs = B.members()
    return _one_mod_pairs(bs[(bs > (1.0 - delta) * N) & (bs <= N)].tolist(), lo, hi)
