"""Ledger of log-mass over pairwise products: splits the total logarithmic
mass of {a*b + 1} into small-prime and large-prime contributions via residue
counting, checks the quadratic residue-concentration inequality, and reports
the exponent implied by the large-prime mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, log

import numpy as np

from . import _accel
from .errors import InvalidArgumentError, RangeBudgetError
from .shifted import IndexSet, _product_table
from .sieve import PrimeSieve, _higher_powers

# square_errors_check makes one bincount of length m per prime power m <= N,
# ledger_report one log per pair: --n 2e5 --dense and 1e8 pairs still run
SQERR_N_BUDGET = 200_000
LEDGER_PAIR_BUDGET = 100_000_000


def _members_checked(U: IndexSet, N: int, name: str) -> np.ndarray:
    arr = U.members()
    if arr.size and arr[-1] > N:
        raise InvalidArgumentError(f"{name} has elements above N={N}")
    return arr


def log_E(A: IndexSet, B: IndexSet) -> float:
    """log of the product of (a*b + 1) over all pairs, each a*b + 1 formed in
    float64: above 2**53 a term is the log of the rounded product.  Each row
    a is summed exactly and rounded once, as fsum would, then fsum over the
    rows.  The rows go in blocks of about ``_BLOCK`` pairs, one log per block."""
    if len(A) == 0 or len(B) == 0:
        raise InvalidArgumentError("log_E needs nonempty sets")
    a = A.members().astype(np.float64)
    bs = B.members().astype(np.float64)
    # members lie in [1, 1e8], so each term lies in [log 2, log(1e16 + 1)],
    # within [0.5, 37): a whole multiple of 2**-53, so k is exact and below
    # 2**59.  Its 32-bit limbs sum below 2**32 * |B| < 2**63, and a row's
    # total stays below 37 * |B| < 2**32 for any |B| <= 1e8, as round_limbs needs
    limbs = np.empty((a.size, 2), dtype=np.int64)
    step = max(1, _BLOCK // bs.size)
    for i in range(0, a.size, step):
        k = (np.log(a[i:i + step, None] * bs + 1.0) * 2.0**53).astype(np.int64)
        limbs[i:i + step, 0] = (k & 0xFFFFFFFF).sum(axis=1)
        limbs[i:i + step, 1] = (k >> 32).sum(axis=1)
    return fsum(_accel.round_limbs(limbs[:, 0], limbs[:, 1]).tolist())


@dataclass(frozen=True)
class LogSplitResult:
    """Small-prime log-mass, split at prime powers <= N versus above."""

    total: float
    sigma1: float
    sigma2: float


def _moduli(N: int, cap: int, sieve: PrimeSieve) -> list[tuple[int, int]]:
    """(p, m) with p prime <= N and m = p^k <= cap, in no particular order."""
    if sieve.limit < N:
        raise RangeBudgetError(f"sieve limit {sieve.limit} below N={N}")
    ps = sieve.primes[:sieve.pi(N)].tolist()
    pk, pp, _ = _higher_powers(cap, sieve)
    return list(zip(ps + pp.tolist(), ps + pk.tolist()))


# most entries of log_E1's product histogram (64 MiB of uint16); a larger
# table takes the residue-class route.  An entry r[v] counts the pairs with
# ab = v - 1, one per divisor a, so r[v] <= tau(v - 1) <= 600 below 2^25
# (tau(32432400) = 600 is the largest): uint16 cannot overflow
_HIST_CAP = 1 << 25

# (element, modulus) entries per block of moduli in log_E1, and pairs per
# block of rows in log_E: their temporaries stay near 512 KiB, while one
# batch over all moduli raised the peak RSS of ``ledger --n 1000`` by 15 MiB
_BLOCK = 1 << 16


def _neg_inverse(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """-h^{-1} mod m for each coprime pair with 0 < h < m: one extended
    Euclid over all pairs, each leaving once its remainder reaches 0.  The
    Bezout coefficients alternate in sign and stay below m in size, so
    nothing overflows for m < 2^63."""
    out = np.empty_like(h)
    idx = np.arange(h.size)
    r0, r1 = m, h
    t0, t1 = np.zeros_like(h), np.ones_like(h)
    while idx.size:
        q, r = np.divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
        done = r1 == 0
        if done.any():
            out[idx[done]] = t0[done]  # r0 == gcd == 1, so h * t0 = 1 (mod m)
            live = ~done
            idx, r0, r1, t0, t1 = idx[live], r0[live], r1[live], t0[live], t1[live]
    return (-out) % m


def _classes(arr, ms, off):
    """Sorted keys off[j] + (v mod ms[j]) over v in arr and the moduli of a
    block, with their counts."""
    return np.unique((arr % ms[:, None] + off[:, None]).ravel(), return_counts=True)


def _pair_counts(arr_a, arr_b, bits_b, ps, ms, N) -> np.ndarray:
    """Number of pairs (a, b) with m | ab + 1, for each modulus of a block
    whose moduli are all <= N or all > N: b must fall in the class
    -h^{-1} mod m of each class h of A."""
    large = ms[0] > N
    if large:  # each a is its own class
        j = np.repeat(np.arange(ms.size), arr_a.size)
        h, cnt_a = np.tile(arr_a, ms.size), np.ones(j.size, dtype=np.int64)
    else:
        off = np.cumsum(ms) - ms  # the classes of modulus j are off[j] + h
        keys, cnt_a = _classes(arr_a, ms, off)
        j = np.searchsorted(off, keys, side="right") - 1
        h = keys - off[j]
    keep = h % ps[j] != 0  # a not invertible mod p^k: ab = -1 impossible
    j, h, cnt_a = j[keep], h[keep], cnt_a[keep]
    target = _neg_inverse(h, ms[j])
    if large:  # and so is each b, read from its bit mask
        cnt_b = (target < bits_b.size) & bits_b[np.minimum(target, bits_b.size - 1)]
    else:
        keys_b, per_b = _classes(arr_b, ms, off)
        want = target + off[j]
        at = np.minimum(np.searchsorted(keys_b, want), keys_b.size - 1)
        cnt_b = np.where(keys_b[at] == want, per_b[at], 0)
    pairs = np.zeros(ms.size, dtype=np.int64)
    np.add.at(pairs, j, cnt_a * cnt_b)
    return pairs


def log_E1(A: IndexSet, B: IndexSet, N: int, sieve: PrimeSieve) -> LogSplitResult:
    """Log-mass of the pair products carried by primes p <= N.

    For each prime power m = p^k (up to N^2 + 1, past which no product
    reaches), n pairs have m | ab+1, and m adds n log p to sigma1 when
    m <= N, to sigma2 otherwise.  On sets dense enough for gamma_plus's
    byte mask, n is a strided sum of the histogram r[v] of the products
    ab + 1 = v.  Otherwise pairs are counted through residue classes: b
    must fall in the class -a^{-1} mod m.  The moduli then go in blocks of
    about ``_BLOCK`` (element, modulus) entries, the moduli <= N apart from
    the rest.  Every n is exact and fsum rounds correctly in any order, so
    both routes give the same bits.
    """
    if N < 1:
        raise InvalidArgumentError("log_E1 needs N >= 1")
    arr_a = _members_checked(A, N, "A")
    arr_b = _members_checked(B, N, "B")
    if arr_a.size == 0 or arr_b.size == 0:
        raise InvalidArgumentError("log_E1 needs nonempty sets")
    mods = _moduli(N, N * N + 1, sieve)
    parts_small = []
    parts_large = []
    r = _product_table(arr_a, arr_b, counts=True, cap=_HIST_CAP)
    if r is not None:
        for p, m in mods:
            n = int(r[::m].sum(dtype=np.int64))
            if n:
                (parts_small if m <= N else parts_large).append(n * log(p))
    else:
        for small, parts in ((True, parts_small), (False, parts_large)):
            group = [pm for pm in mods if (pm[1] <= N) == small]
            step = max(1, _BLOCK // (max(arr_a.size, arr_b.size) if small else arr_a.size))
            for i in range(0, len(group), step):
                ps, ms = (np.array(c, dtype=np.int64) for c in zip(*group[i:i + step]))
                pairs = _pair_counts(arr_a, arr_b, B.bits, ps, ms, N)
                parts += [n * log(p) for p, n in zip(ps.tolist(), pairs.tolist()) if n]
    s1 = fsum(parts_small)
    s2 = fsum(parts_large)
    return LogSplitResult(s1 + s2, s1, s2)


def log_E2(A: IndexSet, B: IndexSet, N: int, sieve: PrimeSieve) -> float:
    """Log-mass of the pair products carried by primes above N."""
    return log_E(A, B) - log_E1(A, B, N, sieve).total


@dataclass(frozen=True)
class SquareErrorsResult:
    lhs: float
    rhs: float
    holds: bool


def check_sqerr_n(N: int) -> None:
    """Refuse a square_errors_check with N above SQERR_N_BUDGET."""
    if N > SQERR_N_BUDGET:
        raise RangeBudgetError(
            f"square_errors_check budget is N <= {SQERR_N_BUDGET}, got {N}")


def square_errors_check(U: IndexSet, N: int, sieve: PrimeSieve) -> SquareErrorsResult:
    """Residue concentration inequality for a set U inside [1, N]:

        sum_{p^k <= N} log p * sum_h r(U, h, p^k)^2
            <= |U| (|U| - 1 + pi(N)) log N.
    """
    if N < 1:
        raise InvalidArgumentError("square_errors_check needs N >= 1")
    check_sqerr_n(N)
    arr = _members_checked(U, N, "U")
    parts = []
    if arr.size:
        for p, m in _moduli(N, N, sieve):
            cnt = np.bincount(arr % m, minlength=m).astype(np.int64)
            parts.append(float(np.sum(cnt * cnt)) * log(p))
    lhs = fsum(parts)
    pi_n = int(sieve.pi(N))
    card = len(U)
    rhs = card * (card - 1 + pi_n) * log(N) if N > 1 else 0.0
    return SquareErrorsResult(lhs, rhs, lhs <= rhs * (1.0 + 1e-12) + 1e-12)


@dataclass(frozen=True)
class LedgerReport:
    """Full log-mass accounting for a pair of sets inside [1, N]."""

    N: int
    A_card: int
    B_card: int
    log_E: float
    log_E1: float
    log_E2: float
    sigma1: float
    sigma2: float
    lemma72_lhs: float
    lemma72_rhs: float
    implied_exponent: float


def check_ledger_size(A: IndexSet, B: IndexSet, N: int) -> None:
    """Refuse a ledger_report over either budget."""
    check_sqerr_n(N)
    pairs = len(A) * len(B)
    if pairs > LEDGER_PAIR_BUDGET:
        raise RangeBudgetError(
            f"ledger_report budget is |A|*|B| <= {LEDGER_PAIR_BUDGET}, got {pairs}")


def ledger_report(A: IndexSet, B: IndexSet, N: int, sieve: PrimeSieve) -> LedgerReport:
    """Assemble the complete ledger: total mass, small/large split, the
    tighter of the two residue-concentration checks, and the exponent that
    the large-prime mass forces on the greatest prime factor."""
    if N < 2:
        raise InvalidArgumentError("ledger_report needs N >= 2")
    check_ledger_size(A, B, N)
    total = log_E(A, B)
    split = log_E1(A, B, N, sieve)
    e2 = total - split.total
    sq_a = square_errors_check(A, N, sieve)
    sq_b = sq_a if np.array_equal(A.bits, B.bits) else square_errors_check(B, N, sieve)
    tight = sq_a if (sq_a.rhs - sq_a.lhs) <= (sq_b.rhs - sq_b.lhs) else sq_b
    implied = 1.0 + e2 / (len(B) * N * log(N))
    return LedgerReport(N, len(A), len(B), total, split.total, e2,
                        split.sigma1, split.sigma2, tight.lhs, tight.rhs, implied)
