"""Prime counts in arithmetic progressions and discrepancy aggregates.

Each of the five aggregates takes its whole modulus range in one call:

- ``bv_sum`` scans the ranks of the primes up to x in the residue classes
  of each q (``_accel.bv_max_scan``);
- ``signed_sum`` and ``dyadic_abs_sum`` build one weight table over [0, x]
  and read the progression mass of q on the strided slice ``w[a % q::q]``,
  against pi(x)/phi(q) (or psi(x)/phi(q)), with no Moebius side;
- ``theorem4_sum`` gathers the log weights of the windowed products p*m on
  each progression a (mod q) (``_accel.divisor_scatter``) and takes the
  coprime mass by Moebius inversion over the squarefree d | q;
- ``lambda_extension_sum`` counts the pairs (n, t) of a prime power and its
  dyadic block by their product m = n*t on the progression side, and the
  coprime t per block by Moebius inversion over d | q.

fsum-defined masses are summed exactly in fixed point and rounded once
(``_accel``'s ``_fixed``), left-to-right ones keep their order, so every
per_q entry is the exact per-modulus value and the total is the fsum of the
entries or of their absolute values.  Only bv_sum, whose per-modulus rank
scans are long numpy calls, spreads its moduli over threads; the result does
not depend on the thread count.  The tables live only as long as the call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import exp, floor, fsum, isfinite, isqrt, log

import numpy as np

from . import _accel
from .errors import InvalidArgumentError, RangeBudgetError
from .sieve import MAX_SIEVE_LIMIT, PrimeSieve, _higher_powers, segmented_primes


def check_modulus(what: str, name: str, q: int) -> None:
    """Refuse a modulus below 1, or one beyond the int64 that numpy reduces by."""
    if q < 1:
        raise InvalidArgumentError(f"{what} needs {name} >= 1")
    if q >= 1 << 63:
        raise RangeBudgetError(f"{what} needs {name} < 2**63, got {q}")


def _xi_in_sieve(x, sieve, what) -> int:
    if x < 0:
        raise InvalidArgumentError(f"{what} needs x >= 0")
    xi = int(floor(x))
    if xi > sieve.limit:
        raise RangeBudgetError(f"{what} needs x <= sieve.limit ({sieve.limit})")
    return xi


def pi_of(x, sieve: PrimeSieve) -> int:
    """Number of primes <= x."""
    xi = _xi_in_sieve(x, sieve, "pi_of")
    return int(sieve.pi(xi))


def theta_of(x, sieve: PrimeSieve) -> float:
    """Chebyshev theta: sum of log p over primes p <= x."""
    xi = _xi_in_sieve(x, sieve, "theta_of")
    idx = int(sieve.pi(xi))
    if idx == 0:
        return 0.0
    return float(sieve.theta_cumulative()[idx - 1])


def psi_cheb(x, sieve: PrimeSieve) -> float:
    """Chebyshev psi: sum of Lambda(n) over n <= x."""
    xi = _xi_in_sieve(x, sieve, "psi_cheb")
    return theta_of(xi, sieve) + fsum(_higher_powers(xi, sieve)[2].tolist())


def _prime_powers(x: int, sieve: PrimeSieve) -> tuple[np.ndarray, np.ndarray]:
    """Prime powers n <= x, each once, with weights log p, in no
    particular order."""
    ps = sieve.primes[:sieve.pi(x)]
    pk, _, lp = _higher_powers(x, sieve)
    return np.concatenate([ps, pk]), np.concatenate([np.log(ps.astype(np.float64)), lp])


def pi_ap(x, q: int, a: int, sieve: PrimeSieve) -> int:
    """Number of primes p <= x with p = a (mod q)."""
    check_modulus("pi_ap", "q", q)
    xi = _xi_in_sieve(x, sieve, "pi_ap")
    ps = sieve.primes[:sieve.pi(xi)]
    return int(np.count_nonzero(ps % q == a % q))


def psi_ap(x, q: int, a: int, sieve: PrimeSieve) -> float:
    """Sum of Lambda(n) over n <= x with n = a (mod q)."""
    check_modulus("psi_ap", "q", q)
    xi = _xi_in_sieve(x, sieve, "psi_ap")
    ps = sieve.primes[:sieve.pi(xi)]
    pk, _, lp = _higher_powers(xi, sieve)
    # the logs of the class's primes only; fsum does not depend on the order
    hits = np.log(ps[ps % q == a % q].astype(np.float64))
    return fsum(hits.tolist() + lp[pk % q == a % q].tolist())


def error_term(count: int, x, q: int, sieve: PrimeSieve) -> float:
    """pi(x; q, a) - pi(x)/phi(q) from count = pi_ap(x, q, a), gcd(a, q) == 1."""
    check_modulus("error_term", "q", q)
    return count - pi_of(x, sieve) / int(_phi_of([q], sieve)[0])


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    """Per-modulus discrepancies plus their aggregate.

    values[i] is the discrepancy of modulus qs[i]; total is their sum, or the
    sum of their absolute values for the dyadic/windowed aggregates;
    normalized is total/x.
    """

    x: float
    qs: np.ndarray
    values: np.ndarray
    total: float
    normalized: float

    @property
    def per_q(self) -> list[tuple[int, float]]:
        return list(zip(self.qs.tolist(), self.values.tolist()))


# ---------------------------------------------------------------------------
# helpers of the aggregates


def _ordered_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _check(what, Q, x, x_min=1, a=None, P=None) -> None:
    check_modulus(what, "Q", Q)
    if Q > MAX_SIEVE_LIMIT:  # every aggregate lists its moduli one by one
        raise RangeBudgetError(f"{what} needs Q <= {MAX_SIEVE_LIMIT}")
    if a == 0:
        raise InvalidArgumentError(f"{what} needs a != 0")
    if P is not None and (P[0] < 1 or P[1] < P[0]):
        raise InvalidArgumentError(f"{what} needs 1 <= P1 <= P2")
    if x < x_min:
        raise InvalidArgumentError(f"{what} needs x >= {x_min}")


def _mobius_phi(lo: int, hi: int, sieve: PrimeSieve) -> tuple[np.ndarray, np.ndarray]:
    """Moebius mu and Euler phi of every n in [lo, hi), 1 <= lo < hi."""
    root = isqrt(hi - 1)
    if root > sieve.limit:
        raise RangeBudgetError(f"moduli up to {hi - 1} need a sieve limit of at least {root}")
    rem = np.arange(lo, hi, dtype=np.int64)
    phi = rem.copy()
    words = phi.view(np.uint64)
    mu = np.ones(rem.size, dtype=np.int64)
    for p, k, s in _accel._strike(rem, lo, sieve.primes):
        if k == 1:
            # phi holds n times (1 - 1/r) over the primes r < p of n, a
            # multiple of p, so phi * (p - 1)/p is one exact wrapping multiply
            t = words[s]  # a view
            if p > 2:
                t *= (p - 1) * pow(p, -1, 1 << 64) % (1 << 64)
            else:
                t >>= 1
            mu[s] = -mu[s]
        elif k == 2:
            mu[s] = 0
    big = rem > 1  # the one prime factor above sqrt(hi) left over
    phi[big] -= phi[big] // rem[big]
    mu[big] = -mu[big]
    return mu, phi


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sum(counts) items: the owner i of each and its index j < counts[i]."""
    owner = np.repeat(np.arange(counts.size), counts)
    j = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    return owner, j


def _multiples(ps: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, q) with ps[i] | q and lo <= q < hi, stably sorted by q."""
    first = (lo - 1) // ps + 1
    i, k = _expand((hi - 1) // ps - first + 1)
    q = (first[i] + k) * ps[i]
    order = np.argsort(q, kind="stable")
    return i[order], q[order]


def _expand_blocks(counts: np.ndarray):
    """``_expand(counts)`` in order, at most ``_accel._BLOCK`` items at a time."""
    end = np.cumsum(counts)
    for k0 in range(0, int(end[-1]) if end.size else 0, _accel._BLOCK):
        k = np.arange(k0, min(k0 + _accel._BLOCK, int(end[-1])))
        i = np.searchsorted(end, k, side="right")
        yield i, k - end[i] + counts[i]


def _moebius_blocks(D: int, Q: int, width: int, sieve: PrimeSieve):
    """The pairs (d, q) of a squarefree d <= D (D >= 1) and a q in [Q, 2Q)
    that d divides, grouped by q, in blocks of about ``_accel._BLOCK //
    width`` pairs, width being the array entries the caller makes per pair:
    (r0, r1, d, mu(d), bounds) for Q + r0 <= q < Q + r1, the pairs of
    q = Q + r0 + r at bounds[r]:bounds[r + 1] (never empty: d = 1)."""
    mu, _ = _mobius_phi(1, min(D, 2 * Q - 1) + 1, sieve)  # no larger d divides a q
    ds = np.flatnonzero(mu) + 1
    per_q = int(((2 * Q - 1) // ds - (Q - 1) // ds).sum()) // Q + 1
    step = max(1, _accel._BLOCK // (width * per_q))
    span = step * max(1, _accel._BLOCK // (per_q * step))  # listed at once: ~_BLOCK pairs
    small = ds[ds <= span]  # each has a multiple in every span
    for s0 in range(0, Q, span):
        lo, hi = Q + s0, Q + min(Q, s0 + span)
        d_of, d_q = _multiples(small, lo, hi)
        d_all = small[d_of]
        if mu.size > span:  # a larger d divides at most one q here, q = k*d with
            # k <= (hi - 1) // (span + 1): listed by k, a span costs about its own pairs
            k_of, k_q = _multiples(np.arange(1, (hi - 1) // (span + 1) + 1), lo, hi)
            big = k_q // (k_of + 1)
            keep = (big > span) & (big <= mu.size)
            keep[keep] = mu[big[keep] - 1] != 0
            q_all = np.concatenate([d_q, k_q[keep]])
            order = np.argsort(q_all, kind="stable")
            d_all, d_q = np.concatenate([d_all, big[keep]])[order], q_all[order]
        for r0 in range(s0, min(Q, s0 + span), step):
            r1 = min(Q, r0 + step)
            f0, f1 = np.searchsorted(d_q, (Q + r0, Q + r1))
            d = d_all[f0:f1]
            yield r0, r1, d, mu[d - 1], np.searchsorted(d_q[f0:f1], np.arange(Q + r0, Q + r1 + 1))


# ---------------------------------------------------------------------------
# aggregates


def _report(x, qs, errs, abs_total=True) -> DiscrepancyReport:
    errs = np.asarray(errs, dtype=np.float64)
    total = fsum((np.abs(errs) if abs_total else errs).tolist())
    return DiscrepancyReport(float(x), np.asarray(qs, dtype=np.int64), errs,
                             total, total / float(x))


def bv_sum(x, Q: int, sieve: PrimeSieve, threads: int = 1) -> DiscrepancyReport:
    """Sum over q <= Q of the maximal progression discrepancy

        max_{y <= x} max_{a: gcd(a,q)=1} |pi(y; q, a) - pi(y)/phi(q)|.
    """
    _check("bv_sum", Q, x)
    xi = _xi_in_sieve(x, sieve, "bv_sum")
    ps = sieve.primes[:sieve.pi(xi)].astype(np.uint32)  # below the 1e8 cap
    qs = list(range(1, Q + 1))
    # ps - ps // q * q is ps % q at a quarter of the cost: numpy's floor
    # division by a scalar multiplies (libdivide), its remainder divides
    devs = _ordered_map(lambda q: _accel.bv_max_scan(ps - ps // q * q, q) if q > 1 else 0.0,
                        qs, threads)
    return _report(x, qs, devs, abs_total=False)


def _progression_errors(xi: int, qs: np.ndarray, res: np.ndarray, sieve: PrimeSieve,
                        use_psi: bool) -> np.ndarray:
    """pi(x;q,a) - pi(x)/phi(q), or the psi analogue, for each q in qs and
    its residue a mod q in res."""
    phi = _phi_of(qs, sieve)  # refuses moduli beyond the sieve before the O(Q) loop
    if use_psi:
        ns, ws = _prime_powers(xi, sieve)
        reduce, full = (lambda s: fsum(s[s != 0].tolist())), psi_cheb(xi, sieve)
    else:
        ns, ws = sieve.primes[:sieve.pi(xi)], True
        reduce, full = np.count_nonzero, ns.size
    w = np.zeros(xi + 1, dtype=np.float64 if use_psi else bool)
    w[ns] = ws
    mass = np.asarray([reduce(w[r::q]) for r, q in zip(res.tolist(), qs.tolist())])
    return np.where(qs == 1, 0.0, mass - full / phi)


def _phi_of(qs, sieve: PrimeSieve) -> np.ndarray:
    qs = np.asarray(qs, dtype=np.int64)
    if not qs.size:
        return np.empty(0, dtype=np.int64)
    _, phi = _mobius_phi(int(qs[0]), int(qs[-1]) + 1, sieve)
    return phi[qs - qs[0]]


def _coprime_moduli(a: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The moduli q in [lo, hi) coprime to a, and a mod each, for any int a
    and 1 <= lo <= hi <= 2**32: Horner over the 31-bit digits of |a|, all
    moduli at once; as r < q < 2**32, each step r * 2**31 + digit < 2**63."""
    q = np.arange(lo, hi, dtype=np.int64)
    r = np.zeros(q.size, dtype=np.int64)
    m = abs(a)
    for shift in range((m.bit_length() - 1) // 31 * 31, -1, -31):
        r <<= 31
        r += (m >> shift) & 0x7FFFFFFF
        np.remainder(r, q, out=r)
    if a < 0:
        r = (q - r) % q
    keep = np.gcd(r, q) == 1
    return q[keep], r[keep]


def signed_sum(x, Q: int, a: int, sieve: PrimeSieve) -> DiscrepancyReport:
    """Signed sum over q <= Q, gcd(q, a) == 1, of pi(x;q,a) - pi(x)/phi(q)."""
    _check("signed_sum", Q, x)
    xi = _xi_in_sieve(x, sieve, "signed_sum")
    qs, res = _coprime_moduli(a, 1, Q + 1)
    errs = _progression_errors(xi, qs, res, sieve, False)
    return _report(x, qs, errs, abs_total=False)


def dyadic_abs_sum(x, Q: int, a: int, sieve: PrimeSieve,
                   use_psi: bool = False) -> DiscrepancyReport:
    """Sum over Q <= q < 2Q, gcd(q, a) == 1, of the absolute progression error
    at y = x, in the prime-counting or Chebyshev-psi normalization."""
    _check("dyadic_abs_sum", Q, x)
    xi = _xi_in_sieve(x, sieve, "dyadic_abs_sum")
    qs, res = _coprime_moduli(a, Q, 2 * Q)
    errs = _progression_errors(xi, qs, res, sieve, use_psi)
    return _report(x, qs, errs)


def theorem4_sum(x, Q: int, P1, P2, a: int, sieve: PrimeSieve) -> DiscrepancyReport:
    """Windowed products p*m <= x with P1 < p <= P2: per modulus q ~ Q,
    the absolute difference between the log-weight mass on the progression
    a (mod q) and its coprime average, summed over q.

    The progression side adds the weight at s == a last; the average side
    sums theta-window masses over m coprime to q.  Needs |a| < 2**63."""
    _check("theorem4_sum", Q, x, 2, a, (P1, P2))
    xi = _xi_in_sieve(x, sieve, "theorem4_sum")
    if abs(a) >= 1 << 63:
        raise RangeBudgetError(f"theorem4_sum needs |a| < 2**63, got {a}")
    p2c = min(float(P2), float(xi))
    # primes strictly above P1: the first prime > floor(P1) already exceeds P1;
    # past p2c (P1 may be inf) the window is empty either way
    i = int(sieve.pi(floor(min(P1, p2c))))
    j = int(sieve.pi(floor(p2c)))
    window = sieve.primes[i:j]
    qs, _ = _coprime_moduli(a, Q, 2 * Q)
    if not window.size:  # no product p*m: every mass is 0
        return _report(x, qs, np.zeros(qs.size))
    phi = _phi_of(qs, sieve)  # refuses moduli beyond the sieve before the O(Q) gather

    # math.log: np.log is an ulp off on a few primes
    logs = np.fromiter(map(log, window.tolist()), np.float64, window.size)
    wlog = np.zeros(xi + 1, dtype=np.float64)
    for own, j in _expand_blocks(xi // window):  # add.at: each n's terms in ascending p
        np.add.at(wlog, (j + 1) * window[own], logs[own])
    acc = _accel.divisor_scatter(wlog, a, Q, 2 * Q)
    exact_hit = float(wlog[a]) if 2 <= a <= xi else 0.0
    del wlog  # the largest table; the coprime side does not read it
    rows = qs - Q
    a_side = acc[rows] + exact_hit

    m_max = xi // (int(floor(P1)) + 1)
    caps = np.minimum(xi // np.arange(1, m_max + 1, dtype=np.int64), int(floor(p2c)))
    idxs = sieve.pi(caps)
    theta_cum = sieve.theta_cumulative()
    theta_p1 = float(theta_cum[i - 1]) if i > 0 else 0.0
    # theta(cap_m) - theta(P1), zero when no window prime fits under the cap
    tvals = np.where(idxs > i, theta_cum[np.maximum(idxs - 1, 0)] - theta_p1, 0.0)

    # per q in [Q, 2Q): the fsum of tvals over m coprime to q and, for each
    # window prime p | q, the count of m <= xi // p coprime to q, both by
    # Moebius over the squarefree d | q (d <= m_max, as larger d divide no m)
    T, base = _accel._fixed(tvals)
    D = min(m_max, 2 * Q - 1)
    S = np.zeros((D, T.shape[1]), dtype=np.int64)  # row d - 1: T over m = 0 (mod d)
    for own, j in _expand_blocks(m_max // np.arange(1, D + 1)):  # own ascends, missing no d
        first = np.searchsorted(own, np.arange(own[0], own[-1] + 1))
        S[own[0]:own[-1] + 1] += np.add.reduceat(T[(j + 1) * (own + 1) - 1], first, axis=0)
    mass = np.zeros((Q, T.shape[1]), dtype=np.int64)
    corr = np.zeros(Q, dtype=np.float64)
    owner, pq = _multiples(window, Q, 2 * Q)  # the pairs (p, q), by q and then ascending p
    for r0, r1, d, mu, bounds in _moebius_blocks(m_max, Q, T.shape[1], sieve):
        mass[r0:r1] = np.add.reduceat(mu[:, None] * S[d - 1], bounds[:-1], axis=0)
        e0, e1 = np.searchsorted(pq, (Q + r0, Q + r1))
        r, p = pq[e0:e1] - Q - r0, window[owner[e0:e1]]  # join (p, q) to the (d, q) of its q
        nd = np.diff(bounds)[r]
        e, j = _expand(nd)
        f = bounds[r[e]] + j
        cnt = np.add.reduceat(mu[f] * (xi // p[e] // d[f]), np.cumsum(nd) - nd)
        # bincount adds in index order: each q's terms go in ascending p
        corr[r0:r1] = np.bincount(r, logs[owner[e0:e1]] * cnt, minlength=r1 - r0)

    errs = a_side - (_accel._round_fixed(mass[rows], base) - corr[rows]) / phi
    return _report(x, qs, errs)


def default_rough_z(x) -> float:
    """exp(log x / (log log x)^2), the canonical roughness threshold."""
    if not isfinite(x):
        raise InvalidArgumentError(f"roughness threshold needs a finite x, got {x}")
    if x <= 2.8:
        raise InvalidArgumentError("roughness threshold needs x > e")
    ll = log(log(x))  # above 0.029 for x > 2.8
    try:
        return exp(log(x) / (ll * ll))
    except OverflowError:  # x just above 2.8: the exponent passes 709.78
        raise RangeBudgetError(f"roughness threshold overflows a float at x = {x}") from None


def _rough_stars(P1, p2c, z, xi, sieve) -> tuple[np.ndarray, ...]:
    """Prime powers n in (P1, p2c] with prime p >= z and a nonempty block
    (x/(2n), x/n]: (n, p, log p), by n."""
    ps = segmented_primes(floor(P1), floor(p2c), sieve) if p2c > P1 else np.empty(0, np.int64)
    ps = ps[(ps > P1) & (ps >= z)]
    pk, pp, lp = _higher_powers(int(floor(p2c)), sieve)
    keep = (pp >= z) & (pk > P1)
    n = np.concatenate([ps, pk[keep]])
    order = np.argsort(n, kind="stable")
    order = order[xi // n[order] > xi // (2 * n[order])]  # drop empty blocks
    w = np.concatenate([np.array([log(p) for p in ps.tolist()]), lp[keep]])
    return n[order], np.concatenate([ps, pp[keep]])[order], w[order]


def lambda_extension_sum(x, Q: int, P1, P2, a: int, z,
                         sieve: PrimeSieve) -> DiscrepancyReport:
    """Von Mangoldt mass on prime powers n in (P1, P2] with all prime factors
    >= z, paired with the dyadic block t in (x/(2n), x/n]: per modulus q ~ Q,
    |sum over n*t = a (mod q) - (1/phi(q)) * sum over gcd(n*t, q) = 1|,
    summed over q coprime to a.

    The pairs (n, t) are the products m = n*t in (x/2, x]: the progression side
    counts them on the strided m = a (mod q), the coprime side counts coprime
    t per block (x/(2n), x/n] by Moebius over d | q, once per block."""
    _check("lambda_extension_sum", Q, x, 2, a, (P1, P2))
    xi = int(floor(x))
    p2c = min(float(P2), float(xi))
    q_arr, res = _coprime_moduli(a, Q, 2 * Q)
    phi = _phi_of(q_arr, sieve)

    n, pn, w = _rough_stars(P1, p2c, z, xi, sieve)
    lo, hi = xi // (2 * n), xi // n
    if not n.size or not q_arr.size:
        return _report(x, q_arr, np.zeros(q_arr.size))
    span = hi - lo

    # term table: row star_off[s] + c is log p * c, the term of star s at count c
    star, c = _expand(span + 1)
    star_off = np.cumsum(span + 1) - (span + 1)
    terms, base = _accel._fixed(w[star] * c)
    # stars sharing a block (lo, hi) share their coprime count; group them
    blocks, block_of = np.unique(lo * (xi + 1) + hi, return_inverse=True)
    b_lo, b_hi = blocks // (xi + 1), blocks % (xi + 1)
    b_off = np.cumsum(b_hi - b_lo + 1) - (b_hi - b_lo + 1)
    block_terms = np.zeros((int(b_off[-1] + b_hi[-1] - b_lo[-1] + 1), terms.shape[1]),
                           dtype=np.int64)
    np.add.at(block_terms, b_off[block_of[star]] + c, terms)

    # progression side: products m = n*t in (x/2, x], grouped by m
    star_t, t = _expand(span)
    m_of_pair = n[star_t] * (lo[star_t] + 1 + t)
    order = np.argsort(m_of_pair, kind="stable")
    m_lo = xi // 2 + 1
    m_ptr = np.searchsorted(m_of_pair[order], np.arange(m_lo, xi + 2))
    star_of_m = star_t[order]
    first = m_lo + (res - m_lo) % q_arr
    row, k = _expand(np.where(first <= xi, (xi - first) // q_arr + 1, 0))
    m = first[row] + k * q_arr[row] - m_lo
    row2, k2 = _expand(m_ptr[m + 1] - m_ptr[m])
    key = row[row2] * n.size + star_of_m[m_ptr[m][row2] + k2]
    key, cnt = np.unique(key, return_counts=True)
    prog = np.zeros((q_arr.size, terms.shape[1]), dtype=np.int64)
    np.add.at(prog, key // n.size, terms[star_off[key % n.size] + cnt])

    # coprime side, over all q in [Q, 2Q) in chunks: block sums, less the
    # stars whose prime divides q
    cop = np.zeros((Q, terms.shape[1]), dtype=np.int64)
    ex_star, ex_q = _multiples(pn, Q, 2 * Q)  # the stars whose prime divides q
    for r0, r1, d, mu, bounds in _moebius_blocks(int(b_hi.max()), Q, blocks.size, sieve):
        d, mu = d[:, None], mu[:, None]
        cnt = np.add.reduceat(mu * (b_hi // d - b_lo // d), bounds[:-1], axis=0)
        cop[r0:r1] = block_terms[b_off + cnt].sum(axis=1)
        e0, e1 = np.searchsorted(ex_q, (Q + r0, Q + r1))
        er, es = ex_q[e0:e1] - Q, ex_star[e0:e1]
        np.subtract.at(cop, er, terms[star_off[es] + cnt[er - r0, block_of[es]]])

    s2 = _accel._round_fixed(cop[q_arr - Q], base) / phi
    errs = np.where(q_arr == 1, 0.0, _accel._round_fixed(prog, base) - s2)
    return _report(x, q_arr, errs)


def trivial_bound_ratio(report: DiscrepancyReport) -> float:
    """report.total divided by the trivial bound shape x * log(2x)."""
    return report.total / (report.x * log(2.0 * report.x))
