"""Independent cross-checks of recorded outputs, used by record.py.

Each oracle recomputes a subcommand's answer without gpflab: sympy for
factorizations, primes and totients, numpy brute force for the rest.
Integers must agree exactly; floats within the tolerances of outputs.py,
or tighter where the acceptance tests are tighter.  Subcommands with no
oracle that runs in seconds (``smooth`` at x = 3e8, ``thm4-sum``,
``lambda-ext``, ``divisor-lhs``, ``delta``, ``cond-check``, ``thm1-sum``,
``thm2-sum``) are held to the recorded reference alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np
import sympy

from outputs import ABS_TOL, REL_TOL
from workloads import TMP


class OracleMismatch(AssertionError):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleMismatch(what)


def _close(got, want, what, rel=REL_TOL, abs_tol=ABS_TOL) -> None:
    _expect(math.isclose(float(got), float(want), rel_tol=rel, abs_tol=abs_tol),
            f"{what}: got {got}, oracle {want}")


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _rows(call, outcome) -> list[dict]:
    argv = call["argv"]
    dest = _opt(argv, "--output")
    text = outcome["files"][dest.replace(f"{TMP}/", "")] if dest else outcome["stdout"]
    if _opt(argv, "--format") == "json":
        return [{k: ("" if v is None else str(v)) for k, v in r.items()}
                for r in json.loads(text)]
    return list(csv.DictReader(io.StringIO(text)))


@lru_cache(maxsize=1)
def _gpf_table(limit: int) -> np.ndarray:
    """Largest prime factor of every n <= limit: marking multiples of each
    prime in ascending order leaves the largest prime as the last write."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    gpf = np.zeros(limit + 1, dtype=np.int32)
    gpf[1] = 1
    for p in np.flatnonzero(flags).tolist():
        gpf[p::p] = p
    return gpf


def _gpf_upto(limit: int) -> np.ndarray:
    return _gpf_table(max(limit, 10**7))


def _gpf(n: int) -> int:
    return 1 if n == 1 else max(sympy.factorint(n))


def _primes(x: int) -> np.ndarray:
    return np.array(list(sympy.primerange(2, x + 1)), dtype=np.int64)


def _sets(call) -> tuple[np.ndarray, np.ndarray]:
    """The two index sets a gamma-plus or ledger call draws its pairs from."""
    argv = call["argv"]
    if "--set-a" in argv:
        def load(name):
            return np.array([int(t) for t in call["files"][name].split()], dtype=np.int64)
        return load("a.txt"), load("b.txt")
    n = int(_opt(argv, "--n"))
    if "--dense" in argv:
        side = np.arange(1, n + 1, dtype=np.int64)
        return side, side
    # the sampling that --random-card documents: two draws without replacement
    rng = np.random.default_rng(int(_opt(argv, "--rng-seed", 0)))
    card = int(_opt(argv, "--random-card"))
    a = np.sort(rng.choice(n, size=card, replace=False) + 1)
    b = np.sort(rng.choice(n, size=card, replace=False) + 1)
    return a, b


def _gpf_rows(call, rows):
    for r in rows:
        _expect(int(r["gpf"]) == _gpf(int(r["n"])), f"gpf of {r['n']}")


def _gamma_plus(call, rows):
    a, b = _sets(call)
    prods = (np.outer(a, b) + 1).ravel()
    table = _gpf_upto(int(prods.max()))
    (r,) = rows
    gamma, wa, wb = int(r["gamma_plus"]), int(r["witness_a"]), int(r["witness_b"])
    _expect(gamma == int(table[prods].max()), "gamma_plus against all pairs")
    _expect(wa in set(a.tolist()) and wb in set(b.tolist()), "witness in the sets")
    _expect(_gpf(wa * wb + 1) == gamma, "witness attains gamma_plus")


def _distinct_products(n: int) -> int:
    side = np.arange(1, n + 1, dtype=np.int64)
    return int(np.unique(np.outer(side, side)).size)


def _lv_rows(call, rows):
    for r in rows:
        _expect(int(r["count"]) == _distinct_products(int(r["N"])), f"count at N={r['N']}")


def _smooth(call, rows):
    (r,) = rows
    x, y = int(float(r["x"])), int(float(r["y"]))
    if x > 10**7:
        return False
    table = _gpf_upto(x)
    _expect(int(r["exact"]) == int(np.count_nonzero(table[1 : x + 1] <= y)),
            "smooth count against the gpf table")
    return True


def _rho(call, rows):
    for r in rows:
        u, rho = float(r["u"]), float(r["rho"])
        if u <= 1:
            _expect(rho == 1.0, f"rho({u}) == 1")
        elif u <= 2:
            _close(rho, 1.0 - math.log(u), f"rho({u})", rel=0.0, abs_tol=1e-6)
        _expect(rho <= math.exp(-math.lgamma(u + 1.0)) * (1 + 1e-9), f"rho({u}) bound")


def _prime_powers(x: int) -> tuple[np.ndarray, np.ndarray]:
    ns, ws = [], []
    for p in _primes(x).tolist():
        pk = p
        while pk <= x:
            ns.append(pk)
            ws.append(math.log(p))
            pk *= p
    return np.array(ns, dtype=np.int64), np.array(ws)


def _pi_ap(call, rows):
    (r,) = rows
    x, q, a = int(float(r["x"])), int(r["q"]), int(r["a"])
    ps = _primes(x)
    _expect(int(r["pi_count"]) == int(np.count_nonzero(ps % q == a % q)), "pi(x; q, a)")
    ns, ws = _prime_powers(x)
    _close(r["psi_weight"], math.fsum(ws[ns % q == a % q].tolist()), "psi(x; q, a)")


def _per_q_or_total(call, rows, per_q_value):
    """Compare per-q rows, or the total, against per_q_value(x, q)."""
    for r in rows:
        x = int(float(r["x"]))
        if "q" in r:
            _close(r["value"], per_q_value(x, int(r["q"])), f"q={r['q']}")
        else:
            Q = int(r["Q"])
            qs = range(Q, 2 * Q) if call["argv"][0] == "dyadic-sum" else range(1, Q + 1)
            values = [per_q_value(x, q) for q in qs]
            total = math.fsum(abs(v) for v in values) if call["argv"][0] == "dyadic-sum" \
                else math.fsum(values)
            _close(r["total"], total, f"total at x={x}")


def _bv(call, rows):
    cache = {}

    def value(x, q):
        if q == 1:
            return 0.0
        ps = cache.setdefault(x, _primes(x))
        phi = int(sympy.totient(q))
        res = ps % q
        steps = np.arange(1, ps.size + 1) / phi
        return max(float(np.abs(np.cumsum(res == a) - steps).max())
                   for a in range(q) if math.gcd(a, q) == 1)

    _per_q_or_total(call, rows, value)


def _progression_error(call, rows):
    argv = call["argv"]
    a = int(_opt(argv, "--a", 1))
    use_psi = "--psi" in argv
    cache = {}

    def value(x, q):
        if q == 1 or math.gcd(q, a) != 1:
            return 0.0
        if x not in cache:
            cache[x] = _prime_powers(x) if use_psi else (_primes(x), None)
        ns, ws = cache[x]
        hit = ns % q == a % q
        phi = int(sympy.totient(q))
        if use_psi:
            return math.fsum(ws[hit].tolist()) - math.fsum(ws.tolist()) / phi
        return int(np.count_nonzero(hit)) - ns.size / phi

    _per_q_or_total(call, rows, value)


def _hb_verify(call, rows):
    (r,) = rows
    n = int(r["n"])
    fact = sympy.factorint(n)
    lam = math.log(next(iter(fact))) if len(fact) == 1 else 0.0
    _close(r["von_mangoldt"], lam, "Lambda(n)", rel=0.0, abs_tol=1e-12)
    _close(r["total"], lam, "divisor expansion of Lambda(n)", rel=0.0, abs_tol=1e-9)


def _thm1_search(call, rows):
    (r,) = rows
    n, lo, hi = int(r["N"]), float(r["lo"]), float(r["hi"])
    want = None
    for p in reversed(_primes(int(hi)).tolist()):
        if p >= lo and any((p - 1) % a == 0 and (p - 1) // a <= n for a in range(1, n + 1)):
            want = p
            break
    _expect((r["found"] == "true") == (want is not None), "existence")
    if want is not None:
        a, b = int(r["a"]), int(r["b"])
        _expect(int(r["p"]) == want and a * b + 1 == want and a <= n and b <= n,
                "largest prime of the form a*b + 1")


def _adversarial(call, rows, files):
    (r,) = rows
    n, eps, p = int(r["N"]), float(r["eps"]), int(r["p"])
    _expect(sympy.isprime(p) and 1 / (2 * eps) <= p <= 1 / eps, "p in [1/(2 eps), 1/eps]")
    a = [int(t) for t in files["adv_a.txt"].split()]
    b = [int(t) for t in files["adv_b.txt"].split()]
    _expect(a == list(range(1, n + 1, p)), "A is 1 mod p")
    _expect(b == list(range(p - 1, n + 1, p)), "B is -1 mod p")
    _expect(int(r["card_a"]) == len(a) and int(r["card_b"]) == len(b), "cardinalities")


def _ledger(call, rows):
    a, b = _sets(call)
    (r,) = rows
    _expect(int(r["A_card"]) == a.size and int(r["B_card"]) == b.size, "cardinalities")
    log_e = math.fsum(np.log((np.outer(a, b) + 1).ravel().astype(np.float64)).tolist())
    _close(r["log_E"], log_e, "log_E", rel=1e-6, abs_tol=1e-9)
    _close(float(r["log_E1"]) + float(r["log_E2"]), log_e, "log_E1 + log_E2",
           rel=1e-6, abs_tol=1e-9)


def _sqerr(call, rows):
    argv = call["argv"]
    (r,) = rows
    if "--set-file" in argv:
        card = len(call["files"]["u.txt"].split())
    elif "--dense" in argv:
        card = int(_opt(argv, "--n"))
    else:
        card = int(_opt(argv, "--random-card"))
    _expect(int(r["card"]) == card, "cardinality")


_ORACLES = {
    "gpf": _gpf_rows, "gamma-plus": _gamma_plus, "lv-count": _lv_rows,
    "ford-ratio": _lv_rows, "smooth": _smooth, "rho": _rho, "pi-ap": _pi_ap,
    "bv-sum": _bv, "signed-sum": _progression_error,
    "dyadic-sum": _progression_error, "hb-verify": _hb_verify,
    "thm1-search": _thm1_search, "ledger": _ledger, "sqerr-check": _sqerr,
}


def check(call: dict, outcome: dict) -> str | None:
    """Cross-check one successful outcome; the oracle's name, or None if
    the subcommand has none.  Raises OracleMismatch on disagreement."""
    cmd = call["argv"][0]
    if cmd == "adversarial":
        _adversarial(call, _rows(call, outcome), outcome["files"])
        return cmd
    if cmd == "hb-verify" and "--terms" in call["argv"]:
        return None
    oracle = _ORACLES.get(cmd)
    if oracle is None:
        return None
    try:
        done = oracle(call, _rows(call, outcome))
    except OracleMismatch as exc:
        raise OracleMismatch(f"{' '.join(call['argv'])}: {exc}") from None
    return None if done is False else cmd
