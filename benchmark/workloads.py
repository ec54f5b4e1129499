"""The three benchmark workloads, generated from a workload seed.

Every workload is a closed loop with one client: the pass makes its CLI
calls one after another, in-process, through ``gpflab.cli.main(argv)``.
No call asks for more than two threads.

The seed picks residues ``a``, ``--rng-seed`` values for random sets, the
contents of set files, and the order of the calls in small-calls.  Sizes
are fixed, so the work of a pass does not depend on the seed.  Reference
outputs are recorded for workload seeds ``0 .. N_SEEDS - 1`` only; the
benchmark runs ``--seed n`` as workload seed ``n % N_SEEDS``.

Why each workload exists:

progressions
    The ``ap`` aggregates.  ``ap``'s per-modulus reduction and the
    ``_accel.bv_max_scan`` / ``divisor_scatter`` kernels do nearly all of
    the work and the sieve build is small.  It exercises the progression
    engine and bypasses the tau/gpf paths and ``cli``.  The residues are
    primes above every modulus range, so the gcd filter keeps every modulus
    whatever the seed.
factor-tables
    Walks of the smallest-prime-factor table and per-value factorization.
    The work lands in ``sieve``, ``_accel.tau_table`` / ``smooth_dfs_count``,
    ``shifted``, ``products`` and ``sequences``, while ``ap`` does none.  The
    sieve is built once, large, and read heavily.
small-calls
    Tiny calls cycling through all 22 subcommands at the sizes of the CLI
    tests, in both output formats, with some ``--output`` files and some
    expected-error calls.  The per-call cost is argument parsing, many
    small ``build_sieve`` calls and output; the kernels are nearly idle.
    A sieve or table cache, or a faster parser, shows here, and a kernel
    change should show nothing.

small-calls also carries contract probes: inputs that must end with exit
1 or 2 and a one-line error.  At the commit that introduced this benchmark
each of them fails (two answer for a truncated value with exit 0, four
raise a traceback); their outcome is reported as ``check.fail_ratio``.
Two known defects are not probed: ``adversarial --eps 1e-300`` never
returns, so it cannot be bounded in-process, and the ``gpf`` probe at
2^53 + 1 needs a sieve of about 9.5e7 entries, over 1 GB, which would swamp
``peak_rss_mb``.
"""

from __future__ import annotations

import random

N_SEEDS = 32

WORKLOADS = ("progressions", "factor-tables", "small-calls")

# small-calls repeats its distinct calls this many times per pass, so a pass
# holds well over 200 timed calls and call_p95_ms has ten samples beyond it
SMALL_CYCLES = 5

OK, ERROR, PROBE = "ok", "error", "probe"

# calls write their --output files and read their set files under this
# placeholder, which the pass replaces with its scratch directory
TMP = "{tmp}"

# primes above 2 * 19071, the largest modulus any progressions call uses
_BIG_RESIDUES = (40009, 40013, 40031, 40037, 40039, 40063, 40087, 40093,
                 40099, 40111, 40123, 40127, 40129, 40151, 40153, 40163)


def _call(kind: str, *argv, files=None) -> dict:
    return {"kind": kind, "argv": [str(t) for t in argv], "files": files or {}}


def _progressions(rng: random.Random) -> list[dict]:
    def a():
        return rng.choice(_BIG_RESIDUES)

    return [
        _call(OK, "bv-sum", "--x", "3e5", "--Q", 100, "--threads", 1),
        _call(OK, "bv-sum", "--x", "3e5", "--Q", 100, "--threads", 2),
        _call(OK, "thm4-sum", "--x", "2e5", "--a", a()),
        _call(OK, "lambda-ext", "--x", 5000, "--a", a()),
        _call(OK, "signed-sum", "--x", "1e6", "--Q", 2000, "--a", a()),
        _call(OK, "dyadic-sum", "--x", "1e6", "--Q", 500, "--psi", "--a", a()),
    ]


def _factor_tables(rng: random.Random) -> list[dict]:
    return [
        _call(OK, "gamma-plus", "--n", 600, "--dense"),
        _call(OK, "gamma-plus", "--n", 3000, "--random-card", 200,
              "--rng-seed", rng.randrange(1 << 16)),
        _call(OK, "ledger", "--n", 1000, "--dense"),
        _call(OK, "smooth", "--x", "3e8", "--y", 1000),
        _call(OK, "divisor-lhs", "--selector", "rough-tau-hyperbola",
              "--x", "5e5", "--z", 5, "--j", 3),
        _call(OK, "divisor-lhs", "--selector", "fourfold-glued", "--x", "1e5",
              "--y", 2, "--z", 3, "--w", 1, "--j1", 2, "--j2", 2, "--j3", 2,
              "--j4", 2),
    ]


def _set_file(rng: random.Random, n_max: int, card: int) -> str:
    return "".join(f"{v}\n" for v in sorted(rng.sample(range(1, n_max + 1), card)))


def _small_calls(rng: random.Random) -> list[dict]:
    def a(lo=1, hi=30):
        return rng.randint(lo, hi)

    def seed():
        return rng.randrange(1 << 16)

    gpf_values = ",".join(str(rng.randint(2, 10**6)) for _ in range(3))
    seq = "".join(f"{n} {rng.randint(-3, 3)}\n" for n in range(1, 31))
    calls = [
        _call(OK, "gpf", "--n", gpf_values),
        _call(OK, "gpf", "--n", f"12,97,{rng.randint(2, 10**5)}", "--format", "json"),
        _call(OK, "gamma-plus", "--n", 10, "--dense"),
        _call(OK, "gamma-plus", "--n", 50, "--random-card", 8, "--rng-seed", seed()),
        _call(OK, "gamma-plus", "--set-a", f"{TMP}/a.txt", "--set-b", f"{TMP}/b.txt",
              files={"a.txt": _set_file(rng, 40, 12), "b.txt": _set_file(rng, 40, 9)}),
        _call(OK, "lv-count", "--n", f"10,37,{rng.randint(50, 200)}"),
        _call(OK, "ford-ratio", "--n-list", "10,100"),
        _call(OK, "smooth", "--x", 1000, "--y", 10),
        _call(OK, "smooth", "--x", rng.randint(10**4, 10**5), "--y", 100,
              "--format", "json"),
        _call(OK, "rho", "--u-list", "0.5,1,2,3"),
        _call(OK, "rho", "--u", 2.5, "--format", "json"),
        _call(OK, "pi-ap", "--x", 100, "--q", 4, "--a", a(1, 4)),
        _call(OK, "bv-sum", "--x", 1000, "--Q", 5),
        _call(OK, "bv-sum", "--x", 1000, "--Q", 5, "--per-q",
              "--output", f"{TMP}/bv.csv"),
        _call(OK, "bv-sum", "--x-list", "500,1000", "--Q", 3, "--threads", 2),
        _call(OK, "signed-sum", "--x", 3000, "--Q", 15, "--a", a()),
        _call(OK, "dyadic-sum", "--x", 500, "--Q", 4, "--a", a()),
        _call(OK, "dyadic-sum", "--x", 500, "--Q", 4, "--psi", "--a", a(),
              "--format", "json"),
        _call(OK, "thm4-sum", "--x-list", "200,400", "--Q", 3, "--p1", 3,
              "--p2", 40, "--a", a()),
        _call(OK, "lambda-ext", "--x", 600, "--Q", 6, "--p1", 5, "--p2", 80,
              "--a", a(), "--z", 2),
        _call(OK, "hb-verify", "--n", a(2, 100), "--j", 3),
        _call(OK, "hb-verify", "--n", 60, "--j", 2, "--terms", "--format", "json"),
        _call(OK, "delta", "--indicator", "1,20", "--q", 4, "--a", a(1, 4)),
        _call(OK, "delta", "--seq-file", f"{TMP}/seq.txt", "--q", 3, "--a", a(1, 3),
              files={"seq.txt": seq}),
        _call(OK, "cond-check", "--indicator", "1,50", "--condition", "A2",
              "--bound", 1),
        _call(OK, "cond-check", "--indicator", "1,30", "--condition", "A1",
              "--d", 2, "--k", 3, "--ell", 1),
        _call(OK, "divisor-lhs", "--selector", "rough-tau", "--x", 300,
              "--z", 7, "--j", 2),
        _call(OK, "adversarial", "--n", 20, "--eps", 0.2,
              "--write-a", f"{TMP}/adv_a.txt", "--write-b", f"{TMP}/adv_b.txt"),
        _call(OK, "thm1-search", "--n", 10, "--lo", 90, "--hi", 101),
        _call(OK, "thm1-sum", "--n", 500),
        _call(OK, "thm2-sum", "--n", 200, "--delta", 0.2, "--dense"),
        _call(OK, "ledger", "--n", 20, "--dense"),
        _call(OK, "ledger", "--n", 60, "--random-card", 10, "--rng-seed", seed(),
              "--format", "json", "--output", f"{TMP}/ledger.json"),
        _call(OK, "sqerr-check", "--n", 100, "--set-file", f"{TMP}/u.txt",
              files={"u.txt": _set_file(rng, 100, 30)}),
        _call(OK, "sqerr-check", "--n", 100, "--random-card", 40,
              "--rng-seed", seed()),
        _call(ERROR, "gpf", "--n", 0),
        _call(ERROR, "gpf", "--n", 997, "--sieve-limit", 10),
        _call(ERROR, "gamma-plus", "--n", 10),
        _call(ERROR, "gamma-plus", "--n", 10, "--random-card", 50),
        _call(ERROR, "lv-count", "--n", 10001),
        _call(ERROR, "cond-check", "--indicator", "1,30", "--condition", "A2"),
        _call(ERROR, "divisor-lhs", "--selector", "rough-tau", "--x", 300),
        _call(ERROR, "adversarial", "--n", 20, "--eps", 0.7),
        _call(ERROR, "adversarial", "--n", 3, "--eps", 0.05),
        _call(ERROR, "thm2-sum", "--n", 100, "--delta", 0.2),
        _call(ERROR, "thm4-sum", "--x-list", "200,400", "--Q", 3, "--per-q"),
        _call(PROBE, "lv-count", "--n", 1.9),
        _call(PROBE, "gpf", "--n", 12.7),
        _call(PROBE, "smooth", "--x", "nan", "--y", 10),
        _call(PROBE, "bv-sum", "--x", "inf", "--Q", 3),
        _call(PROBE, "delta", "--indicator", 5, "--q", 3, "--a", 1),
        _call(PROBE, "bv-sum", "--x", 1000, "--Q", 5,
              "--output", f"{TMP}/missing/out.csv"),
    ]
    order = []
    for _ in range(SMALL_CYCLES):
        cycle = list(calls)
        rng.shuffle(cycle)
        order.extend(cycle)
    return order


_BUILDERS = {"progressions": _progressions, "factor-tables": _factor_tables,
             "small-calls": _small_calls}


def workload_seed(seed: int) -> int:
    """The recorded workload seed that a benchmark ``--seed`` runs."""
    return seed % N_SEEDS


def calls(workload: str, seed: int) -> list[dict]:
    """The calls of one pass, in order; the same seed gives the same calls."""
    rng = random.Random(f"{workload}/{workload_seed(seed)}")
    return _BUILDERS[workload](rng)
