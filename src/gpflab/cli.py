"""Command line interface.

Every subcommand prints tabular rows (CSV with a header, or a JSON array of
objects) to stdout or --output.  Diagnostics go to stderr only.  Exit codes:
0 success, 1 invalid arguments, 2 range/budget/construction failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from decimal import Decimal, InvalidOperation
from math import gcd, isinf, isnan, isqrt, log, sqrt

import numpy as np

from . import ap, products, sequences, shifted, smooth
from .errors import ConstructionFailedError, InvalidArgumentError, RangeBudgetError
from .sieve import build_sieve, greatest_prime_factor, von_mangoldt


def _fmt_float(v: float) -> str:
    return f"{v:.15g}"


def _json_value(v):
    if isinstance(v, float):
        return float(_fmt_float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(_fmt_float(float(v)))
    return v


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return str(v)


def _emit(columns, rows, args) -> None:
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        if args.format == "json":
            payload = [{c: _json_value(r.get(c)) for c in columns} for r in rows]
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(columns)
            for r in rows:
                writer.writerow([_csv_value(r.get(c)) for c in columns])
    finally:
        if args.output:
            out.close()


def _sieve_for(args, needed: int):
    limit = max(int(needed), 3) if args.sieve_limit is None else args.sieve_limit
    return build_sieve(limit)


def _row(**row):
    """The columns and the one row of a single-row answer, named once."""
    return list(row), [row]


def _parse_float(text: str) -> float:
    """A float that is not nan; inf is allowed, as in a threshold like --p2."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad numeric value {text!r}") from None
    if isnan(x):
        raise argparse.ArgumentTypeError(f"needs a number, got {text!r}")
    return x


def _parse_x(text: str) -> float:
    """A finite float: a size such as --x, --y or --u."""
    x = _parse_float(text)
    if isinf(x):
        raise argparse.ArgumentTypeError(f"needs a finite value, got {text!r}")
    return x


# the magnitudes float() parses; beyond them int(Decimal) could run for minutes
_INT_MAGNITUDE = Decimal(sys.float_info.max)


def _parse_int(text: str) -> int:
    """An exact integer: 9007199254740993 stays itself and 1e6 is accepted,
    while 1.9 is an error rather than 1."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"bad integer value {text!r}") from None
    if not (value.is_finite() and value.copy_abs() <= _INT_MAGNITUDE):
        raise argparse.ArgumentTypeError(f"bad integer value {text!r}")
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _list_of(parse):
    def items(text: str) -> list:
        values = [parse(t) for t in text.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
        return values
    return items


_int_list = _list_of(_parse_int)
_x_items = _list_of(_parse_x)


def _bounds(text: str) -> tuple[int, int] | None:
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"needs LO,HI, got {text!r}")
    return _parse_int(parts[0]), _parse_int(parts[1])


def _threads(text: str) -> int:
    n = _parse_int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs a value >= 1, got {text!r}")
    return min(n, os.cpu_count() or 1)


def _one_or_list(args, name: str) -> list[float]:
    """The values of --NAME-list or the one value of --NAME, whichever is given."""
    one, values = getattr(args, name), getattr(args, f"{name}_list")
    if one is not None and values is not None:
        raise InvalidArgumentError(f"give --{name} or --{name}-list, not both")
    if one is None and values is None:
        raise InvalidArgumentError(f"need --{name} or --{name}-list")
    return [one] if values is None else values


def _rng(args):
    if args.rng_seed < 0:
        raise InvalidArgumentError("--rng-seed needs a value >= 0")
    return np.random.default_rng(args.rng_seed)


def _random_set(n: int, card: int, rng) -> shifted.IndexSet:
    if card < 1 or card > n:
        raise InvalidArgumentError("random cardinality must be in [1, N]")
    out = shifted.IndexSet(n)
    out.bits[rng.choice(n, size=card, replace=False) + 1] = True
    return out


def _sets(args) -> list[shifted.IndexSet]:
    """One set per set-file option of the command, from the first source given
    of --dense, the set file(s) and --random-card; --n bounds the file sets."""
    flags = args.set_files
    paths = [getattr(args, flag[2:].replace("-", "_")) for flag in flags]
    if args.dense:
        if args.n is None:
            raise InvalidArgumentError("--dense needs --n")
        return [shifted.IndexSet.dense(args.n)] * len(flags)
    if all(paths):
        return [shifted.IndexSet.from_file(path, n_max=args.n) for path in paths]
    if args.random_card is not None:
        if args.n is None:
            raise InvalidArgumentError("--random-card needs --n")
        rng = _rng(args)
        return [_random_set(args.n, args.random_card, rng) for _ in flags]
    raise InvalidArgumentError(f"need --dense, {'/'.join(flags)}, or --random-card")


# ---------------------------------------------------------------------------
# handlers


def _cmd_gpf(args):
    if min(args.n) < 1:
        raise InvalidArgumentError("gpf needs n >= 1")
    sieve = _sieve_for(args, isqrt(max(args.n)) + 1)
    rows = [{"n": n, "gpf": greatest_prime_factor(n, sieve)} for n in args.n]
    return ["n", "gpf"], rows


def _cmd_gamma_plus(args):
    A, B = _sets(args)
    sieve = _sieve_for(args, max(A.max_member(), B.max_member()) + 1)
    res = shifted.gamma_plus(A, B, sieve)
    return _row(gamma_plus=res.gamma_plus,
                witness_a=res.witness[0], witness_b=res.witness[1])


def _cmd_lv_count(args):
    rows = [{"N": n, "count": shifted.lv_count(n)} for n in args.n]
    return ["N", "count"], rows


def _cmd_ford_ratio(args):
    rows = [{"N": n, "count": (c := shifted.lv_count(n)),
             "ratio": shifted.ford_ratio(c, n)} for n in args.n_list]
    return ["N", "count", "ratio"], rows


def _cmd_smooth(args):
    # psi_count reads no prime when y >= x (and refuses y < 2), and segments
    # the primes above isqrt(x) that the sieve lacks
    sieve = _sieve_for(args, min(int(args.y), isqrt(int(args.x)) + 1)
                       if 2 <= args.y < args.x else 3)
    return _row(**vars(smooth.psi_approx_report(args.x, args.y, sieve)))


def _cmd_rho(args):
    rows = [{"u": u, "rho": smooth.dickman_rho(u)} for u in _one_or_list(args, "u")]
    return ["u", "rho"], rows


def _cmd_pi_ap(args):
    sieve = _sieve_for(args, int(args.x))
    coprime = gcd(args.a, args.q) == 1
    if coprime:  # a bad q is refused under error_term's name
        ap.check_modulus("error_term", "q", args.q)
    count = ap.pi_ap(args.x, args.q, args.a, sieve)
    return _row(x=args.x, q=args.q, a=args.a, pi_count=count,
                psi_weight=ap.psi_ap(args.x, args.q, args.a, sieve),
                error=ap.error_term(count, args.x, args.q, sieve) if coprime else None)


def _report_rows(rep: ap.DiscrepancyReport, args, extra: dict):
    if args.per_q:
        cols = ["x"] + list(extra) + ["q", "value"]
        rows = [dict(x=rep.x, **extra, q=q, value=v) for q, v in rep.per_q]
        return cols, rows
    return _row(x=rep.x, **extra, total=rep.total, normalized=rep.normalized)


def _auto_bv_q(x: float) -> int:
    return max(1, int(sqrt(x) / log(x) ** 2)) if x > 1 else 1


def _window(args, x: float) -> tuple[int, float, float]:
    """Q, P1 and P2 of the window at x: --Q, --p1 and --p2, by default
    sqrt(x log^3 x) (1 for x <= 1), sqrt(x) and x."""
    if (Q := args.Q) is None:
        Q = max(1, int(sqrt(x * log(x) ** 3))) if x > 1 else 1
    P1 = args.p1 if args.p1 is not None else sqrt(max(x, 0.0))
    P2 = args.p2 if args.p2 is not None else x
    return Q, P1, P2


def _cmd_bv_sum(args):
    all_rows = []
    for x in _one_or_list(args, "x"):
        Q = _auto_bv_q(x) if args.Q is None else args.Q
        sieve = _sieve_for(args, int(x))
        rep = ap.bv_sum(x, Q, sieve, threads=args.threads)
        cols, rows = _report_rows(rep, args, {"Q": Q})
        all_rows.extend(rows)
    return cols, all_rows


def _cmd_signed_sum(args):
    sieve = _sieve_for(args, int(args.x))
    Q = _auto_bv_q(args.x) if args.Q is None else args.Q
    rep = ap.signed_sum(args.x, Q, args.a, sieve)
    return _report_rows(rep, args, {"Q": Q, "a": args.a})


def _cmd_dyadic_sum(args):
    sieve = _sieve_for(args, int(args.x))
    Q = _auto_bv_q(args.x) if args.Q is None else args.Q
    rep = ap.dyadic_abs_sum(args.x, Q, args.a, sieve, use_psi=args.psi)
    extra = {"Q": Q, "a": args.a, "weight": "psi" if args.psi else "pi"}
    return _report_rows(rep, args, extra)


def _cmd_thm4_sum(args):
    xs = _one_or_list(args, "x")
    if args.per_q and len(xs) > 1:
        raise InvalidArgumentError("--per-q needs a single --x")
    cols = ["x", "Q", "P1", "P2", "a", "total", "normalized", "trivial_ratio"]
    all_rows = []
    for x in xs:
        Q, P1, P2 = _window(args, x)
        sieve = _sieve_for(args, int(x))
        rep = ap.theorem4_sum(x, Q, P1, P2, args.a, sieve)
        if args.per_q:
            return _report_rows(rep, args,
                                {"Q": Q, "P1": P1, "P2": P2, "a": args.a})
        all_rows.append({"x": rep.x, "Q": Q, "P1": P1, "P2": P2, "a": args.a,
                         "total": rep.total, "normalized": rep.normalized,
                         "trivial_ratio": ap.trivial_bound_ratio(rep)})
    return cols, all_rows


def _cmd_lambda_ext(args):
    x = args.x
    Q, P1, P2 = _window(args, x)
    z = args.z if args.z is not None else ap.default_rough_z(x)
    sieve = _sieve_for(args, int(x))
    rep = ap.lambda_extension_sum(x, Q, P1, P2, args.a, z, sieve)
    extra = {"Q": Q, "P1": P1, "P2": P2, "a": args.a, "z": z}
    return _report_rows(rep, args, extra)


def _cmd_hb_verify(args):
    x = args.x if args.x is not None else float(args.n)
    sieve = _sieve_for(args, isqrt(max(args.n, 0)) + 1)
    res = sequences.heath_brown_terms(args.n, x, args.j, sieve)
    lam = von_mangoldt(args.n, sieve)
    if args.terms:
        cols = ["n", "x", "J", "j", "term"]
        rows = [{"n": res.n, "x": res.x, "J": res.J, "j": j, "term": t}
                for j, t in res.terms]
        return cols, rows
    return _row(n=res.n, x=res.x, J=res.J, total=res.total,
                von_mangoldt=lam, abs_error=abs(res.total - lam))


def _load_sequence(args) -> sequences.WeightedSequence:
    if args.seq_file:
        return sequences.WeightedSequence.from_file(args.seq_file)
    if args.indicator:
        return sequences.WeightedSequence.indicator(*args.indicator)
    raise InvalidArgumentError("need --seq-file or --indicator lo,hi")


def _cmd_delta(args):
    f = _load_sequence(args)
    return _row(q=args.q, a=args.a, value=sequences.delta(f, args.q, args.a),
                norm=sequences.norm(f))


def _cmd_cond_check(args):
    f = _load_sequence(args)
    cond = args.condition
    if cond == "A1":
        if args.d is None or args.k is None or args.ell is None:
            raise InvalidArgumentError("A1 needs --d, --k, --ell")
        return _row(condition="A1", holds=None, worst_case=None,
                    lhs=sequences.a1_lhs(f, args.d, args.k, args.ell), rhs=None)
    check, dest = {"A2": (sequences.check_A2, "bound"),
                   "A3": (sequences.check_A3, "x"),
                   "A4": (sequences.check_A4, "z")}[cond]
    value = getattr(args, dest)
    if value is None:
        raise InvalidArgumentError(f"{cond} needs --{dest}")
    rep: sequences.ConditionReport = check(f, value)
    return _row(condition=rep.condition, holds=rep.holds,
                worst_case=rep.worst_case, lhs=rep.lhs, rhs=rep.rhs)


def _cmd_divisor_lhs(args):
    params = {k: v for k, v in vars(args).items() if v is not None}
    lhs = sequences.divisor_sum_lhs(args.selector, params)
    rhs = sequences.divisor_sum_rhs_shape(args.selector, params)
    return _row(selector=args.selector, lhs=lhs, rhs_shape=rhs,
                ratio=lhs / rhs if rhs else None)


def _cmd_adversarial(args):
    p, A, B = shifted.adversarial_sets(args.n, args.eps)
    if args.write_a:
        A.to_file(args.write_a)
    if args.write_b:
        B.to_file(args.write_b)
    return _row(N=args.n, eps=args.eps, p=p, card_a=len(A), card_b=len(B))


def _cmd_thm1_search(args):
    sieve = _sieve_for(args, isqrt(max(int(args.hi), 0)) + 1)
    hit = shifted.prime_in_interval_search(args.n, args.lo, args.hi, sieve)
    p, a, b = hit or (None, None, None)
    return _row(N=args.n, lo=args.lo, hi=args.hi, found=hit is not None, p=p, a=a, b=b)


def _cmd_thm1_sum(args):
    Y, Z1, Z2 = shifted.theorem1_thresholds(args.n, args.a_exp)
    total = shifted.theorem1_sum(args.n, args.a_exp)
    return _row(N=args.n, A_exp=args.a_exp, Y=Y, Z1=Z1, Z2=Z2, total=total)


def _cmd_thm2_sum(args):
    (B,) = _sets(args)
    total = shifted.theorem2_sum(args.n, args.delta, B)
    return _row(N=args.n, delta=args.delta, card_b=len(B), total=total)


def _cmd_ledger(args):
    A, B = _sets(args)
    N = max(A.n_max, B.n_max)  # --n when given, else the largest file value
    sieve = _sieve_for(args, max(N, 3))
    return _row(**vars(products.ledger_report(A, B, N, sieve)))


def _cmd_sqerr_check(args):
    (U,) = _sets(args)
    sieve = _sieve_for(args, max(args.n, 3))
    res = products.square_errors_check(U, args.n, sieve)
    return _row(N=args.n, card=len(U), lhs=res.lhs, rhs=res.rhs, holds=res.holds)


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _once(action):
    """``action`` refusing its option a second time, which would drop a value."""
    class Once(action):
        def __call__(self, parser, namespace, values, option_string=None):
            given = vars(namespace).setdefault("given_options", set())
            if self.dest in given:
                raise argparse.ArgumentError(self, "given more than once")
            given.add(self.dest)
            super().__call__(parser, namespace, values, option_string)
    return Once


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # each option by its full name and at most once
        super().__init__(allow_abbrev=False, **kwargs)
        self.register("action", None, _once(argparse._StoreAction))
        self.register("action", "store_true", _once(argparse._StoreTrueAction))

    def error(self, message):
        # argparse's own errors end like every other bad input: one line in main
        raise InvalidArgumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gpflab",
                     description="computational lab for greatest prime factors "
                                 "of shifted products and related sums")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def cmd(name, handler, help_text, sets=(), n_required=False, sieve=True):
        # sets: the set-file flags, declared with --n, --dense, --random-card and
        # --rng-seed; sieve: the handler sizes a sieve, which --sieve-limit fixes
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--output", default=None, help="write rows to a file")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if sieve:
            sp.add_argument("--sieve-limit", type=_parse_int, default=None)
        sp.set_defaults(handler=handler, set_files=sets)
        if sets:
            sp.add_argument("--n", type=_parse_int, default=None, required=n_required)
            sp.add_argument("--dense", action="store_true")
            for flag in sets:
                sp.add_argument(flag, default=None)
            sp.add_argument("--random-card", type=_parse_int, default=None)
            sp.add_argument("--rng-seed", type=_parse_int, default=0)
        return sp

    sp = cmd("gpf", _cmd_gpf, "greatest prime factor of given integers")
    sp.add_argument("--n", type=_int_list, required=True, help="comma separated integers")

    cmd("gamma-plus", _cmd_gamma_plus,
        "max greatest prime factor over shifted products of two sets",
        sets=("--set-a", "--set-b"))

    sp = cmd("lv-count", _cmd_lv_count, "count distinct products a*b, a,b <= N",
             sieve=False)
    sp.add_argument("--n", type=_int_list, required=True, help="comma separated N values")

    sp = cmd("ford-ratio", _cmd_ford_ratio,
             "distinct-product count against its density shape", sieve=False)
    sp.add_argument("--n-list", type=_int_list, required=True,
                    help="comma separated N values, one output row each")

    sp = cmd("smooth", _cmd_smooth, "smooth-number count and its approximation")
    sp.add_argument("--x", type=_parse_x, required=True)
    sp.add_argument("--y", type=_parse_x, required=True)

    sp = cmd("rho", _cmd_rho, "Dickman rho values", sieve=False)
    sp.add_argument("--u", type=_parse_x, default=None)
    sp.add_argument("--u-list", type=_x_items, default=None)

    sp = cmd("pi-ap", _cmd_pi_ap, "primes in a progression, with error term")
    sp.add_argument("--x", type=_parse_x, required=True)
    sp.add_argument("--q", type=_parse_int, required=True)
    sp.add_argument("--a", type=_parse_int, required=True)

    sp = cmd("bv-sum", _cmd_bv_sum, "max-over-residues discrepancy sum")
    sp.add_argument("--x", type=_parse_x, default=None)
    sp.add_argument("--x-list", type=_x_items, default=None)
    sp.add_argument("--Q", type=_parse_int, default=None)
    sp.add_argument("--per-q", action="store_true")
    sp.add_argument("--threads", type=_threads, default=1,
                    help="worker threads, capped at the CPU count")

    sp = cmd("signed-sum", _cmd_signed_sum, "signed discrepancy sum at fixed a")
    sp.add_argument("--x", type=_parse_x, required=True)
    sp.add_argument("--Q", type=_parse_int, default=None)
    sp.add_argument("--a", type=_parse_int, default=1)
    sp.add_argument("--per-q", action="store_true")

    sp = cmd("dyadic-sum", _cmd_dyadic_sum,
             "absolute discrepancy summed over dyadic modulus blocks")
    sp.add_argument("--x", type=_parse_x, required=True)
    sp.add_argument("--Q", type=_parse_int, default=None)
    sp.add_argument("--a", type=_parse_int, default=1)
    sp.add_argument("--psi", action="store_true", help="weight by log p")
    sp.add_argument("--per-q", action="store_true")

    sp = cmd("thm4-sum", _cmd_thm4_sum,
             "windowed product discrepancy over a dyadic modulus block")
    sp.add_argument("--x", type=_parse_x, default=None)
    sp.add_argument("--x-list", type=_x_items, default=None)
    sp.add_argument("--Q", type=_parse_int, default=None)
    sp.add_argument("--p1", type=_parse_float, default=None)
    sp.add_argument("--p2", type=_parse_float, default=None)
    sp.add_argument("--a", type=_parse_int, default=1)
    sp.add_argument("--per-q", action="store_true")

    sp = cmd("lambda-ext", _cmd_lambda_ext,
             "extension discrepancy with rough cofactors and prime powers")
    sp.add_argument("--x", type=_parse_x, required=True)
    sp.add_argument("--Q", type=_parse_int, default=None)
    sp.add_argument("--p1", type=_parse_float, default=None)
    sp.add_argument("--p2", type=_parse_float, default=None)
    sp.add_argument("--a", type=_parse_int, default=1)
    sp.add_argument("--z", type=_parse_float, default=None)
    sp.add_argument("--per-q", action="store_true")

    sp = cmd("hb-verify", _cmd_hb_verify,
             "check the divisor expansion of the von Mangoldt function")
    sp.add_argument("--n", type=_parse_int, required=True)
    sp.add_argument("--x", type=_parse_x, default=None)
    sp.add_argument("--j", type=_parse_int, default=3, help="number of levels J")
    sp.add_argument("--terms", action="store_true", help="emit raw terms")

    sp = cmd("delta", _cmd_delta, "progression discrepancy of a weighted sequence",
             sieve=False)
    sp.add_argument("--seq-file", default=None)
    sp.add_argument("--indicator", type=_bounds, default=None, metavar="LO,HI")
    sp.add_argument("--q", type=_parse_int, required=True)
    sp.add_argument("--a", type=_parse_int, required=True)

    sp = cmd("cond-check", _cmd_cond_check,
             "structural condition checks on a weighted sequence", sieve=False)
    sp.add_argument("--seq-file", default=None)
    sp.add_argument("--indicator", type=_bounds, default=None, metavar="LO,HI")
    sp.add_argument("--condition", choices=("A1", "A2", "A3", "A4"), required=True)
    sp.add_argument("--d", type=_parse_int, default=None)
    sp.add_argument("--k", type=_parse_int, default=None)
    sp.add_argument("--ell", type=_parse_int, default=None)
    sp.add_argument("--bound", type=_parse_float, default=None)
    sp.add_argument("--x", type=_parse_x, default=None)
    sp.add_argument("--z", type=_parse_float, default=None)

    sp = cmd("divisor-lhs", _cmd_divisor_lhs,
             "exact multi-variable divisor sums with reference shapes", sieve=False)
    sp.add_argument("--selector", choices=sequences.DIVISOR_SELECTORS, required=True)
    sp.add_argument("--x", type=_parse_x, default=None)
    sp.add_argument("--y", type=_parse_x, default=None)
    sp.add_argument("--z", type=_parse_float, default=None)
    sp.add_argument("--w", type=_parse_float, default=None)
    sp.add_argument("--j", type=_parse_int, default=None)
    sp.add_argument("--ell", type=_parse_int, default=None)
    sp.add_argument("--k", type=_parse_int, default=None)
    sp.add_argument("--s", type=_parse_int, default=None)
    sp.add_argument("--nu", type=_parse_int, default=None)
    for i in range(1, 7):
        sp.add_argument(f"--j{i}", type=_parse_int, default=None)

    sp = cmd("adversarial", _cmd_adversarial,
             "congruence sets whose shifted products all share one prime", sieve=False)
    sp.add_argument("--n", type=_parse_int, required=True)
    sp.add_argument("--eps", type=_parse_float, required=True)
    sp.add_argument("--write-a", default=None)
    sp.add_argument("--write-b", default=None)

    sp = cmd("thm1-search", _cmd_thm1_search,
             "largest prime in [lo, hi] of the form a*b + 1 with a,b <= N")
    sp.add_argument("--n", type=_parse_int, required=True)
    sp.add_argument("--lo", type=_parse_x, required=True)
    sp.add_argument("--hi", type=_parse_x, required=True)

    sp = cmd("thm1-sum", _cmd_thm1_sum,
             "progression-prime pair count over the near-N window", sieve=False)
    sp.add_argument("--n", type=_parse_int, required=True)
    sp.add_argument("--a-exp", type=_parse_float, default=1.0)

    sp = cmd("thm2-sum", _cmd_thm2_sum,
             "progression-prime pair count over a delta window for a set B",
             sets=("--set-b",), n_required=True, sieve=False)
    sp.add_argument("--delta", type=_parse_float, required=True)

    cmd("ledger", _cmd_ledger, "full log-mass ledger for a pair of sets",
        sets=("--set-a", "--set-b"))

    cmd("sqerr-check", _cmd_sqerr_check,
        "residue concentration inequality for a set in [1, N]",
        sets=("--set-file",), n_required=True)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    # once per process: building 22 subparsers costs more than most calls
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
        columns, rows = args.handler(args)
        _emit(columns, rows, args)
    except (InvalidArgumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # OverflowError: an integer too wide for int64 that no parameter check caught
    except (RangeBudgetError, ConstructionFailedError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
