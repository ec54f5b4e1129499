"""Running one CLI call in-process and checking what it produced.

A call's outcome is its exit code, its stdout and stderr text, the files it
wrote, and the exception it raised, if any.  Reference outcomes are keyed
by the call's argv and input files, so calls that recur across seeds share
one reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
from pathlib import Path
from time import perf_counter

from workloads import ERROR, PROBE, TMP

# float tolerances of tests/test_acceptance.py: relative 1e-6 (log-mass
# ledger) or absolute 1e-8 (discrepancy aggregates), whichever is wider
REL_TOL = 1e-6
ABS_TOL = 1e-8

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
_INT = re.compile(r"[-+]?\d+")


def key(call: dict) -> str:
    text = json.dumps({"argv": call["argv"], "files": call["files"]}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run(main, call: dict, tmp: Path) -> dict:
    """Run one call through ``main(argv)``; the outcome includes its latency.

    ``tmp`` must be empty; the call's input files are written there first and
    everything left there afterwards is read back as its output files.
    """
    for name, text in call["files"].items():
        (tmp / name).write_text(text, encoding="utf-8")
    argv = [t.replace(TMP, str(tmp)) for t in call["argv"]]
    out, err = io.StringIO(), io.StringIO()
    raised = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a traceback is an outcome the check must see
        code, raised = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    files = {}
    for path in sorted(tmp.iterdir()):
        if path.is_dir():
            shutil.rmtree(path)
            continue
        if path.name not in call["files"]:
            files[path.name] = path.read_text(encoding="utf-8")
        path.unlink()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files, "raised": raised, "latency_s": latency}


def one_line_error(outcome: dict) -> bool:
    """The CLI contract for bad input: exit 1 or 2 and a one-line stderr."""
    lines = outcome["stderr"].splitlines()
    return (outcome["raised"] is None and outcome["exit"] in (1, 2)
            and len(lines) == 1 and bool(lines[0].strip()))


def _compare_text(got: str, ref: str) -> tuple[bool, int]:
    """(match, float fields whose text differs from the reference).

    The texts are split into numbers and the rest.  The rest must be equal,
    integers exactly, and floats within the tolerances above.
    """
    g_nums, r_nums = _NUMBER.findall(got), _NUMBER.findall(ref)
    if _NUMBER.split(got) != _NUMBER.split(ref) or len(g_nums) != len(r_nums):
        return False, 0
    bitdiff = 0
    for g, r in zip(g_nums, r_nums):
        if g == r:
            continue
        if _INT.fullmatch(r) or _INT.fullmatch(g):
            return False, 0
        gv, rv = float(g), float(r)
        if not math.isclose(gv, rv, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return False, 0
        bitdiff += 1
    return True, bitdiff


def check(call: dict, outcome: dict, ref: dict | None) -> tuple[bool, int, str]:
    """(passed, float_bitdiff, reason) for one outcome against its reference."""
    kind = call["kind"]
    if kind == PROBE:
        ok = one_line_error(outcome)
        return ok, 0, "" if ok else _describe(outcome)
    if ref is None:
        return False, 0, "no reference recorded"
    if kind == ERROR:
        ok = one_line_error(outcome) and outcome["exit"] == ref["exit"]
        return ok, 0, "" if ok else _describe(outcome)
    if outcome["raised"] is not None or outcome["exit"] != ref["exit"]:
        return False, 0, _describe(outcome)
    if sorted(outcome["files"]) != sorted(ref["files"]):
        return False, 0, f"wrote {sorted(outcome['files'])}"
    bitdiff = 0
    pairs = [(outcome["stdout"], ref["stdout"])]
    pairs += [(outcome["files"][n], ref["files"][n]) for n in ref["files"]]
    for got, want in pairs:
        ok, diff = _compare_text(got, want)
        if not ok:
            return False, 0, f"output differs: {got[:120]!r}"
        bitdiff += diff
    return True, bitdiff, ""


def _describe(outcome: dict) -> str:
    if outcome["raised"]:
        return f"raised {outcome['raised']}"
    first = (outcome["stderr"].splitlines() or [""])[0]
    return f"exit {outcome['exit']}, stderr {first[:80]!r}"


def reference(outcome: dict) -> dict:
    """The part of an outcome that later runs are checked against."""
    return {"exit": outcome["exit"], "stdout": outcome["stdout"],
            "files": outcome["files"]}
