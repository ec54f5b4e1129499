"""gpflab benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from any directory; the program measured is the gpflab under ``src/``
next to this directory.  Each pass is one fresh child process (child.py)
that makes every call of the workload once, in-process, through
``gpflab.cli.main(argv)`` and checks each output against the references
recorded by record.py.  Passes repeat until ``S`` seconds are used, and
the figures are taken over all of them.  A few extra children only set
up, so that ``setup_s`` has enough samples.

The end-to-end times (``wall_s``, ``setup_s``, ``call_p50_ms``,
``call_p95_ms``) are given at a reference machine speed, by calibrations
taken between the calls (calibrate.py), because the host's own speed
drifts by more than the bounds in BENCHMARK.json; the report lines also
give the times as measured.

With ``--trace 0`` the result holds the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` untraced and traced passes alternate;
traced passes wrap each layer's public functions (tracer.py) and the result
holds the per-layer metrics.  Per-layer times are given as shares of the
traced pass (``trace.pass_s``), so that a layer a workload never enters
reads 0 rather than a time of 0 s; the report lines give them in seconds.

Human-readable report lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count the workload's calls; the contract
probes of small-calls are counted apart, in ``check.fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_ONLY_SAMPLES = 5
# a pass process still running this long after the run began is stopped,
# so that the run ends within 180 s even if the program hangs
DEADLINE_S = 170.0
# passes made even when they overrun the run's seconds; past these, a pass
# is started only if it is expected to end in time
MIN_UNTRACED_PASSES = 2


def _fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def _child(workload, seed, trace, deadline, setup_only=False) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "1" if trace else "0"]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"pass process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def _passes(workload, seed, seconds, trace):
    """Run passes until the time is used: untraced ones, or with trace on,
    untraced and traced in turn.  Returns (setup samples, untraced, traced)."""
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    setups = [_child(workload, seed, False, deadline, setup_only=True)
              for _ in range(SETUP_ONLY_SAMPLES)]
    plain, traced = [], []
    while True:
        turn_traced = trace and len(traced) < len(plain)
        done = traced if turn_traced else plain
        elapsed = time.monotonic() - t0
        est = statistics.median(p["elapsed_s"] for p in done) if done else 0.0
        enough = len(plain) >= MIN_UNTRACED_PASSES and (not trace or traced)
        if enough and elapsed + est > seconds:
            break
        done.append(_child(workload, seed, turn_traced, deadline))
        if not turn_traced:
            setups.append(done[-1])
    return setups, plain, traced


def _quantile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _per_call_ms(passes) -> list[float]:
    """Each call's latency at the reference speed: its mean over the passes
    divided by the mean slowdown of every calibration the passes took."""
    slow = calibrate.mean_slowdown([m for p in passes for m in p["marks"]])
    return [statistics.fmean(ts) / slow
            for ts in zip(*(p["latencies_ms"] for p in passes))]


def _end_to_end(setups, plain) -> dict:
    """Times are at the reference speed (calibrate.py).  ``wall_s`` is the
    sum of the per-call latencies and the call percentiles are taken over
    them; ``peak_rss_mb`` is a median over passes."""
    per_call = _per_call_ms(plain)
    n = f"{len(per_call)} calls, each the mean of {len(plain)} passes"
    setup_s = (statistics.fmean(p["setup_s"] for p in setups)
               / calibrate.mean_slowdown([p["setup_mark"] for p in setups]))
    return {
        "wall_s": (sum(per_call) / 1e3, "s", n),
        "setup_s": (setup_s, "s", f"{len(setups)} processes"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MiB",
                        f"{len(plain)} passes"),
        "call_p50_ms": (_quantile(per_call, 50), "ms", n),
        "call_p95_ms": (_quantile(per_call, 95), "ms", n),
    }


def _derived(p: dict) -> dict:
    """Per-layer figures of one traced pass, in seconds and as shares."""
    lay = dict(p["layers"])
    pass_s = lay["pass_s"]
    lay["cli.parse.s"] = lay["cli.build_parser.s"] + lay["cli.parse_args.s"]
    lay["cli.calls"] = lay["cli.main.calls"]
    lay["cli.out_bytes"] = p["out_bytes"]
    # ratios with nothing to divide by read 0
    passed = lay["sieve.gpf_batch.passed"]
    lay["sieve.gpf_batch.resolved_ratio"] = (
        lay["sieve.gpf_batch.resolved"] / passed if passed else 0.0)
    t1, t2 = lay["ap.bv_sum.threads1.s"], lay["ap.bv_sum.threads2.s"]
    lay["ap.bv_sum.threads_ratio"] = t2 / t1 if t1 and t2 else 0.0
    moduli = lay["ap.moduli"]
    lay["ap.per_modulus_us"] = lay["ap.self.s"] / moduli * 1e6 if moduli else 0.0
    lay["check.float_bitdiff"] = p["float_bitdiff"]
    lay["check.fail_ratio"] = _fail_ratio([p])
    lay["trace.pass_s"] = pass_s
    for name in [k for k in lay if k.endswith(".s") and k != "smooth.build_dickman_table.s"]:
        lay[name[:-2] + ".share"] = lay[name] / pass_s if pass_s else 0.0
    return lay


def _fail_ratio(passes) -> float:
    failed = sum(p["failed"] + p["probes_failed"] for p in passes)
    return failed / sum(p["attempted"] + p["probes"] for p in passes)


def _per_layer(plain, traced) -> dict:
    rows = [_derived(p) for p in traced]
    keys = set.intersection(*(set(r) for r in rows))
    med = {k: statistics.median(r[k] for r in rows) for k in keys}
    med["trace.overhead_ratio"] = sum(_per_call_ms(traced)) / sum(_per_call_ms(plain))
    return med


def _report_layers(workload, med) -> None:
    print(f"# per-layer, {workload}: layer self time, s and share of the traced pass")
    for lay in tracer.LAYERS:
        print(f"#   {lay:10s} {med[f'{lay}.self.s']:10.4f} s  "
              f"{med[f'{lay}.self.share']:7.2%}")
    spans = sorted(k[:-6] for k in med if k.endswith(".calls") and f"{k[:-6]}.s" in med)
    print("# per function: calls, s (sum of span durations)")
    for name in spans:
        if med[f"{name}.calls"]:
            print(f"#   {name:40s} {med[f'{name}.calls']:10.0f} {med[f'{name}.s']:10.4f}")
    for k in ("ap.per_modulus_us", "ap.moduli", "ap.bv_sum.threads_ratio",
              "sieve.gpf_batch.resolved_ratio", "sieve.build_sieve.limit_sum",
              "smooth.build_dickman_table.s", "trace.overhead_ratio"):
        print(f"#   {k:40s} {med[k]:.6g}")
    # worker threads add their time side by side, so shares can pass 100%
    print(f"# purpose check: ap {med['ap.self.share']:.1%} and accel kernels "
          f"{med['accel.self.share']:.1%} of the traced pass (thread time)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpflab" / "cli.py").is_file():
        return _fail(f"no gpflab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (HERE / "references" / f"{args.workload}.json").is_file():
        return _fail("no recorded references")

    try:
        setups, plain, traced = _passes(args.workload, args.seed, args.seconds,
                                        args.trace == 1)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))

    first = plain[0]
    print(f"# workload {args.workload}, seed {args.seed} (workload seed "
          f"{workloads.workload_seed(args.seed)}), backend {first['backend']}, "
          f"numpy {first['numpy']}, python {sys.version.split()[0]}, "
          f"cpus {os.cpu_count()}, passes {len(plain)} untraced + {len(traced)} traced")
    e2e = _end_to_end(setups, plain)
    e2e["fail_ratio"] = (_fail_ratio(plain), "1",
                         f"{sum(p['attempted'] + p['probes'] for p in plain)} calls")
    for name, (value, unit, n) in e2e.items():
        print(f"# {name:12s} {value:12.6g} {unit:5s} (samples {n})")
    print("# as measured, not scaled: wall_s of each pass "
          + " ".join(f"{p['wall_s']:.3f}" for p in plain)
          + "; setup_s median "
          + f"{statistics.median(p['setup_s'] for p in setups):.4f}")
    every = plain + traced
    for line in sorted({f for p in every for f in p["failures"]}):
        print(f"# failed: {line}")
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)

    if args.trace:
        med = _per_layer(plain, traced)
        _report_layers(args.workload, med)
        wanted = spec["per_layer"]
        values = {m["name"]: med[m["name"]] for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: e2e[m["name"]][0] for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
