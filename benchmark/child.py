"""One benchmark pass in a fresh interpreter.

Run by run.py, never by hand:

    python3 benchmark/child.py --workload W --seed S --trace 0|1 --spawned T

``T`` is the ``time.monotonic()`` reading taken just before the spawn, so
``setup_s`` covers interpreter start, ``import gpflab.cli``, ``build_parser()``
and the process-wide Dickman table.  With ``--setup-only`` the process stops
there.  Otherwise it makes every call of the workload once, checks each
outcome against the recorded references and prints one JSON line, which
also holds the calibrations taken after set-up and between the calls
(calibrate.py).
"""

from __future__ import annotations

# argparse and json are imported by gpflab.cli too, so they add nothing to setup_s
import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/child.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import gpflab.cli
    from gpflab import smooth

    rec = None
    if args.trace:
        import tracer

        rec = tracer.install()
    gpflab.cli.build_parser()
    smooth.default_dickman_table()
    setup_s = time.monotonic() - args.spawned
    import calibrate
    import workloads

    marks = calibrate.Marks()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_mark": marks.marks[0]}))
        return 0

    import resource
    import shutil

    import numpy

    import outputs

    workload, seed = args.workload, args.seed
    refs = json.loads((ROOT / "benchmark" / "references" / f"{workload}.json")
                      .read_text(encoding="utf-8"))
    calls = workloads.calls(workload, seed)
    workdir = ROOT / ".bench_out" / f"pass-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    backend = gpflab._accel.backend()
    dickman_s = 0.0
    if rec is not None:
        dickman_s = rec.total("smooth.build_dickman_table")
        rec.clear()
    latencies, failures = [], []
    attempted = failed = probes = probes_failed = bitdiff = out_bytes = 0
    try:
        for call in calls:
            outcome = outputs.run(gpflab.cli.main, call, workdir)
            latencies.append(outcome["latency_s"])
            marks.tick(outcome["latency_s"])
            out_bytes += len(outcome["stdout"].encode())
            out_bytes += sum(len(t.encode()) for t in outcome["files"].values())
            ok, diff, why = outputs.check(call, outcome, refs.get(outputs.key(call)))
            bitdiff += diff
            if call["kind"] == workloads.PROBE:
                probes += 1
                probes_failed += not ok
            else:
                attempted += 1
                failed += not ok
            if not ok:
                why = why.replace(str(workdir), workloads.TMP)
                failures.append(f"{' '.join(call['argv'])}: {why}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "backend": backend,
        "numpy": numpy.__version__,
        "setup_s": setup_s,
        "setup_mark": marks.marks[0],
        "wall_s": sum(latencies),
        "latencies_ms": [t * 1e3 for t in latencies],
        "marks": marks.marks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed,
        "probes": probes, "probes_failed": probes_failed,
        "float_bitdiff": bitdiff, "out_bytes": out_bytes,
        "failures": sorted(set(failures)),
    }
    if rec is not None:
        import tracer

        layer = tracer.metrics(rec, result["wall_s"])
        layer["smooth.build_dickman_table.s"] = dickman_s
        result["layers"] = layer
        rec.write(ROOT / ".bench_out" / f"spans-{workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
