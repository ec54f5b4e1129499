"""Record the reference outcome of every call the benchmark can make.

    python3 benchmark/record.py [workload ...]

For each workload and each workload seed 0 .. N_SEEDS - 1 this runs every
distinct call once, in-process, with the gpflab found under ``src/``, and
writes ``benchmark/references/<workload>.json``.  Each successful output is
cross-checked against an independent oracle where one runs in seconds (see
oracles.py); a mismatch stops the recording.  Expected-error calls must end
with exit 1 or 2 and a one-line error.  Contract probes get no reference:
they are judged against the CLI contract itself.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gpflab.cli  # noqa: E402

import oracles  # noqa: E402
import outputs  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict:
    unique = {}
    for seed in range(workloads.N_SEEDS):
        for call in workloads.calls(workload, seed):
            if call["kind"] != workloads.PROBE:
                unique.setdefault(outputs.key(call), call)
    workdir = ROOT / ".bench_out" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    refs, checked = {}, Counter()
    t0 = time.monotonic()
    try:
        for k, call in sorted(unique.items()):
            outcome = outputs.run(gpflab.cli.main, call, workdir)
            argv = " ".join(call["argv"])
            if call["kind"] == workloads.ERROR:
                if not outputs.one_line_error(outcome):
                    raise SystemExit(f"{argv}: expected a one-line error, got {outcome}")
            else:
                if outcome["exit"] != 0 or outcome["raised"]:
                    raise SystemExit(f"{argv}: failed: {outcome}")
                name = oracles.check(call, outcome)
                if name:
                    checked[name] += 1
            refs[k] = {"argv": call["argv"], **outputs.reference(outcome)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{workload}: {len(refs)} references in {time.monotonic() - t0:.1f} s; "
          f"oracle-checked {sum(checked.values())}: {dict(sorted(checked.items()))}")
    return refs


def main(argv) -> int:
    out_dir = ROOT / "benchmark" / "references"
    out_dir.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        refs = record(workload)
        text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
        (out_dir / f"{workload}.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
