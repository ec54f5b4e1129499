"""Timing harness: accelerated kernels against the pure-numpy fallback.

Run as `python -m gpflab.bench [--limit N] [--repeat K]`.  Prints one line
per kernel and backend with the best wall time over the repeats.  The same
comparisons back the backend-parity tests; this module only reports speed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import _accel
from .sieve import build_sieve


def _best(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _kernel_suite(limit: int):
    sieve = build_sieve(limit)
    rng = np.random.default_rng(12345)
    values = rng.integers(1, limit * limit, size=50_000).astype(np.int64)
    lv_n = min(2_000, limit)
    tau_limit = limit // 10

    return [
        ("spf_fill", lambda: _accel.spf_fill(limit)),
        ("gpf_batch", lambda: _accel.gpf_batch(values, sieve.spf, sieve.primes,
                                               sieve.limit)),
        ("product_mark", lambda: _accel.product_mark_count(lv_n)),
        ("tau_table", lambda: _accel.tau_table(tau_limit, 4)),
        ("theta_scan", lambda: _accel.theta_count_scan(limit, max(2, limit // 100),
                                                       2, sieve.spf)),
    ]


def run(limit: int, repeat: int, out=sys.stdout) -> None:
    backends = ["numpy"]
    if _accel.HAS_NUMBA:
        backends.insert(0, "numba")
    else:
        print("# numba unavailable, timing the numpy path only", file=sys.stderr)
    saved = _accel.backend()
    results = {}
    try:
        for backend in backends:
            _accel.set_backend(backend)
            for name, fn in _kernel_suite(limit):
                fn()  # warm up (jit compile on first call)
                results[(name, backend)] = _best(fn, repeat)
    finally:
        _accel.set_backend(saved)
    print(f"kernel timings, limit={limit}, best of {repeat}", file=out)
    names = [n for n, _ in _kernel_suite(limit)]
    for name in names:
        cells = [f"{b}={results[(name, b)] * 1e3:9.3f} ms" for b in backends]
        line = f"{name:16s} " + "  ".join(cells)
        if len(backends) == 2:
            t_nb = results[(name, "numba")]
            t_np = results[(name, "numpy")]
            if t_nb > 0:
                line += f"  speedup={t_np / t_nb:6.2f}x"
        print(line, file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m gpflab.bench")
    parser.add_argument("--limit", type=int, default=2_000_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    run(args.limit, args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
