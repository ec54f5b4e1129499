"""Span tracing of gpflab from outside the program.

``install`` replaces every public function of the traced modules with a
timing wrapper, and also every name another gpflab module bound to one of
those functions with ``from .x import f``; ``cli``'s ``build_sieve`` and
the ``factorize`` / ``euler_phi`` / ``tau_table`` of ``ap``, ``shifted`` and
``sequences`` are such names.  Each call records a span (name, start, end,
parent) in memory.  A span opened on a worker thread with no open span of
its own takes the main thread's innermost open span as parent, so the
per-modulus work that ``ap`` hands to a thread pool stays under its
aggregate.  ``write`` stores the spans when the pass ends and ``metrics``
derives the per-layer numbers from them.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum of the self times of its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer names as metrics use them; the module of the accel layer is gpflab._accel
LAYERS = ("cli", "sieve", "accel", "ap", "shifted", "products", "smooth",
          "sequences")

# kernels whose operand and result sizes are summed as bytes_computed
BYTE_KERNELS = ("spf_fill", "tau_table", "divisor_scatter", "bv_max_scan",
                "gpf_batch")

AP_AGGREGATES = ("bv_sum", "signed_sum", "dyadic_abs_sum", "theorem4_sum",
                 "lambda_extension_sum")

# the counts that the hooks below fill; each is 0 when nothing fed it
COUNTERS = ("sieve.build_sieve.limit_sum", "sieve.gpf_batch.passed",
            "sieve.gpf_batch.resolved", "ap.moduli", "ap.bv_sum.threads1.s",
            "ap.bv_sum.threads2.s", "shifted.distinct_products",
            *(f"accel.{k}.bytes_computed" for k in BYTE_KERNELS))


class Recorder:
    """Spans kept in flat arrays; counters filled by per-function hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.worker = array("b")
        self.counts.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        stack = self._stack()
        on_worker = stack is not self._main_stack
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if on_worker and self._main_stack else -1
        with self._lock:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.worker.append(on_worker)
            self.end.append(0.0)
            self.start.append(perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        t = perf_counter()
        self.end[idx] = t
        self._stack().pop()
        return t - self.start[idx]

    def span(self, name: str, fn, hook=None):
        """A wrapper of fn that records one span named ``name`` per call."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result, dt)
            return result

        return wrapper

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        a = self.arrays()
        return float((a["end"] - a["start"])[a["name_id"] == self._ids[name]].sum())

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int32),
                "worker": np.array(self.worker, dtype=np.int8)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# hooks: counts taken from arguments and results at the layer boundary


def _limit_sum(counts, args, kwargs, result, dt):
    counts["sieve.build_sieve.limit_sum"] += int(args[0])


def _bytes_hook(kernel):
    key = f"accel.{kernel}.bytes_computed"

    def hook(counts, args, kwargs, result, dt):
        n = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
        if isinstance(result, np.ndarray):
            n += result.nbytes
        counts[key] += n
        if kernel == "gpf_batch":
            counts["sieve.gpf_batch.passed"] += len(args[0])
            counts["sieve.gpf_batch.resolved"] += int(np.count_nonzero(result >= 0))

    return hook


def _ap_hook(agg):
    def hook(counts, args, kwargs, result, dt):
        counts["ap.moduli"] += len(result.per_q)
        if agg == "bv_sum":
            counts[f"ap.bv_sum.threads{kwargs.get('threads', 1)}.s"] += dt

    return hook


def _gamma_hook(counts, args, kwargs, result, dt):
    counts["shifted.distinct_products"] += result.c_count


_HOOKS = {"sieve.build_sieve": _limit_sum,
          "shifted.gamma_plus": _gamma_hook}
_HOOKS.update({f"accel.{k}": _bytes_hook(k) for k in BYTE_KERNELS})
_HOOKS.update({f"ap.{agg}": _ap_hook(agg) for agg in AP_AGGREGATES})


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


def install() -> Recorder:
    """Wrap the public functions of every layer module; return the recorder."""
    rec = Recorder()
    mods = {layer: importlib.import_module("gpflab._accel" if layer == "accel"
                                           else f"gpflab.{layer}")
            for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for name, fn in list(_public_functions(mod)):
            span = f"{layer}.{name}"
            wrapped[fn] = rec.span(span, fn, _HOOKS.get(span))
    # a name bound with "from .x import f" is a separate reference to f
    package = importlib.import_module("gpflab")
    for mod in [package, *mods.values()]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])

    # argument parsing is build_parser plus the parse_args of the parser it returns
    cli = mods["cli"]
    build = cli.build_parser

    def build_parser():
        parser = build()
        parser.parse_args = rec.span("cli.parse_args", parser.parse_args)
        return parser

    cli.build_parser = build_parser
    return rec


# ---------------------------------------------------------------------------
# metrics derived from the spans of one pass


def _self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    start, end, parent = a["start"], a["end"], a["parent"]
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    # children on worker threads overlap each other: take their union instead
    for p in np.unique(parent[has_parent & (a["worker"] == 1)]):
        kids = np.flatnonzero(parent == p)
        order = kids[np.argsort(start[kids])]
        union, reach = 0.0, -np.inf
        for s, e in zip(start[order], end[order]):
            if e > reach:
                union += e - max(s, reach)
                reach = e
        covered[p] = union
    return dur - covered


def metrics(rec: Recorder, pass_s: float) -> dict[str, float]:
    """Per-function and per-layer figures of one traced pass.

    ``<f>.s`` is the summed duration of f's spans and ``<f>.calls`` their
    number; ``<layer>.self.s`` is the layer's self time.
    """
    a = rec.arrays()
    out: dict[str, float] = {}
    n = len(rec.names)
    ids = a["name_id"]
    total = np.bincount(ids, weights=a["end"] - a["start"], minlength=n)
    calls = np.bincount(ids, minlength=n)
    for nid, name in enumerate(rec.names):
        out[f"{name}.s"] = float(total[nid])
        out[f"{name}.calls"] = float(calls[nid])
    layer_of = np.array([LAYERS.index(name.split(".", 1)[0]) for name in rec.names],
                        dtype=np.int64)
    self_t = np.bincount(layer_of[ids], weights=_self_times(a), minlength=len(LAYERS))
    for i, lay in enumerate(LAYERS):
        out[f"{lay}.self.s"] = float(self_t[i])
    out.update({k: rec.counts.get(k, 0.0) for k in COUNTERS})
    out["pass_s"] = pass_s
    return out
