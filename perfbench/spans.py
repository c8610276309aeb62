"""In-memory span recorder for the traced benchmark run.

A span is one call into a flowsift layer: its layer (the module name), the
function, start and end on the perf_counter clock, the span that caused it,
counts read from the call's return value and, when tracemalloc is on, the
peak allocation above the span's starting level.
Spans stay in a list until the job ends and are then written out as JSON.

Tracing works from outside the package: ``instrument`` replaces the public
functions each caller module imported (``flowsift.cli.read_flows``,
``flowsift.sweep.fit``, ...) with wrappers, so spans nest
command -> run_grid -> run_single -> build_matrix/split/fit/evaluate,
and flowsift itself carries no tracing code.

``self_times`` turns spans into exclusive wall time: every instant of the
root span is given to the innermost spans open at that instant, split evenly
when several threads are busy at once, so the self times of all spans add up
to the root span's duration.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
import tracemalloc

_MB = float(1 << 20)


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, memory: bool = False):
        self.memory = memory            # tracemalloc is on; record peaks
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open: list[dict] = []
        self._deferred: list[tuple[dict, str, object]] = []
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _fold_peak(self) -> int:
        """Credit the allocation peak since the last event to every open
        span, then start a new peak interval; returns current traced bytes."""
        if not self.memory:
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for rec in self._open:
            rec["_peak"] = max(rec["_peak"], peak)
        tracemalloc.reset_peak()
        return current

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        stack = self._stack()
        # a pool thread starts with an empty stack; its work was caused by
        # whatever the main thread has open (run_grid)
        if stack:
            parent = stack[-1]["id"]
        elif self._main_stack:
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        with self._lock:
            rec = {"id": len(self.spans), "parent": parent, "layer": layer,
                   "name": name, "counts": {}}
            self.spans.append(rec)
            rec["_base"] = rec["_peak"] = self._fold_peak()
            self._open.append(rec)
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self._fold_peak()
                self._open.remove(rec)
            rec["peak_alloc_mb"] = (rec.pop("_peak") - rec.pop("_base")) / _MB

    def defer(self, rec: dict, key: str, compute) -> None:
        """Fill rec["counts"][key] = compute() after the job, off the clock."""
        self._deferred.append((rec, key, compute))

    def finish(self) -> list[dict]:
        for rec, key, compute in self._deferred:
            rec["counts"][key] = compute()
        self._deferred.clear()
        return self.spans


# ---------------------------------------------------------------- observers
# Each observer reads counters from a call's arguments and return value; the
# CLI computes most of these and throws them away.

def _obs_read_flows(tracer, rec, args, result):
    _, stats = result
    return {"rows": stats.parsed, "total_rows": stats.total_rows,
            "skipped": stats.skipped,
            "unrecognized_labels": stats.unrecognized_labels,
            "src_bytes_over_total": stats.src_bytes_over_total}


def window_entries(flows, cfg) -> int:
    """Flow x window memberships for a geometry, from start times alone."""
    import numpy as np
    from flowsift.windows import resolve_config

    t = np.fromiter((f.start_time_us for f in flows), dtype=np.int64,
                    count=len(flows))
    cfg = resolve_config(cfg, int(t.min()))
    offset = t - cfg.origin_us
    stride_us, width_us = cfg.stride_s * 1_000_000, cfg.width_s * 1_000_000
    first = np.maximum((offset - width_us) // stride_us + 1, 0)
    last = offset // stride_us
    return int(np.maximum(last - first + 1, 0).sum())


def _obs_build_matrix(tracer, rec, args, result):
    flows, cfg = args[0], args[1]
    tracer.defer(rec, "entries", lambda: window_entries(flows, cfg))
    return {"rows": result.n_rows}


def _obs_write_matrix_csv(tracer, rec, args, result):
    return {"bytes": os.path.getsize(args[0]), "rows": args[1].n_rows}


def _obs_read_matrix_csv(tracer, rec, args, result):
    return {"rows": result.n_rows}


def _obs_fit(tracer, rec, args, result):
    _, report = result
    return {"rows": args[0].n_rows, "iterations": report.iterations_run,
            "converged": int(report.converged),
            "final_loss": report.loss_trace[-1]}


def _obs_split(tracer, rec, args, result):
    train, test = result
    rows = args[0].n_rows
    return {"rows_in": rows, "rows_train": train.n_rows,
            "rows_test": test.n_rows,
            "rows_purged": rows - train.n_rows - test.n_rows}


def _obs_run_grid(tracer, rec, args, result):
    ok = sum(1 for c in result.cells if c.status.startswith("ok"))
    return {"cells": len(result.cells), "cells_ok": ok,
            "cells_failed": len(result.cells) - ok}


# (module, attribute, layer, observer): the functions each caller module
# imported by name, so the patched attribute is the one its code looks up
TARGETS = (
    ("flowsift.cli", "read_flows", "ingest", _obs_read_flows),
    ("flowsift.cli", "build_matrix", "windows", _obs_build_matrix),
    ("flowsift.cli", "write_matrix_csv", "features", _obs_write_matrix_csv),
    ("flowsift.cli", "read_matrix_csv", "features", _obs_read_matrix_csv),
    ("flowsift.cli", "fit", "logreg", _obs_fit),
    ("flowsift.cli", "save_model", "logreg", None),
    ("flowsift.cli", "load_model", "logreg", None),
    ("flowsift.cli", "evaluate", "metrics", None),
    ("flowsift.cli", "write_metrics_report", "metrics", None),
    ("flowsift.cli", "run_grid", "sweep", _obs_run_grid),
    ("flowsift.cli", "write_sweep_csv", "sweep", None),
    ("flowsift.sweep", "run_single", "sweep", None),
    ("flowsift.sweep", "build_matrix", "windows", _obs_build_matrix),
    ("flowsift.sweep", "split", "split", _obs_split),
    ("flowsift.sweep", "fit", "logreg", _obs_fit),
    ("flowsift.sweep", "evaluate", "metrics", None),
)


def _wrap(tracer: Tracer, layer: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer, fn.__name__) as rec:
            result = fn(*args, **kwargs)
        if observe is not None:
            rec["counts"].update(observe(tracer, rec, args, result))
        return result
    return traced


def instrument(tracer: Tracer) -> None:
    """Route every call in TARGETS through a span of ``tracer``."""
    for module_name, attr, layer, observe in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, _wrap(tracer, layer, getattr(module, attr),
                                    observe))


# ------------------------------------------------------------------ analysis

def self_times(spans: list[dict]) -> dict[int, float]:
    """Exclusive wall seconds per span id.

    Between consecutive span boundaries the open spans are fixed; the
    interval goes to those of them with no open child, in equal shares.
    """
    children: dict[int, list[int]] = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s["id"])
    bounds = sorted({s["start"] for s in spans} | {s["end"] for s in spans})
    out = {s["id"]: 0.0 for s in spans}
    for lo, hi in zip(bounds, bounds[1:]):
        open_ids = {s["id"] for s in spans
                    if s["start"] <= lo and s["end"] >= hi}
        leaves = [i for i in open_ids
                  if not any(c in open_ids for c in children[i])]
        for i in leaves:
            out[i] += (hi - lo) / len(leaves)
    return out
