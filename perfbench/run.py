"""flowsift benchmark: one workload per invocation.

    python3 perfbench/run.py --workload runbook --seed 1 --seconds 50 --trace 0

Closed loop: one batch job at a time, each in a fresh process that runs the
workload's CLI commands through ``flowsift.cli.main(argv)``. The input is a
synthetic capture that ``flowsift.synth`` generates from --seed.

A run sets up five times (fresh process: import flowsift, generate the
capture), once before the first execution and then between executions, and
reports the median as setup_s. It executes the job again and again until
--seconds of executions have passed, at least twice, and checks every
execution's exit codes and outputs. With --trace 0 it prints the
end-to-end metrics; job_s is the mean job time over the run. With --trace 1
executions cycle through plain, traced (spans.py) and traced with
tracemalloc, at least one of each, and it prints the per-layer metrics: times and counts from the traced executions, peak
allocations from the tracemalloc ones. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

See perfbench/README.md for the workloads and the metric definitions.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUPS = 5
MIN_EXECUTIONS = 2
DEADLINE_S = 170.0
CAPTURE = "../capture.csv"


@dataclass(frozen=True)
class Workload:
    scale: float                        # capture duration / 30-min preset
    commands: tuple[tuple[str, ...], ...]   # each ends in "-o <artifact>"
    check: Callable[[Path], "Outcome"]  # reads one execution's artifacts


@dataclass
class Outcome:
    """What a workload's output check found in one execution."""
    f1: float
    ops: int = 0          # sweep cells
    failed_ops: int = 0
    problems: tuple[str, ...] = ()


def _mean_test_f1(rows: list[dict]) -> float:
    values = [float(r["test_f1"]) for r in rows if r["test_f1"]]
    return statistics.fmean(values) if values else 0.0


def check_runbook(d: Path) -> Outcome:
    with open(d / "report.txt", encoding="utf-8") as fh:
        f1 = json.load(fh)["f1"]
    problems = () if f1 >= 0.9 else (f"eval f1 {f1} < 0.9",)
    return Outcome(f1=f1, problems=problems)


SWEEP_CELLS = 4


def check_sweep(d: Path) -> Outcome:
    with open(d / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    bad = [f"cell {r['width_s']}/{r['stride_s']} {r['status']}"
           for r in rows if r["status"] != "ok"]
    # the README's promise for the default preset: precision and recall
    # above 0.9 on a chronological test split (the 600-s cells keep too few
    # test windows after the purge to hold it)
    weak = [f"cell {r['width_s']}/{r['stride_s']} test precision "
            f"{r['test_precision']} recall {r['test_recall']} < 0.9"
            for r in rows if r["status"] == "ok" and r["width_s"] == "90"
            and min(float(r["test_precision"]),
                    float(r["test_recall"])) < 0.9]
    problems = tuple(bad + weak)
    if len(rows) != SWEEP_CELLS:
        problems += (f"{len(rows)} sweep rows, expected {SWEEP_CELLS}",)
    return Outcome(f1=_mean_test_f1(rows), ops=SWEEP_CELLS,
                   failed_ops=len(bad) + len(weak)
                   + max(0, SWEEP_CELLS - len(rows)),
                   problems=problems)


WORKLOADS = {
    "runbook": Workload(
        scale=0.25,
        commands=(
            ("featurize", CAPTURE, "--width", "90", "--stride", "15",
             "-o", "features.csv"),
            ("train", "features.csv", "-o", "model.txt"),
            ("eval", "features.csv", "--model", "model.txt",
             "-o", "report.txt"),
        ),
        check=check_runbook),
    "sweep-grid": Workload(
        scale=1.0,
        commands=(
            ("sweep", CAPTURE, "--widths", "90,600", "--strides", "15,60",
             "--fraction", "0.3", "-o", "sweep.csv"),
        ),
        check=check_sweep),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(args: list[str], cwd: Path,
              deadline: float | None) -> tuple[dict, float]:
    """Run job.py in a fresh interpreter; returns (its JSON, wall seconds).

    deadline is a perf_counter time by which the child must have ended.
    """
    timeout = None
    if deadline is not None:
        timeout = deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), *args], cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"job.py {args[0]} timed out") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"job.py {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def setup(wl: Workload, seed: int, work: Path, deadline: float) -> dict:
    """Generate the capture in a fresh process; returns the process's JSON
    plus its wall time and the capture's digest."""
    argv = ["synth", "--scale", str(wl.scale), "--seed", str(seed),
            "-o", "capture.csv"]
    out, wall = run_child(argv, work, deadline)
    out["wall_s"] = wall
    out["digest"] = hashlib.sha256(
        (work / "capture.csv").read_bytes()).hexdigest()
    return out


PLAIN, SPANS, MEMORY = "plain", "spans", "memory"


def execute(wl: Workload, work: Path, index: int, kind: str,
            deadline: float) -> dict:
    d = work / f"exec-{index}"
    d.mkdir()
    spec = {"commands": [list(c) for c in wl.commands],
            "artifacts": [c[-1] for c in wl.commands]}
    (d / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    args = ["run", "--spec", "spec.json"]
    if kind != PLAIN:
        args += ["--spans", "spans.json"]
    if kind == MEMORY:
        args.append("--memory")
    out, _ = run_child(args, d, deadline)
    out["dir"], out["kind"] = d, kind
    if kind != PLAIN:
        with open(d / "spans.json", encoding="utf-8") as fh:
            out["spans"] = json.load(fh)
    return out


def judge(wl: Workload, execs: list[dict]) -> tuple[int, int, float,
                                                     list[str]]:
    """Count operations (commands, cells) and failures over all
    executions; returns (attempted, failed, f1, problems)."""
    attempted = failed = 0
    problems: list[str] = []
    reference = execs[0]["digests"]
    f1 = 0.0
    for i, ex in enumerate(execs):
        for j, argv in enumerate(wl.commands):
            attempted += 1
            artifact = argv[-1]
            code = ex["codes"][j] if j < len(ex["codes"]) else None
            if code != 0:
                failed += 1
                problems.append(f"exec {i}: {argv[0]} exit code {code}")
            elif ex["digests"][artifact] != reference[artifact]:
                failed += 1
                problems.append(f"exec {i}: {artifact} differs from exec 0")
        if ex["codes"] != [0] * len(wl.commands):
            continue        # counted above; there is no output to check
        outcome = wl.check(ex["dir"])
        attempted += outcome.ops
        failed += outcome.failed_ops
        if outcome.problems and not outcome.failed_ops:
            failed += 1     # the last command's output failed its check
        problems += [f"exec {i}: {p}" for p in outcome.problems]
        if i == 0:
            f1 = outcome.f1
    return attempted, failed, f1, problems


# ------------------------------------------------------------------ metrics

def layer_metrics(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    root = next(s for s in spans if s["parent"] is None)

    def pick(layer, *names):
        return [s for s in spans if s["layer"] == layer
                and (not names or s["name"] in names)]

    def self_s(ss):
        return sum(own[s["id"]] for s in ss)

    def wall_s(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def total(ss, key):
        return sum(s["counts"].get(key, 0) for s in ss)

    def peak(ss):
        return max((s["peak_alloc_mb"] for s in ss), default=0.0)

    ingest, windows = pick("ingest"), pick("windows")
    writes = pick("features", "write_matrix_csv")
    reads = pick("features", "read_matrix_csv")
    splits, fits = pick("split"), pick("logreg", "fit")
    cells = pick("sweep", "run_single")
    grids = pick("sweep", "run_grid")
    rows = total(ingest, "rows")
    row_iters = sum(s["counts"]["rows"] * s["counts"]["iterations"]
                    for s in fits)
    return {
        "ingest.read_s": self_s(ingest),
        "ingest.us_per_row": 1e6 * wall_s(ingest) / rows if rows else 0.0,
        "ingest.rows": rows,
        "ingest.skipped": total(ingest, "skipped"),
        "ingest.unrecognized_labels": total(ingest, "unrecognized_labels"),
        "ingest.src_bytes_over_total": total(ingest, "src_bytes_over_total"),
        "ingest.peak_alloc_mb": peak(ingest),
        "windows.build_s": self_s(windows),
        "windows.calls": len(windows),
        "windows.entries": total(windows, "entries"),
        "windows.rows": total(windows, "rows"),
        "windows.peak_alloc_mb": peak(windows),
        "features.write_csv_s": self_s(writes),
        "features.read_csv_s": self_s(reads),
        "features.csv_mb": total(writes, "bytes") / float(1 << 20),
        "features.peak_alloc_mb": peak(writes + reads),
        "split.s": self_s(splits),
        "split.rows_train": total(splits, "rows_train"),
        "split.rows_test": total(splits, "rows_test"),
        "split.rows_purged": total(splits, "rows_purged"),
        "logreg.fit_s": self_s(fits),
        "logreg.fits": len(fits),
        "logreg.iterations": total(fits, "iterations"),
        "logreg.converged_share":
            total(fits, "converged") / len(fits) if fits else 0.0,
        "logreg.final_loss": statistics.fmean(
            s["counts"]["final_loss"] for s in fits) if fits else 0.0,
        "logreg.us_per_row_iter":
            1e6 * wall_s(fits) / row_iters if row_iters else 0.0,
        "logreg.model_io_s": self_s(pick("logreg", "save_model",
                                         "load_model")),
        "logreg.peak_alloc_mb": peak(fits),
        "metrics.evaluate_s": self_s(pick("metrics")),
        "sweep.self_s": self_s(pick("sweep")),
        "sweep.cell_s": statistics.median(
            s["end"] - s["start"] for s in cells) if cells else 0.0,
        "sweep.cells": len(cells),
        "sweep.cells_failed": total(grids, "cells_failed"),
        "cli.self_s": self_s(pick("cli")),
        "trace.job_s": root["end"] - root["start"],
    }


SELF_TIME_KEYS = ("ingest.read_s", "windows.build_s", "features.write_csv_s",
                  "features.read_csv_s", "split.s", "logreg.fit_s",
                  "logreg.model_io_s", "metrics.evaluate_s", "sweep.self_s",
                  "cli.self_s")

UNITS = {"_s": "s", "_mb": "MB", "us_per_row": "us", "us_per_row_iter": "us",
         "_share": "ratio", "final_loss": "nats"}


def unit_of(name: str) -> str:
    if name == "split.s":
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def mean_job_s(execs: list[dict]) -> float:
    """Execution seconds per job over the run: the inverse of the run's job
    throughput. Host speed moves in steps that last about as long as a run,
    and the median jumps to whichever step held more executions; the mean
    weighs each step by how long it lasted."""
    return statistics.fmean(e["job_s"] for e in execs)


def end_to_end(execs: list[dict], prep: dict, f1: float, attempted: int,
               failed: int) -> dict[str, tuple[float, str]]:
    return {
        "job_s": (mean_job_s(execs), "s"),
        "peak_rss_mb": (statistics.median(e["maxrss_mb"] for e in execs),
                        "MB"),
        "setup_s": (prep["setup_s"], "s"),
        "f1": (f1, "ratio"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(execs: list[dict], prep: dict,
              problems: list[str]) -> dict[str, tuple[float, str]]:
    plain = [e for e in execs if e["kind"] == PLAIN]
    timed = [layer_metrics(e["spans"]) for e in execs if e["kind"] == SPANS]
    memory = [layer_metrics(e["spans"]) for e in execs
              if e["kind"] == MEMORY]
    for i, m in enumerate(timed):
        gap = m["trace.job_s"] - sum(m[k] for k in SELF_TIME_KEYS)
        if abs(gap) > 1e-6 * max(1.0, m["trace.job_s"]):
            problems.append(f"traced exec {i}: self times miss {gap:.6f} s")
    out = {}
    for name in timed[0]:
        source = memory if name.endswith("peak_alloc_mb") else timed
        out[name] = (statistics.median(m[name] for m in source),
                     unit_of(name))
    out["synth.write_s"] = (prep["write_s"], "s")
    out["trace.overhead_s"] = (
        out["trace.job_s"][0] - mean_job_s(plain),
        "s")
    return out


# --------------------------------------------------------------------- main

def environment() -> str:
    import numpy
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return (f"nproc={os.cpu_count()} ram_gb={ram / 2**30:.1f} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "flowsift" / "__init__.py").is_file():
        raise BenchError(f"no flowsift package under {SRC}")
    wl = WORKLOADS[workload]
    deadline = time.perf_counter() + DEADLINE_S
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # set-ups are spread between the executions so that their median,
        # like the executions', spans the whole run and not one stretch of
        # machine speed; only execution time counts towards --seconds
        setups = [setup(wl, seed, work, deadline)]
        kinds = (PLAIN, SPANS, MEMORY) if trace else (PLAIN,)
        execs: list[dict] = []
        t0 = time.perf_counter()
        while len(execs) < max(MIN_EXECUTIONS, len(kinds)) or \
                time.perf_counter() - t0 - sum(
                    s["wall_s"] for s in setups[1:]) < seconds:
            kind = kinds[len(execs) % len(kinds)]
            execs.append(execute(wl, work, len(execs), kind, deadline))
            if len(setups) < SETUPS:
                setups.append(setup(wl, seed, work, deadline))
        while len(setups) < SETUPS:
            setups.append(setup(wl, seed, work, deadline))
        if len({s["digest"] for s in setups}) != 1:
            raise BenchError("synth wrote different captures from one seed")
        prep = {"setup_s": statistics.median(s["wall_s"] for s in setups),
                "write_s": statistics.median(s["write_s"] for s in setups),
                "flows": setups[0]["flows"]}
        attempted, failed, f1, problems = judge(wl, execs)
        if trace:
            metrics = per_layer(execs, prep, problems)
        else:
            metrics = end_to_end(execs, prep, f1, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass            # another run's directory is still there
    print(f"env: {environment()}")
    print(f"workload: {workload} seed={seed} flows={prep['flows']} "
          f"setups={SETUPS}")
    for e in execs:
        print(f"execution {e['dir'].name}: {e['kind']} job_s={e['job_s']:.4f} "
              f"maxrss_mb={e['maxrss_mb']:.1f}")
    for p in problems:
        print(f"problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
