"""Grid experiments over window geometry.

A sweep fixes the flow data and varies (width, stride); each cell builds its
matrix, runs run_single on it — split, training, evaluation — under the one
SplitSpec, and lands in one CSV row. A cell whose stride is a multiple of a
smaller stride of its width takes its windows from that stride's build
instead of windowing again. Cells are independent, so failures are recorded
in-place and the rest of the grid still runs. A grid orders its flows once
for all its builds (windows.order_flows), then deals the builds over the
usable cores, each share but the first run by a forked worker process that
sends its cells back; while workers run, each process has a core of its
own and BLAS runs on one thread. Repeat runs re-execute a single cell
under consecutive seeds to expose sampling variance; scenario comparison
runs one fixed cell across several capture files.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace

from ._util import (atomic_write_text, blas_survives_fork, blas_threads,
                    fmt_g9, in_shares, shares)
from .errors import FlowsiftError
from .features import FeatureMatrix
from .ingest import FlowTable, read_flows
from .logreg import fit
from .metrics import MetricsReport, evaluate
from .split import SplitSpec, split
from .windows import (OrderedFlows, WindowConfig, build_matrix, order_flows,
                      stride_multiple)

SWEEP_CSV_HEADER = ("width_s,stride_s,seed,"
                    "train_precision,train_recall,train_f1,"
                    "test_precision,test_recall,test_f1,"
                    "rows_train,rows_test,wall_time_s,status")

REPEAT_CSV_HEADER = ("run,seed,"
                     "train_precision,train_recall,train_f1,"
                     "test_precision,test_recall,test_f1,wall_time_s")

SCENARIO_CSV_HEADER = "scenario," + SWEEP_CSV_HEADER

_METRIC_KEYS = ("train_precision", "train_recall", "train_f1",
                "test_precision", "test_recall", "test_f1")


@dataclass
class SweepCell:
    """Outcome of one (width, stride) grid point.

    status is "ok", "ok:stride_gap" when stride > width left coverage holes,
    or "error:<ExceptionName>" when the cell failed; metric fields are None
    in the error case.
    """

    width_s: int
    stride_s: int
    seed: int
    train: MetricsReport | None = None
    test: MetricsReport | None = None
    wall_time_s: float | None = None
    status: str = "ok"

    @property
    def rows_train(self) -> int | None:
        return None if self.train is None else self.train.confusion.total

    @property
    def rows_test(self) -> int | None:
        return None if self.test is None else self.test.confusion.total

    def metric(self, key: str) -> float | None:
        report = self.train if key.startswith("train_") else self.test
        if report is None:
            return None
        return getattr(report, key.split("_", 1)[1])


@dataclass
class SweepResult:
    cells: list[SweepCell] = field(default_factory=list)

    @property
    def ok_cells(self) -> list[SweepCell]:
        return [c for c in self.cells if c.status.startswith("ok")]


def run_single(matrix: FeatureMatrix, spec: SplitSpec | None = None
               ) -> tuple[MetricsReport, MetricsReport]:
    """One cell pass on a built matrix: split it under spec (chronological
    by default; the seed is spec.seed), fit on the train side and score
    both sides. Returns (train report, test report)."""
    train_m, test_m = split(matrix, spec or SplitSpec())
    model, _ = fit(train_m)
    return evaluate(model, train_m), evaluate(model, test_m)


# what a cell records as its status instead of raising: reading a capture,
# building, splitting or fitting failed
_CELL_ERRORS = (OSError, UnicodeDecodeError, FlowsiftError)


def _run_cell(width_s: int, stride_s: int, spec: SplitSpec,
              matrix: FeatureMatrix | Exception, t0: float) -> SweepCell:
    """Score one cell's matrix with run_single and record the outcome.
    matrix is the error that making it raised when that failed; t0
    backdates the wall time to cover the work that made it."""
    cell = SweepCell(width_s=width_s, stride_s=stride_s, seed=spec.seed)
    try:
        if isinstance(matrix, Exception):
            raise matrix
        cell.train, cell.test = run_single(matrix, spec)
    except _CELL_ERRORS as exc:
        cell.status = f"error:{type(exc).__name__}"
    else:
        if WindowConfig(width_s=width_s, stride_s=stride_s).coverage_gap:
            cell.status = "ok:stride_gap"
    cell.wall_time_s = time.perf_counter() - t0
    return cell


def _plan_builds(geometries: list[tuple[int, int]]
                 ) -> dict[tuple[int, int], list[int]]:
    """Map each geometry to build onto the strides to run from it: its own
    first, then the larger strides of its width that it divides.

    Within a width, a stride is built when no smaller stride of that width
    divides it; otherwise it is derived from its smallest built divisor.
    """
    plan: dict[tuple[int, int], list[int]] = {}
    for width_s in dict.fromkeys(w for w, _ in geometries):
        built: list[int] = []
        for stride_s in sorted({s for w, s in geometries if w == width_s}):
            base = next((b for b in built if stride_s % b == 0), None)
            if base is None:
                built.append(stride_s)
                plan[(width_s, stride_s)] = [stride_s]
            else:
                plan[(width_s, base)].append(stride_s)
    return plan


def _run_build(flows: FlowTable, orders: list[OrderedFlows], width_s: int,
               strides: list[int], spec: SplitSpec) -> list[SweepCell]:
    """Build (width_s, strides[0]) once, from the order it pops off orders,
    then run its cell and the cell of every later stride, each a multiple
    of strides[0], on rows of that build. The built cell's wall time
    includes the build; a derived cell's covers its derivation, split, fit
    and evaluation. A failed build is every served cell's error."""
    t0 = time.perf_counter()
    try:
        base = build_matrix(flows, WindowConfig(width_s=width_s,
                                                stride_s=strides[0]),
                            order=orders.pop())
    except _CELL_ERRORS as exc:
        return [_run_cell(width_s, s, spec, exc, t0) for s in strides]
    cells = [_run_cell(width_s, strides[0], spec, base, t0)]
    for stride_s in strides[1:]:
        t0 = time.perf_counter()
        matrix = stride_multiple(base, stride_s // strides[0])
        if stride_s == strides[-1]:
            base = None     # its last derived matrix exists
        cells.append(_run_cell(width_s, stride_s, spec, matrix, t0))
    return cells


def run_grid(flows: FlowTable,
             widths: list[int],
             strides: list[int],
             spec: SplitSpec | None = None,
             ) -> SweepResult:
    """Cartesian sweep in request order: widths outer, strides inner.

    Every cell splits under the one spec (chronological by default), seed
    included, so cells differ only in geometry. The flows are ordered once
    (order_flows), before any worker is forked. Each distinct geometry is
    computed once, and each width is built once per stride that no smaller
    requested stride divides: a larger stride is derived from the build of
    its smallest such divisor (stride_multiple), bit for bit. Each build
    runs its own cell and those derived from it.

    The builds are dealt round-robin, in plan order, into shares
    (_util.shares, at most one per build), which run in forked workers
    (_util.in_shares) with numpy's BLAS on one thread. Workers fit and
    score, so everything runs in this process, BLAS threads untouched,
    where numpy's BLAS may not survive a fork (_util.blas_survives_fork). A
    cell's error is its status; any other exception in a share is raised
    here, and a worker that ends without sending its cells raises
    ChildProcessError. A repeated (width, stride) pair repeats its cell's
    row.
    """
    spec = spec or SplitSpec()
    combos = [(w, s) for w in widths for s in strides]
    builds = [(width_s, served)
              for (width_s, _), served in _plan_builds(combos).items()]
    n = shares(len(builds)) if blas_survives_fork() else 1
    # ordered before the fork, so workers read the order from the pages
    # they share with this process. held[i] is share i's references to it,
    # one per build, and each build pops one: a process frees the order
    # before the fits of its last build. in_shares runs share 0 here once
    # every worker is forked with its own copy of held
    order = order_flows(flows)
    held = [[order] * len(builds[i::n]) for i in range(n)]
    del order

    def run_share(i: int) -> list[SweepCell]:
        orders = held[i]
        held.clear()        # the other shares' references, in this process
        return [cell for width_s, served in builds[i::n]
                for cell in _run_build(flows, orders, width_s, served, spec)]

    def sender(i: int) -> str:
        return "the sweep worker for builds " + ", ".join(
            f"{width_s}/{served[0]}" for width_s, served in builds[i::n])

    # set before the fork, so that every worker inherits the one thread, and
    # given back after in_shares has given this thread its CPU mask back: a
    # pool that OpenBLAS starts while this thread is pinned keeps its one CPU
    with blas_threads(1) if n > 1 else contextlib.nullcontext():
        cells = [cell for share in in_shares(run_share, n, sender)
                 for cell in share]
    done = {(c.width_s, c.stride_s): c for c in cells}
    return SweepResult(cells=[replace(done[ws]) for ws in combos])


def repeat_runs(flows: FlowTable,
                width_s: int,
                stride_s: int,
                runs: int,
                spec: SplitSpec | None = None,
                ) -> tuple[list[SweepCell], dict]:
    """Re-run one cell under seeds spec.seed..spec.seed+runs-1; spec
    defaults to a stratified random split at seed 0.

    The matrix does not depend on the seed, so it is built once; each
    cell's wall_time_s covers its split, fit and evaluation. Returns the
    cells plus a dispersion table {metric: {min,max,range}}. Dispersion
    needs at least two runs to mean anything.
    """
    if runs < 2:
        raise ValueError(f"runs must be >= 2, got {runs}")
    spec = spec or SplitSpec(mode="stratified_random")
    cfg = WindowConfig(width_s=width_s, stride_s=stride_s)
    matrix = build_matrix(flows, cfg)
    status = "ok:stride_gap" if cfg.coverage_gap else "ok"
    out: list[SweepCell] = []
    for seed in range(spec.seed, spec.seed + runs):
        t0 = time.perf_counter()
        train, test = run_single(matrix, replace(spec, seed=seed))
        out.append(SweepCell(width_s=width_s, stride_s=stride_s, seed=seed,
                             train=train, test=test, status=status,
                             wall_time_s=time.perf_counter() - t0))
    dispersion = {}
    for key in _METRIC_KEYS:
        vals = [c.metric(key) for c in out]
        lo, hi = min(vals), max(vals)
        dispersion[key] = {"min": lo, "max": hi, "range": hi - lo}
    return out, dispersion


@dataclass
class ScenarioCell:
    scenario: int
    cell: SweepCell


def scenario_compare(scenario_files: dict[int, str],
                     width_s: int,
                     stride_s: int,
                     spec: SplitSpec | None = None,
                     on_error: str = "skip",
                     ) -> list[ScenarioCell]:
    """Run one fixed (width, stride) cell per capture file.

    Each capture is read with read_flows under the on_error row policy. A
    failure in one capture (missing file, text that is not UTF-8, bad rows,
    degenerate split) is recorded in that row and the remaining captures
    still run.
    """
    spec = spec or SplitSpec()
    cfg = WindowConfig(width_s=width_s, stride_s=stride_s)
    out: list[ScenarioCell] = []
    for scenario_id in sorted(scenario_files):
        t0 = time.perf_counter()
        try:
            flows, _ = read_flows(scenario_files[scenario_id],
                                  on_error=on_error)
            matrix = build_matrix(flows, cfg)
        except _CELL_ERRORS as exc:
            matrix = exc
        out.append(ScenarioCell(
            scenario=scenario_id,
            cell=_run_cell(width_s, stride_s, spec, matrix, t0)))
    return out


def _cell_fields(cell: SweepCell, timings: bool) -> list[str]:
    metrics = [fmt_g9(cell.metric(k)) if cell.metric(k) is not None else ""
               for k in _METRIC_KEYS]
    rows = [str(cell.rows_train) if cell.rows_train is not None else "",
            str(cell.rows_test) if cell.rows_test is not None else ""]
    wall = f"{cell.wall_time_s:.3f}" if timings and cell.wall_time_s is not None else ""
    return ([str(cell.width_s), str(cell.stride_s), str(cell.seed)]
            + metrics + rows + [wall, cell.status])


def sweep_csv(result: SweepResult, timings: bool = False) -> str:
    """Sweep CSV; wall_time_s stays empty unless timings is set, keeping
    reruns byte-identical."""
    lines = [SWEEP_CSV_HEADER]
    for cell in result.cells:
        lines.append(",".join(_cell_fields(cell, timings)))
    return "\n".join(lines) + "\n"


def repeat_csv(runs: list[SweepCell], dispersion: dict,
               timings: bool = False) -> str:
    """Per-run rows followed by min/max/range summary rows."""
    lines = [REPEAT_CSV_HEADER]
    for i, cell in enumerate(runs):
        metrics = [fmt_g9(cell.metric(k)) for k in _METRIC_KEYS]
        wall = f"{cell.wall_time_s:.3f}" if timings else ""
        lines.append(",".join([str(i), str(cell.seed)] + metrics + [wall]))
    for stat in ("min", "max", "range"):
        metrics = [fmt_g9(dispersion[k][stat]) for k in _METRIC_KEYS]
        lines.append(",".join([stat, ""] + metrics + [""]))
    return "\n".join(lines) + "\n"


def scenarios_csv(rows: list[ScenarioCell], timings: bool = False) -> str:
    lines = [SCENARIO_CSV_HEADER]
    for row in rows:
        lines.append(",".join([str(row.scenario)]
                              + _cell_fields(row.cell, timings)))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, result: SweepResult, timings: bool = False) -> None:
    atomic_write_text(path, sweep_csv(result, timings))


def write_repeat_csv(path, runs, dispersion, timings: bool = False) -> None:
    atomic_write_text(path, repeat_csv(runs, dispersion, timings))


def write_scenarios_csv(path, rows, timings: bool = False) -> None:
    atomic_write_text(path, scenarios_csv(rows, timings))
