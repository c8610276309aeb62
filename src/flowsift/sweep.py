"""Grid experiments over window geometry.

A sweep fixes the flow data and varies (width, stride); each cell runs the
full pipeline — windowing, split, training, evaluation — and lands in one CSV
row. A cell whose stride is a multiple of a smaller stride of its width takes
its windows from that stride's build instead of windowing again. Cells are
independent, so failures are recorded in-place and the rest of the grid
still runs. Repeat runs re-execute a single cell under consecutive
seeds to expose sampling variance; scenario comparison runs one fixed cell
across several capture files.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from ._util import atomic_write_text, fmt_g9, usable_cores
from .errors import FlowsiftError
from .features import FeatureMatrix
from .ingest import FlowTable, read_flows
from .logreg import fit
from .metrics import MetricsReport, evaluate
from .split import SplitSpec, split
from .windows import WindowConfig, build_matrix, stride_multiple

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
    rows_train: int | None = None
    rows_test: int | None = None
    wall_time_s: float | None = None
    status: str = "ok"

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


def run_single(flows: FlowTable,
               width_s: int,
               stride_s: int,
               spec: SplitSpec | None = None,
               seed: int = 0,
               *,
               _matrix: FeatureMatrix | None = None,
               ) -> tuple[MetricsReport, MetricsReport]:
    """One full pipeline pass; returns (train report, test report).

    _matrix, when given, is the already-built matrix of this geometry (how
    run_grid hands a cell the rows it shares with another); it is not built
    again.
    """
    if _matrix is None:
        cfg = WindowConfig(width_s=width_s, stride_s=stride_s)
        _matrix = build_matrix(flows, cfg)
    return _train_score(_matrix, spec, seed)


def _train_score(matrix: FeatureMatrix, spec: SplitSpec | None,
                 seed: int) -> tuple[MetricsReport, MetricsReport]:
    """Split, fit and evaluate an already-built matrix under one seed."""
    spec = replace(spec or SplitSpec(), seed=seed)
    train_m, test_m = split(matrix, spec)
    model, _ = fit(train_m)
    return evaluate(model, train_m), evaluate(model, test_m)


def _record(cell: SweepCell, reports: tuple[MetricsReport, MetricsReport]
            ) -> None:
    cell.train, cell.test = reports
    cell.rows_train = cell.train.confusion.total
    cell.rows_test = cell.test.confusion.total
    cell.status = "ok:stride_gap" if cell.stride_s > cell.width_s else "ok"


def _run_cell(flows: FlowTable, width_s: int, stride_s: int,
              spec: SplitSpec | None, seed: int,
              matrix: FeatureMatrix | None = None,
              t0: float | None = None) -> SweepCell:
    """Run one cell, recording a FlowsiftError as its status. matrix is
    handed to run_single; t0 backdates the cell's wall time to cover the
    work that made it."""
    cell = SweepCell(width_s=width_s, stride_s=stride_s, seed=seed)
    if t0 is None:
        t0 = time.perf_counter()
    try:
        reports = run_single(flows, width_s, stride_s, spec, seed,
                             _matrix=matrix)
    except FlowsiftError as exc:
        cell.status = f"error:{type(exc).__name__}"
    else:
        _record(cell, reports)
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


def _run_build(flows: FlowTable, width_s: int, strides: list[int],
               spec: SplitSpec | None, seed: int) -> list[SweepCell]:
    """Build (width_s, strides[0]) once, then run its cell and the cell of
    every later stride, each a multiple of strides[0], on rows of that
    build. The built cell's wall time includes the build; a derived cell's
    covers its derivation, split, fit and evaluation."""
    t0 = time.perf_counter()
    try:
        base = build_matrix(flows, WindowConfig(width_s=width_s,
                                                stride_s=strides[0]))
    except FlowsiftError as exc:
        wall = time.perf_counter() - t0
        return [SweepCell(width_s=width_s, stride_s=s, seed=seed,
                          wall_time_s=wall,
                          status=f"error:{type(exc).__name__}")
                for s in strides]
    cells = [_run_cell(flows, width_s, strides[0], spec, seed, base, t0)]
    for stride_s in strides[1:]:
        t0 = time.perf_counter()
        matrix = stride_multiple(base, stride_s // strides[0])
        if stride_s == strides[-1]:
            base = None     # its last derived matrix exists
        cells.append(_run_cell(flows, width_s, stride_s, spec, seed,
                               matrix, t0))
    return cells


def run_grid(flows: FlowTable,
             widths: list[int],
             strides: list[int],
             spec: SplitSpec | None = None,
             base_seed: int = 0,
             ) -> SweepResult:
    """Cartesian sweep in request order: widths outer, strides inner.

    Every cell uses the same base seed so cells differ only in geometry.
    Each distinct geometry is computed once, and each width is built once
    per stride that no smaller requested stride divides: a larger stride is
    derived from the build of its smallest such divisor (stride_multiple),
    bit for bit. Builds run on a thread pool with one worker per core, at
    most one per build; each runs its own cell and those derived from it. A
    repeated (width, stride) pair repeats its cell's row.
    """
    combos = [(w, s) for w in widths for s in strides]
    plan = _plan_builds(combos)
    workers = max(1, min(len(plan), usable_cores()))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        built = pool.map(lambda b: _run_build(flows, b[0], plan[b], spec,
                                              base_seed), plan)
        done = {(c.width_s, c.stride_s): c for cells in built for c in cells}
    return SweepResult(cells=[replace(done[ws]) for ws in combos])


def repeat_runs(flows: FlowTable,
                width_s: int,
                stride_s: int,
                runs: int,
                spec: SplitSpec | None = None,
                base_seed: int = 0,
                ) -> tuple[list[SweepCell], dict]:
    """Re-run one cell under seeds base_seed..base_seed+runs-1.

    The matrix does not depend on the seed, so it is built once; each
    cell's wall_time_s covers its split, fit and evaluation. Returns the
    cells plus a dispersion table {metric: {min,max,range}}. Dispersion
    needs at least two runs to mean anything.
    """
    if runs < 2:
        raise ValueError(f"runs must be >= 2, got {runs}")
    if spec is None:
        spec = SplitSpec(mode="stratified_random")
    cfg = WindowConfig(width_s=width_s, stride_s=stride_s)
    matrix = build_matrix(flows, cfg)
    out: list[SweepCell] = []
    for seed in range(base_seed, base_seed + runs):
        cell = SweepCell(width_s=width_s, stride_s=stride_s, seed=seed)
        t0 = time.perf_counter()
        _record(cell, _train_score(matrix, spec, seed))
        cell.wall_time_s = time.perf_counter() - t0
        out.append(cell)
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
                     width_s: int = 189,
                     stride_s: int = 129,
                     spec: SplitSpec | None = None,
                     seed: int = 0,
                     on_error: str = "skip",
                     ) -> list[ScenarioCell]:
    """Run one fixed (width, stride) cell per capture file.

    Each capture is read with read_flows under the on_error row policy. A
    failure in one capture (missing file, text that is not UTF-8, bad rows,
    degenerate split) is recorded in that row and the remaining captures
    still run.
    """
    out: list[ScenarioCell] = []
    for scenario_id in sorted(scenario_files):
        path = scenario_files[scenario_id]
        t0 = time.perf_counter()
        try:
            flows, _ = read_flows(path, on_error=on_error)
        except (OSError, UnicodeDecodeError, FlowsiftError) as exc:
            cell = SweepCell(width_s=width_s, stride_s=stride_s, seed=seed,
                             status=f"error:{type(exc).__name__}",
                             wall_time_s=time.perf_counter() - t0)
            out.append(ScenarioCell(scenario=scenario_id, cell=cell))
            continue
        cell = _run_cell(flows, width_s, stride_s, spec, seed)
        out.append(ScenarioCell(scenario=scenario_id, cell=cell))
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
