"""Grid sweeps, repeated runs, per-capture comparison, and their CSV forms."""
import pytest

import flowsift.sweep
from flowsift import (
    ClassProfile,
    FlowTable,
    SplitSpec,
    SweepResult,
    SynthConfig,
    WindowConfig,
    build_matrix,
    parse_line,
    repeat_runs,
    run_grid,
    run_single,
    scenario_compare,
    split,
    synthesize,
    write_synth,
)
from flowsift.reference import WIDTH_STRIDE_RESULTS
from flowsift.sweep import (
    REPEAT_CSV_HEADER,
    SCENARIO_CSV_HEADER,
    SWEEP_CSV_HEADER,
    repeat_csv,
    scenarios_csv,
    sweep_csv,
)

BACKGROUND = ClassProfile(
    n_sources=8, rate_per_s=0.02,
    dur_dist=("exp", 20.0), pkts_p=0.05,
    bpp_dist=("lognormal", 6.5, 1.0),
    protos=("tcp", "udp"), proto_weights=(0.8, 0.2),
    dports=(80, 443, 53),
    label="flow=Background-TCP-Established", src_prefix="10.9")

NORMAL = ClassProfile(
    n_sources=3, rate_per_s=0.01,
    dur_dist=("lognormal", 0.0, 1.0), pkts_p=0.10,
    bpp_dist=("normal", 800.0, 200.0),
    protos=("tcp",), proto_weights=(1.0,),
    dports=(80, 443),
    label="flow=To-Normal-V42-HTTP", src_prefix="147.32.84")

BOTNET = ClassProfile(
    n_sources=2, rate_per_s=0.08,
    dur_dist=("normal", 0.1, 0.02), pkts_p=0.5,
    bpp_dist=("normal", 70.0, 3.0),
    protos=("tcp",), proto_weights=(1.0,),
    dports=(6667,),
    label="flow=From-Botnet-V42-TCP-Attempt", src_prefix="147.32.85")

CNC = ClassProfile(
    n_sources=1, rate_per_s=0.3,
    dur_dist=("normal", 0.05, 0.005), pkts_p=0.7,
    bpp_dist=("normal", 66.0, 1.0),
    protos=("tcp",), proto_weights=(1.0,),
    dports=(443,),
    label="flow=From-Botnet-V42-TCP-CC", src_prefix="147.32.86",
    active_s=(1000.0, 300.0))

CORPUS_CONFIG = SynthConfig(
    duration_s=4500.0, background=BACKGROUND, normal=NORMAL,
    botnet=BOTNET, cnc=CNC, seed=7)


@pytest.fixture(scope="module")
def corpus():
    lines = synthesize(CORPUS_CONFIG)
    return FlowTable.from_records(parse_line(line, i + 1)
                                  for i, line in enumerate(lines))


def test_run_single_learns_the_easy_corpus(corpus):
    train, test = run_single(corpus, width_s=90, stride_s=15,
                             spec=SplitSpec(), seed=0)
    assert test.precision >= 0.9 and test.recall >= 0.9
    # each report scores its own side of the default chronological split
    train_m, test_m = split(
        build_matrix(corpus, WindowConfig(width_s=90, stride_s=15)),
        SplitSpec(mode="chronological"))
    assert train.confusion.total == train_m.n_rows
    assert test.confusion.total == test_m.n_rows


def test_run_single_deterministic(corpus):
    a = run_single(corpus, 60, 60, seed=3)
    b = run_single(corpus, 60, 60, seed=3)
    assert a[1].confusion == b[1].confusion
    assert a[1].precision == b[1].precision
    assert a[0].f1 == b[0].f1


def test_run_grid_order_and_statuses(corpus):
    result = run_grid(corpus, widths=[60, 90], strides=[15, 60])
    assert [(c.width_s, c.stride_s) for c in result.cells] == [
        (60, 15), (60, 60), (90, 15), (90, 60)]
    assert all(c.status == "ok" for c in result.cells)
    assert all(c.seed == 0 for c in result.cells), \
        "cells share one seed so only geometry varies"
    assert len(result.ok_cells) == 4


def test_run_grid_published_configurations_all_succeed(corpus):
    """Every (width, stride) pair from the published sweep runs cleanly on a
    synthetic corpus long enough to hold the widest window."""
    configs = sorted({(r.width_s, r.stride_s) for r in WIDTH_STRIDE_RESULTS})
    widths = sorted({w for w, _ in configs})
    strides = sorted({s for _, s in configs})
    # run each published pair exactly once, not the full cartesian grid
    cells = []
    for width, stride in configs:
        cells.extend(run_grid(corpus, [width], [stride]).cells)
    assert len(cells) == 15, "two of the 17 published rows are repeats"
    bad = [(c.width_s, c.stride_s, c.status)
           for c in cells if not c.status.startswith("ok")]
    assert not bad, f"failed cells: {bad}"


def test_run_grid_stride_gap_status(corpus):
    result = run_grid(corpus, widths=[30], strides=[90])
    assert result.cells[0].status == "ok:stride_gap"
    assert result.cells[0].test is not None


def test_run_grid_isolates_failed_cells(corpus):
    """A width too large for the capture degenerates; its neighbors survive."""
    result = run_grid(corpus, widths=[60, 3600], strides=[60])
    statuses = {c.width_s: c.status for c in result.cells}
    assert statuses[60] == "ok"
    assert statuses[3600] == "error:DegenerateSplit"
    failed = [c for c in result.cells if c.width_s == 3600][0]
    assert failed.train is None and failed.metric("test_f1") is None
    assert len(result.ok_cells) == 1


def test_run_grid_pooled_cells_match_run_single(corpus):
    """Running cells side by side on the pool changes no cell's result."""
    result = run_grid(corpus, widths=[60, 90], strides=[30, 60])
    for cell in result.cells:
        train, test = run_single(corpus, cell.width_s, cell.stride_s)
        assert cell.status == "ok"
        assert cell.metric("test_f1") == test.f1
        assert cell.metric("train_precision") == train.precision


def count_builds(monkeypatch):
    """Route flowsift.sweep.build_matrix through a counter; returns the list
    of (width, stride) it is called with."""
    calls = []
    real = flowsift.sweep.build_matrix

    def counting(*args, **kwargs):
        calls.append((args[1].width_s, args[1].stride_s))
        return real(*args, **kwargs)

    monkeypatch.setattr(flowsift.sweep, "build_matrix", counting)
    return calls


def test_run_grid_builds_each_width_once_per_undivided_stride(
        corpus, monkeypatch):
    """15 divides 30, 60, 75, 90 and 120: one build per width serves all
    six strides, gap geometries (120 > 90) included."""
    strides = [15, 30, 60, 75, 90, 120]
    calls = count_builds(monkeypatch)
    result = run_grid(corpus, widths=[90, 180], strides=strides)
    assert sorted(calls) == [(90, 15), (180, 15)]
    assert [(c.width_s, c.stride_s) for c in result.cells] == [
        (w, s) for w in (90, 180) for s in strides]
    monkeypatch.undo()
    for cell in result.cells:
        train, test = run_single(corpus, cell.width_s, cell.stride_s)
        assert cell.status == ("ok:stride_gap" if cell.stride_s > cell.width_s
                               else "ok")
        assert (cell.train, cell.test) == (train, test), \
            f"{cell.width_s}/{cell.stride_s} differs from its own build"


def test_run_grid_failed_build_fails_every_cell_it_serves(monkeypatch):
    """A build that raises marks its own cell and each derived cell with
    the error, as building each of them would have."""
    calls = count_builds(monkeypatch)
    result = run_grid(FlowTable.from_records([]), widths=[90],
                      strides=[15, 30])
    assert calls == [(90, 15)]
    assert [(c.stride_s, c.status) for c in result.cells] == [
        (15, "error:EmptyInput"), (30, "error:EmptyInput")]
    assert all(c.wall_time_s is not None and c.test is None
               for c in result.cells)


def test_reference_table_geometries_need_eleven_builds():
    """The paper's 15 distinct geometries: 90/15 serves 90/30, 90/75 and
    90/90, and 180/30 serves 180/120."""
    geometries = list(dict.fromkeys(
        (r.width_s, r.stride_s) for r in WIDTH_STRIDE_RESULTS))
    plan = flowsift.sweep._plan_builds(geometries)
    assert len(geometries) == 15 and len(plan) == 11
    assert plan[(90, 15)] == [15, 30, 75, 90]
    assert plan[(180, 30)] == [30, 120]
    assert sorted((w, s) for (w, _), strides in plan.items()
                  for s in strides) == sorted(geometries)


def test_run_grid_repeated_geometries_keep_request_order(corpus, monkeypatch):
    """Each distinct geometry runs once; every requested pair keeps its row,
    in request order. 30 is not a multiple of 60 and 60 is derived from 15,
    so each width is built at 15 and at no other stride."""
    calls = count_builds(monkeypatch)
    result = run_grid(corpus, widths=[90, 60, 90], strides=[60, 15, 30, 15])
    assert sorted(calls) == [(60, 15), (90, 15)]
    assert [(c.width_s, c.stride_s) for c in result.cells] == [
        (w, s) for w in (90, 60, 90) for s in (60, 15, 30, 15)]
    rows = sweep_csv(result, timings=True).split("\n")[1:-1]
    assert rows[:4] == rows[8:], "the repeated width repeats its rows"
    assert rows[1] == rows[3] and rows[5] == rows[7]
    assert len(set(rows)) == 6
    monkeypatch.undo()
    for cell in result.cells:
        train, test = run_single(corpus, cell.width_s, cell.stride_s)
        assert (cell.train, cell.test) == (train, test)


def test_repeat_runs_chronological_is_seed_invariant(corpus):
    runs, dispersion = repeat_runs(corpus, 60, 60, runs=2, spec=SplitSpec())
    assert [r.seed for r in runs] == [0, 1]
    for key, stats in dispersion.items():
        assert stats["range"] == 0.0, \
            f"{key} varied across seeds under a chronological split"


def test_repeat_runs_dispersion_arithmetic(corpus):
    runs, dispersion = repeat_runs(corpus, 60, 60, runs=4, base_seed=5)
    assert [r.seed for r in runs] == [5, 6, 7, 8]
    for key, stats in dispersion.items():
        part, name = key.split("_", 1)
        observed = [getattr(getattr(r, part), name) for r in runs]
        assert stats["min"] == min(observed)
        assert stats["max"] == max(observed)
        assert stats["range"] == stats["max"] - stats["min"]


def test_repeat_runs_builds_the_matrix_once(corpus, monkeypatch):
    """Only the split and the fit depend on the seed, so one build serves
    every run, and each run scores as run_single does at its seed."""
    spec = SplitSpec(mode="stratified_random")
    expected = [run_single(corpus, 60, 60, spec=spec, seed=seed)
                for seed in (4, 5, 6)]
    calls = count_builds(monkeypatch)
    runs, _ = repeat_runs(corpus, 60, 60, runs=3, spec=spec, base_seed=4)
    assert calls == [(60, 60)]
    assert [r.seed for r in runs] == [4, 5, 6]
    for cell, (train, test) in zip(runs, expected):
        assert cell.status == "ok"
        assert cell.rows_train == train.confusion.total
        assert cell.rows_test == test.confusion.total
        assert cell.train.confusion == train.confusion
        assert cell.test.confusion == test.confusion
        assert cell.metric("test_f1") == test.f1
        assert cell.metric("train_precision") == train.precision


def test_repeat_runs_requires_two(corpus):
    with pytest.raises(ValueError):
        repeat_runs(corpus, 60, 60, runs=1)


def test_scenario_compare_isolates_missing_capture(tmp_path):
    small = SynthConfig(duration_s=900.0, background=BACKGROUND,
                        normal=NORMAL, botnet=BOTNET,
                        cnc=CNC, seed=3)
    path = str(tmp_path / "nine.csv")
    write_synth(path, small)

    rows = scenario_compare({9: path, 5: str(tmp_path / "missing.csv")},
                            width_s=90, stride_s=30)
    assert [r.scenario for r in rows] == [5, 9], "rows sort by scenario id"
    assert rows[0].cell.status == "error:FileNotFoundError"
    assert rows[1].cell.status == "ok"
    assert rows[1].cell.test is not None


def test_sweep_csv_shape(corpus):
    result = run_grid(corpus, widths=[60, 3600], strides=[60])
    text = sweep_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    ok_cells = lines[1].split(",")
    assert ok_cells[0] == "60" and ok_cells[-1] == "ok"
    assert ok_cells[-2] == "", "wall time stays empty without --timings"
    failed = lines[2].split(",")
    assert failed[-1] == "error:DegenerateSplit"
    assert failed[3:9] == [""] * 6, "error cells leave metrics blank"
    timed = sweep_csv(result, timings=True).strip().split("\n")
    assert timed[1].split(",")[-2] != ""


def test_sweep_csv_deterministic(corpus):
    first = sweep_csv(run_grid(corpus, widths=[60], strides=[30, 60]))
    second = sweep_csv(run_grid(corpus, widths=[60], strides=[30, 60]))
    assert first == second


def test_repeat_csv_shape(corpus):
    runs, dispersion = repeat_runs(corpus, 60, 60, runs=2, spec=SplitSpec())
    text = repeat_csv(runs, dispersion)
    lines = text.strip().split("\n")
    assert lines[0] == REPEAT_CSV_HEADER
    assert len(lines) == 1 + 2 + 3, "two runs plus min/max/range"
    assert lines[-3].split(",")[0] == "min"
    assert lines[-1].split(",")[0] == "range"


def test_scenarios_csv_shape(tmp_path):
    small = SynthConfig(duration_s=900.0, background=BACKGROUND,
                        normal=NORMAL, botnet=BOTNET, cnc=CNC, seed=3)
    path = str(tmp_path / "nine.csv")
    write_synth(path, small)
    rows = scenario_compare({9: path}, width_s=90, stride_s=30)
    lines = scenarios_csv(rows).strip().split("\n")
    assert lines[0] == SCENARIO_CSV_HEADER
    assert lines[1].startswith("9,90,30,")


def test_empty_grid_yields_header_only(corpus):
    for result in (SweepResult(cells=[]), run_grid(corpus, [], [60])):
        assert sweep_csv(result) == SWEEP_CSV_HEADER + "\n"
