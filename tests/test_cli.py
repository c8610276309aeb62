"""Command-line behavior: exit codes, flag validation, output formats, and
flag/default parity with the documented interface."""
import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import flowsift.logreg
from flowsift import errors
from flowsift.cli import build_parser, main
from flowsift.ingest import HEADER_LINE
from flowsift.sweep import SWEEP_CSV_HEADER
from flowsift.synth import preset_scenario9, write_synth

BACKGROUND_ROW = ("2011/08/16 10:00:01.000000,2.000000,tcp,10.0.0.{i},1025,"
                  "   ->,77.75.0.1,80,FSPA_FSPA,0,0,10,900,450,"
                  "flow=Background-TCP-Established")
BOTNET_ROW = ("2011/08/16 10:00:02.500000,0.100000,tcp,147.32.85.1,2048,"
              "   ->,77.75.0.2,6667,CON,0,0,4,280,140,"
              "flow=From-Botnet-V42-TCP-Attempt")


def write_flow_file(path, rows):
    path.write_text("\n".join([HEADER_LINE] + rows) + "\n")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One synthetic capture pushed through the whole pipeline."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "flows": str(root / "flows.csv"),
        "features": str(root / "features.csv"),
        "model": str(root / "model.txt"),
        "report": str(root / "report.txt"),
        "sweep": str(root / "sweep.csv"),
        "hist": str(root / "hist.csv"),
        "root": root,
    }
    assert main(["synth", "--seed", "42", "-o", paths["flows"]]) == 0
    assert main(["featurize", paths["flows"], "--width", "60",
                 "--stride", "60", "-o", paths["features"]]) == 0
    assert main(["train", paths["features"], "-o", paths["model"]]) == 0
    assert main(["eval", paths["features"], "--model", paths["model"],
                 "-o", paths["report"]]) == 0
    assert main(["sweep", paths["flows"], "--widths", "60,90",
                 "--strides", "15,60", "--seed", "7",
                 "-o", paths["sweep"]]) == 0
    assert main(["report", paths["sweep"], "--histogram", "precision",
                 "--bin-width", "0.05", "-o", paths["hist"]]) == 0
    return paths


def test_pipeline_composition_produces_full_grid(ws):
    lines = open(ws["sweep"]).read().strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 5, "2 widths x 2 strides"
    for line in lines[1:]:
        assert line.split(",")[-1] == "ok"


def test_eval_report_is_json(ws):
    payload = json.loads(open(ws["report"]).read())
    for key in ("precision", "recall", "f1", "confusion", "config"):
        assert key in payload
    cm = payload["confusion"]
    assert all(cm[k] >= 0 for k in ("tp", "fp", "fn", "tn"))


def test_report_histogram_shape(ws):
    lines = open(ws["hist"]).read().strip().split("\n")
    assert lines[0] == "kind,bin_lo,bin_hi,count"
    assert lines[1].startswith("underflow,")
    assert lines[-1].startswith("overflow,")
    binned = sum(int(l.split(",")[-1]) for l in lines[1:])
    assert binned == 4, "four ok sweep rows contribute one value each"


@pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-0.1"])
def test_report_out_of_range_metric_is_data_error(ws, tmp_path, capsys, value):
    lines = open(ws["sweep"]).read().strip().split("\n")
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("test_f1")] = value
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    out = tmp_path / "hist.csv"
    rc = main(["report", str(sweep), "--histogram", "f1", "-o", str(out)])
    assert rc == 2
    assert "test_f1" in capsys.readouterr().err
    assert not out.exists()


def test_stats_csv_stdout(tmp_path, capsys):
    flows = tmp_path / "f.csv"
    write_flow_file(flows, [BACKGROUND_ROW.format(i=1),
                            BACKGROUND_ROW.format(i=2), BOTNET_ROW])
    assert main(["stats", str(flows)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "class,count,percent"
    rows = {l.split(",")[0]: l.split(",")[1:] for l in out[1:]}
    assert rows["background"][0] == "2"
    assert rows["botnet"][0] == "1"
    assert rows["total"] == ["3", "100"]


@pytest.mark.parametrize("rows", [[], ["not,a,flow", BOTNET_ROW[:-1] + ",x"]],
                         ids=["header-only", "every-row-skipped"])
def test_stats_total_of_a_capture_without_parsed_rows(tmp_path, capsys, rows):
    """The total row's percent is the sum of the class rows: 0, not 100,
    when no row parsed."""
    flows = tmp_path / "f.csv"
    write_flow_file(flows, rows)
    assert main(["stats", str(flows)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert [l.split(",")[2] for l in out[1:]] == ["0"] * 5
    assert out[-1] == "total,0,0"


def test_stats_json_payload(tmp_path, capsys):
    flows = tmp_path / "f.csv"
    write_flow_file(flows, [BACKGROUND_ROW.format(i=1), BOTNET_ROW])
    assert main(["stats", str(flows), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 2
    assert payload["counts"]["botnet"] == 1
    assert payload["rows_skipped"] == 0
    assert payload["unrecognized_labels"] == 0


@pytest.mark.parametrize("argv,flag", [
    (["featurize", "{flows}", "--width", "0", "--stride", "15"], "--width"),
    (["synth", "--seed", "-1"], "--seed"),
    (["repeat", "{flows}", "--width", "90", "--stride", "15", "--runs", "2",
      "--seed", "-1"], "--seed"),
    (["sweep", "{flows}", "--widths", "90", "--strides", "15",
      "--split", "random", "--seed", "-1"], "--seed"),
    (["report", "{sweep}", "--histogram", "f1", "--bin-width", "nan"],
     "--bin-width"),
    (["report", "{sweep}", "--histogram", "f1", "--bin-width", "inf"],
     "--bin-width"),
    (["train", "{features}", "--l2", "nan"], "--l2"),
    (["train", "{features}", "--l2", "inf"], "--l2"),
    (["train", "{features}", "--tol", "nan"],
     "unrecognized arguments: --tol nan"),
    (["train", "{features}", "--tol", "inf"],
     "unrecognized arguments: --tol inf"),
    (["report", "{sweep}", "--histogram", "f1", "--bin-width", "1e-300"],
     "--bin-width"),
    (["featurize", "{flows}", "--width", "90", "--stride", "0"], "--stride"),
    (["featurize", "{flows}", "--width", "90", "--stride", "15",
      "--pca-components", "0"], "--pca-components"),
    (["featurize", "{flows}", "--width", "90", "--stride", "15",
      "--corr-threshold", "1.5"], "--corr-threshold"),
    (["sweep", "{flows}", "--widths", "90", "--strides", "15",
      "--fraction", "1"], "--fraction"),
    (["repeat", "{flows}", "--width", "90", "--stride", "15", "--runs", "2",
      "--purge", "-1"], "--purge"),
    (["train", "{features}", "--max-iter", "0"],
     "unrecognized arguments: --max-iter 0"),
    (["train", "{features}", "--tol", "-1"], "unrecognized arguments: --tol -1"),
    (["train", "{features}", "--seed", "-1"],
     "unrecognized arguments: --seed -1"),
    # the solver's cap and tolerance are fixed and the fit takes no seed, so
    # even values the removed flags once accepted are unknown arguments
    (["train", "{features}", "--max-iter", "5"],
     "unrecognized arguments: --max-iter 5"),
    (["train", "{features}", "--tol", "1e-6"],
     "unrecognized arguments: --tol 1e-6"),
    (["train", "{features}", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["scenarios", "--files", "9"], "--files"),
    (["scenarios", "--files", "9={flows},9={root}/other.csv"], "--files"),
    (["featurize", "{root}/missing.csv", "--width", "0", "--stride", "15"],
     "--width"),
], ids=["featurize-width-0", "synth-seed", "repeat-seed", "sweep-random-seed",
        "report-bin-width-nan", "report-bin-width-inf", "train-l2-nan",
        "train-l2-inf", "train-tol-nan", "train-tol-inf",
        "report-bin-width-tiny", "featurize-stride-0", "featurize-pca-0",
        "featurize-corr-1.5", "sweep-fraction-1", "repeat-purge-negative",
        "train-max-iter-0", "train-tol-negative", "train-seed-negative",
        "train-max-iter-5", "train-tol-1e-6", "train-seed-3",
        "scenarios-files-no-path", "scenarios-files-repeated-id",
        "usage-error-before-missing-input"])
def test_zero_width_is_usage_error(ws, tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    rc = main([a.format(**ws) for a in argv] + ["-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert flag in err, "the message names the offending flag"
    assert not out.exists(), "exit 1 writes nothing"


def test_every_error_class_maps_to_one_exit_code():
    by_code = {1: set(), 2: set(), 3: set()}
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, errors.FlowsiftError):
            assert cls.exit_code in by_code, cls.__name__
            by_code[cls.exit_code].add(cls)
    assert by_code[1] == {errors.BadConfig}
    assert by_code[3] == {errors.DegenerateComputation, errors.DegenerateSplit,
                          errors.SingleClassInput, errors.EmptyInput,
                          errors.EmptyValues, errors.TooFewRows,
                          errors.NonFiniteLoss, errors.DegenerateRow}


def test_unknown_flag_is_usage_error(ws, capsys):
    rc = main(["stats", ws["flows"], "--verbose"])
    assert rc == 1
    assert capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err


def test_bad_widths_list_is_usage_error(ws, tmp_path, capsys):
    rc = main(["sweep", ws["flows"], "--widths", "60,x", "--strides", "15",
               "-o", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "--widths" in capsys.readouterr().err


def test_missing_input_is_data_error(tmp_path, capsys):
    out = str(tmp_path / "m.txt")
    rc = main(["train", str(tmp_path / "missing.csv"), "-o", out])
    assert rc == 2
    assert capsys.readouterr().err
    assert not (tmp_path / "m.txt").exists()


def test_bad_feature_csv_cell_is_data_error(ws, tmp_path, capsys):
    lines = open(ws["features"]).read().strip().split("\n")
    # a non-number, and a window start one past the int64 range
    for col, cell in ((3, "abc"), (1, "9223372036854775808")):
        row = lines[1].split(",")
        row[col] = cell
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
        rc = main(["train", str(bad), "-o", str(tmp_path / "m.txt")])
        assert rc == 2
        assert f"{bad}:2" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()


def test_unknown_positive_class_is_usage_error(ws, tmp_path, capsys):
    out = tmp_path / "f.csv"
    rc = main(["featurize", ws["flows"], "--width", "60", "--stride", "60",
               "--positive-classes", "bogus", "-o", str(out)])
    assert rc == 1
    assert "--positive-classes" in capsys.readouterr().err
    assert not out.exists(), "exit 1 writes nothing"


def test_mangled_model_is_data_error(ws, tmp_path, capsys):
    payload = json.loads(open(ws["model"]).read())
    payload["standardization"]["means"][0] = math.nan
    bad = tmp_path / "model.txt"
    for text in ("{ not json", json.dumps(payload)):
        bad.write_text(text)
        out = tmp_path / "r.txt"
        rc = main(["eval", ws["features"], "--model", str(bad),
                   "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err
        assert not out.exists()


def test_train_warns_when_max_iter_stops_the_fit(ws, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(flowsift.logreg, "_MAX_ITER", 1)
    rc = main(["train", ws["features"], "-o", str(tmp_path / "m.txt")])
    assert rc == 0
    err = capsys.readouterr().err
    assert err == ("warning: fit stopped at its 1-iteration cap without "
                   "converging\n")
    meta = json.loads((tmp_path / "m.txt").read_text())["training_meta"]
    assert meta["converged"] is False and meta["iterations_run"] == 1


def test_train_converges_silently_at_defaults(ws, tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert main(["train", ws["features"], "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["training_meta"]["converged"] is True


def _child_env(**extra) -> dict:
    """This process's environment, with the package source importable."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "flowsift", "--help"],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 0
    for sub in ("featurize", "train", "eval", "sweep", "synth"):
        assert sub in proc.stdout


# runs in a child process, in its output directory, on the flow file named
# by its one argument
_PIPELINE_CHILD = """
import sys
from flowsift.cli import main
flows = sys.argv[1]
geometry = ["--width", "90", "--stride", "15"]
for argv in (
    ["featurize", flows, *geometry, "-o", "f90.csv"],
    ["train", "f90.csv", "-o", "m90.txt"],
    ["featurize", flows, "--width", "600", "--stride", "15", "-o", "f600.csv"],
    ["train", "f600.csv", "-o", "m600.txt"],
    ["featurize", flows, "--width", "60", "--stride", "60", "--backward-elim",
     "--selection-report", "selection.json", "-o", "elim.csv"],
    ["featurize", flows, *geometry, "--pca-components", "3", "-o", "pca.csv"],
    ["train", "pca.csv", "-o", "mpca.txt"],
    ["sweep", flows, "--widths", "90,600", "--strides", "15,60",
     "--fraction", "0.3", "-o", "sweep.csv"],
):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
"""


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    """The same commands under OPENBLAS_NUM_THREADS=1 and =3 write the same
    bytes: every product over the row axis sums in an order the thread count
    does not choose. The model files differed while fit's gradient and
    Hessian were single BLAS calls over all rows."""
    flows = tmp_path / "flows.csv"
    cfg = preset_scenario9(seed=42)
    write_synth(str(flows), replace(cfg, duration_s=cfg.duration_s / 4))
    digests = []
    for threads in ("1", "3"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _PIPELINE_CHILD, str(flows)], cwd=out,
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir()})
    assert len(digests[0]) == 9
    assert digests[0] == digests[1]


# runs in a child process, in its output directory, on the flow file named
# by its one argument
_CORES_CHILD = """
import sys
from flowsift._util import usable_cores
from flowsift.cli import main
flows = sys.argv[1]
print(usable_cores())
for argv in (
    ["stats", flows, "--json", "-o", "stats.json"],
    ["featurize", flows, "--width", "90", "--stride", "15", "-o", "f90.csv"],
    ["sweep", flows, "--widths", "90,600", "--strides", "15,60",
     "--fraction", "0.3", "-o", "sweep.csv"],
):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_outputs_do_not_depend_on_usable_cores(tmp_path):
    """The same commands pinned to one CPU and on every CPU this process
    may use write the same bytes. Pinned, ingest reads the capture in one
    range and the sweep runs on one thread; unpinned, both use one per
    core."""
    flows = tmp_path / "flows.csv"
    cfg = preset_scenario9(seed=42)
    write_synth(str(flows), replace(cfg, duration_s=cfg.duration_s / 4))
    one_cpu = {min(os.sched_getaffinity(0))}
    digests = []
    for name, preexec in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)),
                          ("unpinned", None)):
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _CORES_CHILD, str(flows)], cwd=out,
            env=_child_env(), preexec_fn=preexec, capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        if preexec is not None:
            assert proc.stdout == "1\n"
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir()})
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def test_single_class_training_is_degenerate(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    write_flow_file(flows, [BACKGROUND_ROW.format(i=i) for i in (1, 2, 3)])
    features = str(tmp_path / "features.csv")
    assert main(["featurize", str(flows), "--width", "60", "--stride", "60",
                 "-o", features]) == 0
    rc = main(["train", features, "-o", str(tmp_path / "m.txt")])
    assert rc == 3
    assert "degenerate" in capsys.readouterr().err.lower()
    assert not (tmp_path / "m.txt").exists()


def test_scenarios_isolates_missing_capture(ws, tmp_path):
    out = str(tmp_path / "scenarios.csv")
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(_not_utf8(ws["flows"]))
    rc = main(["scenarios", "--files",
               f"9={ws['flows']},5={tmp_path / 'gone.csv'},7={latin1}",
               "--width", "189", "--stride", "129", "-o", out])
    assert rc == 0, "per-capture failures do not fail the command"
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("5,") and lines[1].endswith("error:FileNotFoundError")
    assert lines[2].startswith("7,") and lines[2].endswith("error:UnicodeDecodeError")
    assert lines[3].startswith("9,") and lines[3].endswith("ok")


def _not_utf8(path):
    """The file's bytes with a Latin-1 "\xe9" ending its third line."""
    lines = open(path, "rb").read().split(b"\n")
    lines[2] += b"\xe9"
    return b"\n".join(lines)


@pytest.mark.parametrize("argv,bad", [
    (["stats", "{flows}", "-o", "{out}"], "flows"),
    (["featurize", "{flows}", "--width", "60", "--stride", "60",
      "-o", "{out}"], "flows"),
    (["train", "{features}", "-o", "{out}"], "features"),
    (["eval", "{features_ok}", "--model", "{model}", "-o", "{out}"], "model"),
    (["report", "{sweep}", "--histogram", "f1", "-o", "{out}"], "sweep"),
], ids=["stats", "featurize", "train", "eval-model", "report"])
def test_input_not_utf8_is_data_error(ws, tmp_path, capsys, argv, bad):
    """The error names the file and the line of its first byte that is not
    UTF-8, not an offset within a decode chunk."""
    paths = {"out": tmp_path / "out", "features_ok": ws["features"]}
    for key in ("flows", "features", "model", "sweep"):
        paths[key] = tmp_path / key
        paths[key].write_bytes(_not_utf8(ws[key]))
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert f"({paths[bad]}, line 3)" in err
    assert not paths["out"].exists()


def test_featurize_selection_stages(ws, tmp_path):
    pca_out = str(tmp_path / "pca.csv")
    report = str(tmp_path / "selection.json")
    rc = main(["featurize", ws["flows"], "--width", "60", "--stride", "60",
               "--corr-threshold", "0.95", "--pca-components", "3",
               "--selection-report", report, "-o", pca_out])
    assert rc == 0
    header = open(pca_out).readline().strip().split(",")
    assert header[3:-1] == ["pc_1", "pc_2", "pc_3"]
    selection = json.loads(open(report).read())
    assert selection["retained"] == ["pc_1", "pc_2", "pc_3"]
    assert any(d["stage"] == "correlation" for d in selection["dropped"])


def test_repeat_command_writes_dispersion(ws, tmp_path):
    out = str(tmp_path / "repeat.csv")
    rc = main(["repeat", ws["flows"], "--width", "60", "--stride", "60",
               "--runs", "2", "--seed", "1", "-o", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[-1].startswith("range,")
    assert len(lines) == 1 + 2 + 3


def test_report_bins_only_the_runs_of_a_repeat_csv(ws, tmp_path):
    repeat = str(tmp_path / "repeat.csv")
    assert main(["repeat", ws["flows"], "--width", "60", "--stride", "60",
                 "--runs", "2", "-o", repeat]) == 0
    out = tmp_path / "hist.csv"
    assert main(["report", repeat, "--histogram", "f1", "-o", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert sum(int(l.split(",")[-1]) for l in lines) == 2, \
        "the min/max/range summary rows are not runs"


def test_failed_repeat_writes_no_csv(ws, tmp_path, capsys):
    """repeat has no status column: a failing run fails the command."""
    out = tmp_path / "repeat.csv"
    rc = main(["repeat", ws["flows"], "--width", "600", "--stride", "15",
               "--runs", "2", "--split", "chrono", "-o", str(out)])
    assert rc == 3
    assert "purge gap" in capsys.readouterr().err
    assert not out.exists()


def test_repeat_requires_two_runs(ws, tmp_path, capsys):
    rc = main(["repeat", ws["flows"], "--width", "60", "--stride", "60",
               "--runs", "1", "-o", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "--runs" in capsys.readouterr().err


def test_help_screens_exit_zero(capsys):
    assert main(["--help"]) == 0
    for sub in ("stats", "featurize", "train", "eval", "sweep", "repeat",
                "scenarios", "synth", "report"):
        assert main([sub, "--help"]) == 0
        assert capsys.readouterr().out


EXPECTED_DEFAULTS = {
    "stats": {"--json": False, "--output": None, "--on-error": "skip"},
    "featurize": {"--positive-classes": "botnet,cnc", "--group-by": "src",
                  "--corr-threshold": None, "--backward-elim": False,
                  "--pca-components": None, "--selection-report": None,
                  "--on-error": "skip"},
    "train": {"--l2": 1e-4, "--class-weight": "balanced"},
    "eval": {},
    "sweep": {"--split": "chrono", "--fraction": 0.7, "--purge": None,
              "--seed": 0, "--timings": False,
              "--on-error": "skip"},
    "repeat": {"--split": "random", "--fraction": 0.7, "--purge": None,
               "--seed": 0, "--timings": False, "--on-error": "skip"},
    "scenarios": {"--width": 189, "--stride": 129, "--split": "chrono",
                  "--fraction": 0.7, "--purge": None, "--seed": 0,
                  "--timings": False, "--on-error": "skip"},
    "synth": {"--hard": False, "--seed": 0},
    "report": {"--bin-width": 0.05, "--from": "test"},
}

EXPECTED_REQUIRED = {
    "featurize": {"--width", "--stride", "-o"},
    "train": {"-o"},
    "eval": {"--model", "-o"},
    "sweep": {"--widths", "--strides", "-o"},
    "repeat": {"--width", "--stride", "--runs", "-o"},
    "scenarios": {"--files", "-o"},
    "synth": {"-o"},
    "report": {"--histogram", "-o"},
}


def subcommand_parsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flag_default_parity():
    """Every documented flag exists with its documented default, and --help
    renders that default."""
    subs = subcommand_parsers()
    assert set(subs) == set(EXPECTED_DEFAULTS)
    for name, sub in subs.items():
        by_flag = {}
        for action in sub._actions:
            for opt in action.option_strings:
                by_flag[opt] = action
        for flag, default in EXPECTED_DEFAULTS[name].items():
            assert flag in by_flag, f"{name} lost flag {flag}"
            action = by_flag[flag]
            assert action.default == default, \
                f"{name} {flag}: default {action.default!r} != {default!r}"
            assert not action.required
        for flag in EXPECTED_REQUIRED.get(name, set()):
            assert flag in by_flag, f"{name} lost flag {flag}"
            assert by_flag[flag].required, f"{name} {flag} must be required"
        help_text = sub.format_help()
        defaulted = [f for f, a in by_flag.items()
                     if not a.required and a.default is not argparse.SUPPRESS]
        if defaulted:
            assert "(default:" in help_text, \
                f"{name} --help does not render defaults"


def test_every_subcommand_flag_is_documented():
    """The parity table above is exhaustive: no subcommand grows a flag the
    table does not know about."""
    subs = subcommand_parsers()
    for name, sub in subs.items():
        known = (set(EXPECTED_DEFAULTS[name])
                 | EXPECTED_REQUIRED.get(name, set())
                 | {"-h", "--help", "-o", "--output"})
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in known, f"undocumented flag {opt} on {name}"


REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# the pip flag of the install instructions
NON_CLI_FLAGS = {"--no-build-isolation"}


def unknown_flags(text: str) -> set[str]:
    """The --flags in text that no flowsift parser accepts."""
    parser = build_parser()
    known = set(parser._option_string_actions)
    for sub in subcommand_parsers().values():
        known |= set(sub._option_string_actions)
    return set(DOC_FLAG.findall(text)) - known - NON_CLI_FLAGS


@pytest.mark.parametrize("doc", ["README.md", "demos/README.md"])
def test_documented_flags_exist(doc):
    """The docs name no flag the CLI has lost."""
    assert unknown_flags("train f.csv --max-iter 5 --l2 0.1") == {"--max-iter"}
    assert unknown_flags((REPO_ROOT / doc).read_text(encoding="utf-8")) == set()
