"""The benchmark's traced mode still sees every layer it attributes time to.

perfbench/spans.py wraps flowsift functions by module attribute and reads
their arguments and results, so a renamed function or a changed call shape
would only show up as a broken benchmark. This runs the benchmark's child
script on a small capture and checks the spans it records.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOB = ROOT / "perfbench" / "job.py"

COMMANDS = [
    ["sweep", "capture.csv", "--widths", "90", "--strides", "15,60",
     "--fraction", "0.3", "-o", "sweep.csv"],
    ["featurize", "capture.csv", "--width", "90", "--stride", "15",
     "-o", "features.csv"],
    ["train", "features.csv", "-o", "model.txt"],
    ["eval", "features.csv", "--model", "model.txt", "-o", "report.txt"],
]


def run_job(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(JOB), *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_job_records_every_layer(tmp_path):
    synth = run_job(["synth", "--scale", "0.25", "--seed", "1",
                     "-o", "capture.csv"], tmp_path)
    assert synth["flows"] > 0
    spec = {"commands": COMMANDS, "artifacts": [c[-1] for c in COMMANDS]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = run_job(["run", "--spec", "spec.json", "--spans", "spans.json"],
                  tmp_path)
    assert out["codes"] == [0] * len(COMMANDS)
    assert all(out["digests"].values())

    spans = json.loads((tmp_path / "spans.json").read_text())
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    for name in ("read_flows", "run_grid", "run_single", "build_matrix",
                 "split", "fit", "evaluate"):
        assert name in by_name, f"no {name} span"
    assert [(s["counts"]["cells"], s["counts"]["cells_ok"])
            for s in by_name["run_grid"]] == [(2, 2)]
    assert len(by_name["run_single"]) == 2
    assert all(s["counts"]["rows"] == synth["flows"]
               for s in by_name["read_flows"])
    # one sweep build (90/60 is derived from 90/15) plus featurize
    assert len(by_name["build_matrix"]) == 2
    assert all(s["counts"]["entries"] > 0 for s in by_name["build_matrix"])
    # two sweep cells plus train
    assert len(by_name["fit"]) == 3
    assert all(s["counts"]["iterations"] > 0 for s in by_name["fit"])
    assert all(s["counts"]["rows_train"] > 0 for s in by_name["split"])
