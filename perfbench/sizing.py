"""One-off sizing run: featurize a capture-9-sized synthetic capture.

    python3 perfbench/sizing.py --flows 2750000 --seed 0

Not a benchmark workload: it runs once, for minutes, and needs several GB.
It generates the capture in one process (job.py synth, the preset stretched
in time until it holds about --flows flows), then runs
``featurize --width 90 --stride 15`` on it in a fresh traced process
(spans, no tracemalloc) and prints ingest.us_per_row, windows.build_s, the
featurize wall time and the featurize process's peak RSS. Do not use a
600-s window at this size: that geometry copies every flow into 40 windows
and projects past 7 GB.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import SRC, WORK, BenchError, layer_metrics, run_child

PRESET_FLOWS = 50_250       # flows in the 30-minute preset, mean over seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--flows", type=int, default=2_750_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowsift" / "__init__.py").is_file():
        print(f"no flowsift package under {SRC}", file=sys.stderr)
        return 1
    work = WORK / "sizing"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scale = args.flows / PRESET_FLOWS
    try:
        synth, synth_s = run_child(["synth", "--scale", f"{scale:.4f}",
                                    "--seed", str(args.seed),
                                    "-o", "capture.csv"], work, None)
        spec = {"commands": [["featurize", "capture.csv", "--width", "90",
                              "--stride", "15", "-o", "features.csv"]],
                "artifacts": ["features.csv"]}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        out, _ = run_child(["run", "--spec", "spec.json",
                            "--spans", "spans.json"], work, None)
        with open(work / "spans.json", encoding="utf-8") as fh:
            m = layer_metrics(json.load(fh))
    except BenchError as exc:
        print(f"sizing failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass            # a benchmark run's directory is still there
    print(json.dumps({
        "flows": synth["flows"],
        "capture_hours": round(0.5 * scale, 2),
        "synth_s": synth_s,
        "featurize_s": out["job_s"],
        "peak_rss_mb": out["maxrss_mb"],
        "exit_codes": out["codes"],
        **{k: m[k] for k in ("ingest.read_s", "ingest.us_per_row",
                             "windows.build_s", "windows.entries",
                             "windows.rows", "features.write_csv_s",
                             "features.csv_mb", "cli.self_s")},
    }, indent=2))
    return 0 if out["codes"] == [0] else 1


if __name__ == "__main__":
    sys.exit(main())
