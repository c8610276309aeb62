"""Time a change against its parent on the benchmark, in alternated pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload runbook
        [--pairs 10]

DIR is a checkout of the repository (a clone or an unpacked archive). Pair i
(1..pairs) runs BENCHMARK.json's command with --workload W --seed i
--seconds run_seconds --trace 0 once in each checkout, run_seconds being
BENCHMARK.json's run length, the parent first in odd pairs and the change
first in even ones, so that neither side always runs on a host that the
other has just warmed. Both sides run with PYTHONDONTWRITEBYTECODE=1 and
one empty PYTHONPYCACHEPREFIX, so that neither loads a bytecode cache: a
cache that one side has and the other lacks moves peak RSS by a few
percent.

Prints one JSON object: for each end-to-end metric of the change's
BENCHMARK.json, both sides' median and quartiles, the number of pairs in
which the change is better, how much worse the change's median is than the
parent's as a fraction of the parent's (negative when better), whether
that exceeds the metric's bound, whether a gain is resolved and a
regression verdict; then every run's raw result. A gain is resolved when
the change is better in at least nine tenths of all pairs run (ties and
pairs with a failed run count for neither side), its median is better
than the parent's by more than the distance between the parent's
quartiles, and no more of its operations fail than the parent's. The verdict is "worse" when the change's median is
worse than the bound allows; else "unresolved" when the distance between
the parent's quartiles exceeds the bound (as a fraction of the parent's
median) and not every run of the change beats every run of the parent,
since such a spread can hide a regression the size of the bound; else
"none". A run that fails keeps its exit code and stderr tail in the raw
results, and its pair is left out of the medians.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, env: dict) -> dict:
    """One benchmark run in checkout: its result, the last line of its
    stdout, or its exit code and stderr tail when it fails."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def _failures(pairs: list[dict], side: str) -> int:
    """side's failed runs and the failed operations its other runs
    report."""
    return sum(p[side].get("failed", 0) if "metrics" in p[side] else 1
               for p in pairs)


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of end_to_end (BENCHMARK.json's entries), over the pairs
    in which both sides produced a result; gain_resolved reads all pairs
    run."""
    done = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
    fewer_failures = _failures(pairs, "change") <= _failures(pairs, "parent")
    summary = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [p[side]["metrics"][name]["value"] for p in done]
                  for side in SIDES}
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "bound": metric["bound"], "pairs": len(done)}
        if not done:
            summary[name] = entry
            continue
        entry.update({side: _spread(values[side]) for side in SIDES})
        entry["change_better_pairs"] = sum(
            sign * (c - p) < 0
            for p, c in zip(values["parent"], values["change"]))
        parent, change = (entry[side]["median"] for side in SIDES)
        if parent:
            worse_by = sign * (change - parent) / abs(parent)
        else:
            worse_by = 0.0 if change == parent else sign * float("inf")
        entry["worse_by"] = worse_by
        entry["beyond_bound"] = worse_by > metric["bound"]
        spread = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["gain_resolved"] = (
            10 * entry["change_better_pairs"] >= 9 * len(pairs)
            and sign * (parent - change) > spread
            and fewer_failures)
        every_run_better = (max(sign * v for v in values["change"])
                            < min(sign * v for v in values["parent"]))
        entry["verdict"] = (
            "worse" if entry["beyond_bound"]
            else "unresolved" if (spread > metric["bound"] * abs(parent)
                                  and not every_run_better)
            else "none")
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    seconds = bench["run_seconds"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache)
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], bench["command"],
                                      args.workload, seed, seconds, env)
                print(f"pair {seed}/{args.pairs} {side} done",
                      file=sys.stderr)
            pairs.append(pair)
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "summary": summarize(pairs, bench["end_to_end"]),
                      "runs": pairs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
