"""One benchmark step in a fresh process; prints one JSON object on stdout.

    python3 perfbench/job.py synth --scale 0.5 --seed 7 -o capture.csv
    python3 perfbench/job.py run --spec spec.json [--spans spans.json [--memory]]

``synth`` imports flowsift and writes a synthetic capture: the preset's
30-minute duration times --scale, everything else as the preset has it.

``run`` executes a job the way a user runs it, one ``flowsift.cli.main(argv)``
call per command in the current directory, stopping at the first nonzero
exit code. It reports the job's wall time (first command start to last
command end), the process's ru_maxrss and a sha256 of every artifact. With
--spans the flowsift layers are wrapped in spans (spans.py), which are
written to that file when the job ends. --memory also turns tracemalloc on
for per-span peak allocations; it slows Python-heavy layers several times
over, so span timings come from runs without it.

The caller puts the checkout's src/ on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time


def _synth(args) -> dict:
    t0 = time.perf_counter()
    from dataclasses import replace

    from flowsift.synth import preset_scenario9, write_synth
    import_s = time.perf_counter() - t0
    cfg = preset_scenario9(seed=args.seed)
    cfg = replace(cfg, duration_s=cfg.duration_s * args.scale)
    t0 = time.perf_counter()
    flows = write_synth(args.output, cfg)
    return {"import_s": import_s, "write_s": time.perf_counter() - t0,
            "flows": flows}


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _run(args) -> dict:
    from flowsift import cli

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    commands = spec["commands"]
    tracer = None
    if args.spans:
        import tracemalloc

        from spans import Tracer, instrument
        tracer = Tracer(memory=args.memory)
        instrument(tracer)
        if args.memory:
            tracemalloc.start()

    codes = []
    if tracer is None:
        t0 = time.perf_counter()
        for argv in commands:
            codes.append(cli.main(argv))
            if codes[-1] != 0:
                break
        job_s = time.perf_counter() - t0
    else:
        with tracer.span("cli", "job") as root:
            for argv in commands:
                with tracer.span("cli", argv[0]):
                    codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        job_s = root["end"] - root["start"]
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        if args.memory:
            tracemalloc.stop()
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.finish(), fh)
    digests = {}
    for path in spec["artifacts"]:
        try:
            digests[path] = _digest(path)
        except FileNotFoundError:
            digests[path] = None
    return {"job_s": job_s, "maxrss_mb": maxrss_mb, "codes": codes,
            "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="step", required=True)
    p = subs.add_parser("synth")
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p = subs.add_parser("run")
    p.add_argument("--spec", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--memory", action="store_true")
    args = parser.parse_args(argv)
    result = _synth(args) if args.step == "synth" else _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
