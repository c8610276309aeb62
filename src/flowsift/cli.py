"""Command-line entry point.

One binary, subcommand style: stats, featurize, train, eval, sweep, repeat,
scenarios, synth, report. The CLI is a thin sequencer over the library. Each
flag's range is checked by its argparse type, so every flag is validated
before any file is touched; every output is written atomically, and exit
codes are:

    0  success
    1  usage error (bad or missing flags; message on stderr, nothing written)
    2  data error (unreadable, malformed or mis-schema'd input)
    3  degenerate computation (single-class split, empty matrix, ...)

A library error's code is its class's ``exit_code``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from ._util import atomic_write_text, fmt_g9, text_input
from .errors import EmptyValues, FlowsiftError, SchemaMismatch
from .features import read_matrix_csv, write_matrix_csv
from .ingest import LabelClass, class_from_token, label_distribution, read_flows
from .logreg import HyperParams, fit, load_model, save_model
from .metrics import (MAX_BINS, evaluate, histogram,
                      write_metrics_report)
from .select import (backward_elimination, correlation_filter, pca_fit,
                     pca_transform, write_selection_report)
from ._split import SplitSpec
from .sweep import (repeat_runs, run_grid, scenario_compare, write_repeat_csv,
                    write_scenarios_csv, write_sweep_csv)
from .synth import preset_scenario9, write_synth
from .windows import WindowConfig, build_matrix


class UsageError(Exception):
    """Flag-level problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_SPLIT_MODES = {"chrono": "chronological", "random": "stratified_random"}

_PREFIXES = {1: "error", 2: "data error", 3: "degenerate computation"}


def _checked(convert, ok, rule: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    # argparse names the type in "invalid int value: 'x'"
    parse.__name__ = convert.__name__
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, ">= 0")
_RUNS = _checked(int, lambda v: v >= 2, ">= 2")
_FRACTION = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_CORR_THRESHOLD = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_FINITE_NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf,
                                "finite and >= 0")
_BIN_WIDTH = _checked(float, lambda v: 0 < v < math.inf and 1 / v <= MAX_BINS,
                      f"finite, > 0 and give at most {MAX_BINS} bins")


def _int_list(text: str) -> list[int]:
    try:
        values = [_POSITIVE_INT(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expects at least one value")
    return values


def _positive_classes(text: str) -> frozenset:
    classes = set()
    for tok in text.split(","):
        if not tok.strip():
            continue
        try:
            classes.add(class_from_token(tok))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    if not classes:
        raise argparse.ArgumentTypeError("expects at least one class")
    return frozenset(classes)


def _files_map(text: str) -> dict[int, str]:
    out: dict[int, str] = {}
    for pair in text.split(","):
        if not pair:
            continue
        key, sep, path = pair.partition("=")
        if not sep or not path or not key.strip().lstrip("-").isdigit():
            raise argparse.ArgumentTypeError(
                f"expects id=path pairs, got {pair!r}")
        if int(key) in out:
            raise argparse.ArgumentTypeError(f"repeats id {int(key)}")
        out[int(key)] = path
    if not out:
        raise argparse.ArgumentTypeError("expects at least one id=path pair")
    return out


def _split_spec(args) -> SplitSpec:
    return SplitSpec(mode=_SPLIT_MODES[args.split],
                     train_fraction=args.fraction, purge_gap_s=args.purge,
                     seed=args.seed)


def _read_flows(args):
    flows, _ = read_flows(args.flows, on_error=args.on_error)
    return flows


# ---------------------------------------------------------------- commands

def _cmd_stats(args) -> int:
    flows, stats = read_flows(args.flows, on_error=args.on_error)
    dist = label_distribution(flows)
    if args.json:
        payload = {
            "total": dist.total,
            "counts": dist.counts,
            "percentages": dist.percentages,
            "rows_skipped": stats.skipped,
            "unrecognized_labels": stats.unrecognized_labels,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = ["class,count,percent"]
        for cls in LabelClass:
            tok = cls.token
            lines.append(f"{tok},{dist.counts[tok]},"
                         f"{fmt_g9(dist.percentages[tok])}")
        # the sum of the rows above: 0 for a capture with no parsed row
        lines.append(f"total,{dist.total},{100 if dist.total else 0}")
        text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_featurize(args) -> int:
    flows = _read_flows(args)
    cfg = WindowConfig(width_s=args.width, stride_s=args.stride)
    matrix = build_matrix(flows, cfg, positive_classes=args.positive_classes,
                          group_by=args.group_by)

    retained = list(matrix.feature_names)
    dropped: list[dict] = []
    trace: list[dict] = []
    if args.corr_threshold is not None:
        kept, removed = correlation_filter(matrix, args.corr_threshold)
        dropped += [{"feature": name, "stage": "correlation", "reason": why}
                    for name, why in removed]
        retained = kept
        matrix = matrix.select(retained)
    if args.backward_elim:
        kept, trace = backward_elimination(matrix)
        dropped += [{"feature": t["removed"], "stage": "backward", "reason":
                     f"score {fmt_g9(t['score'])}"} for t in trace]
        retained = kept
        matrix = matrix.select(retained)
    if args.pca_components is not None:
        model = pca_fit(matrix, args.pca_components)
        matrix = pca_transform(matrix, model)
        retained = list(matrix.feature_names)
    if args.selection_report:
        write_selection_report(args.selection_report, retained, dropped, trace)
    write_matrix_csv(args.output, matrix)
    return 0


def _cmd_train(args) -> int:
    matrix = read_matrix_csv(args.features)
    hp = HyperParams(l2_lambda=args.l2, class_weight_mode=args.class_weight)
    model, report = fit(matrix, hp)
    if not report.converged:
        print(f"warning: fit stopped at its {report.iterations_run}-iteration "
              f"cap without converging", file=sys.stderr)
    save_model(args.output, model)
    return 0


def _cmd_eval(args) -> int:
    matrix = read_matrix_csv(args.features)
    model = load_model(args.model)
    report = evaluate(model, matrix)
    write_metrics_report(args.output, report)
    return 0


def _cmd_sweep(args) -> int:
    flows = _read_flows(args)
    result = run_grid(flows, args.widths, args.strides, spec=_split_spec(args))
    write_sweep_csv(args.output, result, timings=args.timings)
    return 0


def _cmd_repeat(args) -> int:
    flows = _read_flows(args)
    runs, dispersion = repeat_runs(flows, args.width, args.stride, args.runs,
                                   spec=_split_spec(args))
    write_repeat_csv(args.output, runs, dispersion, timings=args.timings)
    return 0


def _cmd_scenarios(args) -> int:
    rows = scenario_compare(args.files, args.width, args.stride,
                            spec=_split_spec(args), on_error=args.on_error)
    write_scenarios_csv(args.output, rows, timings=args.timings)
    return 0


def _cmd_synth(args) -> int:
    cfg = preset_scenario9(seed=args.seed, hard=args.hard)
    write_synth(args.output, cfg)
    return 0


def _is_data_row(row: dict) -> bool:
    """Sweep and scenarios rows carry a status; a repeat CSV has none, and
    its min/max/range summary rows carry no integer run number."""
    if "status" in row:
        return row["status"].startswith("ok")
    return "run" not in row or row["run"].isdigit()


def _cmd_report(args) -> int:
    column = f"{args.partition}_{args.histogram}"
    # decoded whole first: the ValueError below would catch a decode error
    with text_input(args.sweep_csv) as fh:
        reader = csv.DictReader(fh.readlines())
    if reader.fieldnames is None or column not in reader.fieldnames:
        raise SchemaMismatch(f"{args.sweep_csv} has no column {column!r}")
    try:
        values = [float(row[column]) for row in reader
                  if row.get(column) and _is_data_row(row)]
    except ValueError as exc:
        raise SchemaMismatch(f"non-numeric value in {column}: {exc}") from None
    if not all(0.0 <= v <= 1.0 for v in values):
        raise SchemaMismatch(
            f"{column} value outside [0, 1] in {args.sweep_csv}")
    if not values:
        raise EmptyValues(f"no usable {column} values in {args.sweep_csv}")
    hist = histogram(values, bin_width=args.bin_width)
    lines = ["kind,bin_lo,bin_hi,count"]
    lines.append(f"underflow,,{fmt_g9(hist.bin_edges[0])},{hist.underflow}")
    for i in range(len(hist.counts)):
        lines.append(f"bin,{fmt_g9(hist.bin_edges[i])},"
                     f"{fmt_g9(hist.bin_edges[i + 1])},{hist.counts[i]}")
    lines.append(f"overflow,{fmt_g9(hist.bin_edges[-1])},,{hist.overflow}")
    atomic_write_text(args.output, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------------ parser

def _add_on_error(sub) -> None:
    sub.add_argument("--on-error", choices=("skip", "abort"), default="skip",
                     help="malformed-row policy while reading flows")


def _add_split_flags(sub, default_mode: str) -> None:
    sub.add_argument("--split", choices=("chrono", "random"),
                     default=default_mode, help="train/test split mode")
    sub.add_argument("--fraction", type=_FRACTION, default=0.7,
                     help="train fraction")
    sub.add_argument("--purge", type=_NON_NEGATIVE_INT, default=None,
                     help="purge gap seconds (default: window width)")
    sub.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0,
                     help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowsift",
                     description="Windowed-statistics botnet detection over "
                                 "NetFlow CSV captures.")
    subs = parser.add_subparsers(dest="subcommand", required=True,
                                 metavar="SUBCOMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = subs.add_parser("stats", formatter_class=fmt,
                        help="label distribution of a flow file")
    p.add_argument("flows", help="flow CSV path")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of CSV")
    p.add_argument("-o", "--output", default=None,
                   help="output path (default: stdout)")
    _add_on_error(p)
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("featurize", formatter_class=fmt,
                        help="window flows into a feature matrix CSV")
    p.add_argument("flows", help="flow CSV path")
    p.add_argument("--width", type=_POSITIVE_INT, required=True,
                   help="window width in seconds")
    p.add_argument("--stride", type=_POSITIVE_INT, required=True,
                   help="window stride in seconds")
    p.add_argument("--positive-classes", type=_positive_classes,
                   default="botnet,cnc",
                   help="comma-separated classes labeled 1")
    p.add_argument("--group-by", choices=("src", "src_dst"), default="src",
                   help="aggregation key within each window")
    p.add_argument("--corr-threshold", type=_CORR_THRESHOLD, default=None,
                   help="drop features with |r| above this (off by default)")
    p.add_argument("--backward-elim", action="store_true",
                   help="greedy backward feature elimination")
    p.add_argument("--pca-components", type=_POSITIVE_INT, default=None,
                   help="project onto this many principal components")
    p.add_argument("--selection-report", default=None,
                   help="optional JSON report of selection decisions")
    p.add_argument("-o", "--output", required=True, help="feature CSV path")
    _add_on_error(p)
    p.set_defaults(func=_cmd_featurize)

    p = subs.add_parser("train", formatter_class=fmt,
                        help="fit a logistic model on a feature CSV")
    p.add_argument("features", help="feature CSV path")
    p.add_argument("--l2", type=_FINITE_NON_NEGATIVE, default=1e-4,
                   help="L2 regularization strength")
    p.add_argument("--class-weight", choices=("balanced", "none"),
                   default="balanced", help="class weighting mode")
    p.add_argument("-o", "--output", required=True, help="model file path")
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("eval", formatter_class=fmt,
                        help="evaluate a model on a feature CSV")
    p.add_argument("features", help="feature CSV path")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("-o", "--output", required=True, help="report path")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("sweep", formatter_class=fmt,
                        help="grid over window widths and strides")
    p.add_argument("flows", help="flow CSV path")
    p.add_argument("--widths", type=_int_list, required=True,
                   help="comma-separated widths in seconds")
    p.add_argument("--strides", type=_int_list, required=True,
                   help="comma-separated strides in seconds")
    _add_split_flags(p, "chrono")
    p.add_argument("--timings", action="store_true",
                   help="fill the wall_time_s column (breaks rerun "
                        "byte-identity)")
    p.add_argument("-o", "--output", required=True, help="sweep CSV path")
    _add_on_error(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("repeat", formatter_class=fmt,
                        help="re-run one configuration under several seeds")
    p.add_argument("flows", help="flow CSV path")
    p.add_argument("--width", type=_POSITIVE_INT, required=True,
                   help="window width in seconds")
    p.add_argument("--stride", type=_POSITIVE_INT, required=True,
                   help="window stride in seconds")
    p.add_argument("--runs", type=_RUNS, required=True,
                   help="number of seeded runs (>= 2)")
    _add_split_flags(p, "random")
    p.add_argument("--timings", action="store_true",
                   help="fill the wall_time_s column")
    p.add_argument("-o", "--output", required=True, help="repeat CSV path")
    _add_on_error(p)
    p.set_defaults(func=_cmd_repeat)

    p = subs.add_parser("scenarios", formatter_class=fmt,
                        help="fixed configuration across several captures")
    p.add_argument("--files", type=_files_map, required=True,
                   help="comma-separated id=path pairs")
    p.add_argument("--width", type=_POSITIVE_INT, default=189,
                   help="window width in seconds")
    p.add_argument("--stride", type=_POSITIVE_INT, default=129,
                   help="window stride in seconds")
    _add_split_flags(p, "chrono")
    p.add_argument("--timings", action="store_true",
                   help="fill the wall_time_s column")
    p.add_argument("-o", "--output", required=True, help="output CSV path")
    _add_on_error(p)
    p.set_defaults(func=_cmd_scenarios)

    p = subs.add_parser("synth", formatter_class=fmt,
                        help="generate a labeled synthetic capture")
    p.add_argument("--hard", action="store_true",
                   help="make positive classes statistically indistinct")
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0,
                   help="random seed")
    p.add_argument("-o", "--output", required=True, help="flow CSV path")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("report", formatter_class=fmt,
                        help="histogram a sweep metric into plot-ready CSV")
    p.add_argument("sweep_csv", help="sweep CSV path")
    p.add_argument("--histogram", required=True,
                   choices=("precision", "recall", "f1"),
                   help="metric to bin")
    p.add_argument("--bin-width", type=_BIN_WIDTH, default=0.05,
                   help="histogram bin width")
    p.add_argument("--from", dest="partition", choices=("train", "test"),
                   default="test", help="which partition's metric to bin")
    p.add_argument("-o", "--output", required=True, help="histogram CSV path")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{_PREFIXES[2]}: {exc}", file=sys.stderr)
        return 2
    except FlowsiftError as exc:
        print(f"{_PREFIXES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
