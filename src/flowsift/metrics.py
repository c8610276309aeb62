"""Confusion matrices, precision/recall/F1 with explicit 0/0 handling,
histogram summaries, and the F1 self-consistency check used on published
result tables.

Degenerate ratios (0/0) never raise: sweep cells over near-empty or one-sided
data must finish and stay comparable, so those metrics report 0 with a flag.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._util import atomic_write_text, fmt_g9
from .errors import (BadBins, DegenerateRow, EmptyInput, LengthMismatch)
from .features import FeatureMatrix
from .logreg import LogRegModel, predict_label


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricsReport:
    precision: float
    recall: float
    f1: float
    confusion: ConfusionMatrix
    precision_degenerate: bool = False
    recall_degenerate: bool = False
    config: dict = field(default_factory=dict)


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Standard 2x2 counts; positive class is 1."""
    t = np.asarray(y_true) != 0
    p = np.asarray(y_pred) != 0
    if len(t) != len(p):
        raise LengthMismatch(f"y_true has {len(t)} rows, y_pred has {len(p)}")
    if len(t) == 0:
        raise EmptyInput("confusion needs at least one prediction")
    return ConfusionMatrix(
        tp=int((t & p).sum()),
        fp=int((~t & p).sum()),
        fn=int((t & ~p).sum()),
        tn=int((~t & ~p).sum()),
    )


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    """P, R, F1 from counts; each 0/0 yields 0 with its degenerate flag."""
    p_den = cm.tp + cm.fp
    r_den = cm.tp + cm.fn
    precision_degenerate = p_den == 0
    recall_degenerate = r_den == 0
    precision = 0.0 if precision_degenerate else cm.tp / p_den
    recall = 0.0 if recall_degenerate else cm.tp / r_den
    f1 = 0.0 if precision + recall == 0 else (
        2.0 * precision * recall / (precision + recall))
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=cm,
        precision_degenerate=precision_degenerate,
        recall_degenerate=recall_degenerate,
    )


class F1Consistency(NamedTuple):
    deviations: list[float]
    passed: list[bool]
    max_deviation: float


def f1_consistency_check(rows: Iterable[tuple[float, float, float]],
                         tol: float) -> F1Consistency:
    """Check |F1 - 2PR/(P+R)| per (P, R, F1) row against a tolerance.

    Raises DegenerateRow when a row has P + R == 0 (the recomputed F1 is
    undefined there).
    """
    deviations, passed = [], []
    for i, (p, r, f1) in enumerate(rows):
        if p + r == 0:
            raise DegenerateRow(f"row {i}: P + R == 0")
        dev = abs(f1 - 2.0 * p * r / (p + r))
        deviations.append(dev)
        passed.append(dev <= tol)
    return F1Consistency(deviations, passed,
                         max(deviations) if deviations else 0.0)


# an upper bound on histogram bins, so a tiny bin_width cannot exhaust memory
MAX_BINS = 10_000


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int


def histogram(values: Iterable[float], bin_width: float = 0.05) -> Histogram:
    """Fixed-width half-open bins [edge, edge + width) over [0, 1).

    Values below 0 / at-or-above 1 land in underflow / overflow. The last bin
    may extend past 1 when 1 is not a multiple of bin_width; overflow still
    starts exactly at 1. More than MAX_BINS bins is BadBins.
    """
    if not 0 < bin_width < math.inf:
        raise BadBins(f"bin_width must be finite and > 0, got {bin_width}")
    if 1.0 / bin_width > MAX_BINS:
        raise BadBins(f"bin_width {bin_width} gives more than {MAX_BINS} bins")
    n_bins = math.ceil(1.0 / bin_width)
    edges = bin_width * np.arange(n_bins + 1)
    counts = np.zeros(n_bins, dtype=np.int64)
    underflow = overflow = 0
    for v in values:
        if v < 0.0:
            underflow += 1
        elif v >= 1.0:
            overflow += 1
        else:
            idx = min(int(v // bin_width), n_bins - 1)
            counts[idx] += 1
    return Histogram(edges, counts, underflow, overflow)


def evaluate(model: LogRegModel, matrix: FeatureMatrix,
             extra_config: dict | None = None) -> MetricsReport:
    """predict_label -> confusion -> metrics, with provenance echoed.

    A matrix carrying a superset of the model's features is projected down to
    the model schema first (order per the model); a missing feature is a
    SchemaMismatch.
    """
    if matrix.n_rows == 0:
        raise EmptyInput("evaluate needs at least one row")
    m = matrix
    if matrix.feature_names != model.feature_names:
        m = matrix.select(model.feature_names)
    report = metrics_from_confusion(confusion(matrix.y, predict_label(model, m)))
    config = {k: matrix.meta[k] for k in
              ("width_s", "stride_s", "origin_us", "positive_classes", "group_by")
              if k in matrix.meta}
    # a matrix read back from CSV has no window metadata; the model still
    # knows what it was trained toward
    for key in ("seed", "positive_classes"):
        if key not in config and model.training_meta.get(key) is not None:
            config[key] = model.training_meta[key]
    config["features"] = list(model.feature_names)
    config["threshold"] = model.threshold
    if extra_config:
        config.update(extra_config)
    report.config = config
    return report


def metrics_report_json(report: MetricsReport) -> str:
    """Canonical JSON rendering (metrics at 9 significant digits)."""
    cm = report.confusion
    payload = {
        "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
        "precision": float(fmt_g9(report.precision)),
        "recall": float(fmt_g9(report.recall)),
        "f1": float(fmt_g9(report.f1)),
        "degenerate": {
            "precision": report.precision_degenerate,
            "recall": report.recall_degenerate,
        },
        "config": report.config,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_metrics_report(path: str, report: MetricsReport) -> None:
    atomic_write_text(path, metrics_report_json(report))
