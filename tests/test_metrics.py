"""Confusion counts, precision/recall/F1, consistency checks, histograms,
and end-to-end evaluation."""
import math
import random

import numpy as np
import pytest

from flowsift import (
    ConfusionMatrix,
    DegenerateRow,
    BadBins,
    EmptyInput,
    FeatureMatrix,
    LengthMismatch,
    confusion,
    evaluate,
    f1_consistency_check,
    fit,
    histogram,
    metrics_from_confusion,
)
from flowsift.reference import WIDTH_STRIDE_RESULTS


def test_confusion_hand_example():
    cm = confusion([1, 0, 1, 0], [1, 0, 0, 1])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)
    assert cm.total == 4


def test_confusion_perfect_and_inverted():
    y = [1, 1, 0, 0, 1]
    perfect = confusion(y, y)
    assert (perfect.tp, perfect.fp, perfect.fn, perfect.tn) == (3, 0, 0, 2)
    flipped = confusion(y, [0, 0, 1, 1, 0])
    assert (flipped.tp, flipped.fp, flipped.fn, flipped.tn) == (0, 2, 3, 0)


def test_confusion_input_validation():
    with pytest.raises(LengthMismatch):
        confusion([1, 0], [1])
    with pytest.raises(EmptyInput):
        confusion([], [])
    with pytest.raises(ValueError):
        ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


def test_metrics_from_large_capture_counts():
    """Counts from a full-capture evaluation reproduce their quoted metrics."""
    r = metrics_from_confusion(ConfusionMatrix(
        tp=1617, fp=590, fn=164, tn=1_168_470))
    assert r.precision == pytest.approx(0.732669, abs=1e-6)
    assert r.recall == pytest.approx(0.907917, abs=1e-6)
    assert r.f1 == pytest.approx(2 * 1617 / (2 * 1617 + 590 + 164), abs=1e-12)


def test_metrics_from_windowed_counts():
    r = metrics_from_confusion(ConfusionMatrix(tp=205, fp=65, fn=26, tn=0))
    assert r.precision == pytest.approx(0.759259, abs=1e-6)
    assert r.recall == pytest.approx(0.887446, abs=1e-6)


def test_metrics_degenerate_zero_division():
    r = metrics_from_confusion(ConfusionMatrix(tp=0, fp=0, fn=0, tn=10))
    assert r.precision == 0.0 and r.recall == 0.0 and r.f1 == 0.0
    assert r.precision_degenerate and r.recall_degenerate


def test_metrics_f1_between_precision_and_recall():
    rng = random.Random(19)
    for _ in range(300):
        cm = ConfusionMatrix(tp=rng.randint(1, 50), fp=rng.randint(0, 50),
                             fn=rng.randint(0, 50), tn=rng.randint(0, 50))
        r = metrics_from_confusion(cm)
        assert min(r.precision, r.recall) - 1e-12 <= r.f1
        assert r.f1 <= max(r.precision, r.recall) + 1e-12


def test_f1_consistency_check_examples():
    ok = f1_consistency_check(
        [(0.723, 0.914, 0.807), (0.745, 0.866, 0.801)], tol=0.0015)
    assert ok.passed == [True, True]
    assert ok.max_deviation < 0.0015
    bad = f1_consistency_check([(0.5, 0.5, 0.9)], tol=0.0015)
    assert bad.passed == [False]
    assert bad.max_deviation == pytest.approx(0.4, abs=1e-12)


def test_f1_consistency_check_degenerate_row():
    with pytest.raises(DegenerateRow):
        f1_consistency_check([(0.0, 0.0, 0.0)], tol=0.01)


def test_f1_consistency_over_reference_table():
    rows = [(row.precision, row.recall, row.f1)
            for row in WIDTH_STRIDE_RESULTS]
    assert len(rows) == 17
    result = f1_consistency_check(rows, tol=0.0015)
    assert all(result.passed), \
        f"max deviation {result.max_deviation} exceeds 0.0015"


def test_histogram_precision_bands_of_reference_table():
    values = [row.precision for row in WIDTH_STRIDE_RESULTS]
    h = histogram(values, bin_width=0.05)
    eps = 1e-9
    above_070 = h.overflow + sum(
        int(c) for e, c in zip(h.bin_edges, h.counts) if e >= 0.70 - eps)
    below_060 = h.underflow + sum(
        int(c) for e2, c in zip(h.bin_edges[1:], h.counts) if e2 <= 0.60 + eps)
    assert above_070 == 8, "eight configurations reach precision 0.70+"
    assert below_060 == 1, "one configuration sits below 0.60"
    assert int(h.counts.sum()) + h.underflow + h.overflow == 17


def test_histogram_bin_placement():
    h = histogram([0.0, 0.049, 0.05, 0.999, 1.0, -0.01], bin_width=0.05)
    assert len(h.counts) == 20
    assert h.counts[0] == 2, "[0, 0.05) holds 0.0 and 0.049"
    assert h.counts[1] == 1, "0.05 opens the second bin"
    assert h.counts[19] == 1
    assert h.overflow == 1, "1.0 falls outside [0, 1)"
    assert h.underflow == 1


def test_histogram_conservation_random():
    rng = random.Random(37)
    values = [rng.uniform(-0.5, 1.5) for _ in range(500)]
    h = histogram(values, bin_width=0.05)
    assert int(h.counts.sum()) + h.underflow + h.overflow == len(values)


def test_histogram_empty_input_zero_counts():
    h = histogram([], bin_width=0.25)
    assert h.counts.tolist() == [0, 0, 0, 0]
    assert h.underflow == 0 and h.overflow == 0


def test_histogram_ragged_last_bin():
    h = histogram([0.95], bin_width=0.4)
    assert len(h.counts) == 3, "ceil(1.0 / 0.4)"
    assert h.bin_edges[-1] == pytest.approx(1.2)
    assert h.counts.tolist() == [0, 0, 1]


def test_histogram_validation():
    with pytest.raises(BadBins):
        histogram([0.5], bin_width=0.0)
    for width in (math.nan, math.inf, 1e-300):
        with pytest.raises(BadBins):
            histogram([0.5], bin_width=width)


def separable_matrix(n=80, seed=2):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.4).astype(np.int8)
    X = np.column_stack([y * 3.0 + rng.normal(0, 0.2, n),
                         rng.normal(size=n)])
    return FeatureMatrix.from_arrays(("sig", "noise"), X, y)


def test_evaluate_perfect_separation():
    m = separable_matrix()
    model, _ = fit(m)
    report = evaluate(model, m)
    assert report.precision == 1.0 and report.recall == 1.0
    assert report.f1 == 1.0
    assert report.confusion.total == m.n_rows
    assert report.config["features"] == ["sig", "noise"]
    assert report.config["threshold"] == 0.5


def test_evaluate_projects_feature_superset():
    """A matrix carrying extra columns is projected onto the model schema."""
    m = separable_matrix()
    model, _ = fit(m.select(["sig"]))
    report = evaluate(model, m)
    assert report.recall == 1.0
    assert report.config["features"] == ["sig"]


def test_evaluate_empty_matrix():
    m = separable_matrix().subset(np.zeros(0, dtype=np.int64))
    model, _ = fit(separable_matrix())
    with pytest.raises(EmptyInput):
        evaluate(model, m)


def test_evaluate_extra_config_echo():
    m = separable_matrix()
    model, _ = fit(m)
    report = evaluate(model, m, extra_config={"partition": "test"})
    assert report.config["partition"] == "test"
