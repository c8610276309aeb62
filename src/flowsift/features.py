"""Feature matrix container, canonical feature ordering, standardization,
and the feature-CSV interchange format.

The canonical feature set is flow_count plus five aggregate statistics (sum,
mean, population std, max, median) of each of the four magnitude columns
(dur, tot_pkts, tot_bytes, src_bytes): 21 features. The ordering below is
frozen; serialized artifacts depend on it.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._util import atomic_write_text, fmt_g9
from .errors import DegenerateComputation, EmptyInput, SchemaMismatch

BASE_ATTRS = ("dur", "tot_pkts", "tot_bytes", "src_bytes")
STAT_NAMES = ("sum", "mean", "std", "max", "median")
FEATURE_NAMES: tuple[str, ...] = ("flow_count",) + tuple(
    f"{attr}_{stat}" for attr in BASE_ATTRS for stat in STAT_NAMES)

_META_COLUMNS = ("window_index", "window_start_us", "src_addr")


@dataclass
class FeatureMatrix:
    """Dense per-(window, source) feature rows with binary targets.

    X is (n_rows, n_features) float64 aligned to feature_names; y is the
    binary target vector. window_index/window_start_us/src_addr identify each
    row. meta echoes how the matrix was built (width_s, stride_s, origin_us,
    positive_classes, group_by) when known.
    """

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    window_index: np.ndarray
    window_start_us: np.ndarray
    src_addr: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        n = self.X.shape[0]
        if self.X.ndim != 2 or self.X.shape[1] != len(self.feature_names):
            raise ValueError("X shape does not match feature_names")
        for arr in (self.y, self.window_index, self.window_start_us, self.src_addr):
            if len(arr) != n:
                raise ValueError("row-aligned arrays disagree in length")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def subset(self, indices) -> "FeatureMatrix":
        """Row subset (indices array or boolean mask), metadata preserved."""
        idx = np.asarray(indices)
        return FeatureMatrix(
            feature_names=self.feature_names,
            X=self.X[idx],
            y=self.y[idx],
            window_index=self.window_index[idx],
            window_start_us=self.window_start_us[idx],
            src_addr=self.src_addr[idx],
            meta=dict(self.meta),
        )

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        """Column projection onto the named features, in the given order."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise SchemaMismatch(f"features not in matrix: {missing}")
        cols = [self.feature_names.index(n) for n in names]
        out = replace(self, feature_names=tuple(names), X=self.X[:, cols])
        out.meta = dict(self.meta)
        return out

    @classmethod
    def from_arrays(cls, feature_names: Sequence[str], X, y,
                    window_index=None, window_start_us=None, src_addr=None,
                    meta: dict | None = None) -> "FeatureMatrix":
        """Build a matrix from plain arrays; row identities default to a
        synthetic one-window-per-row layout (useful in tests)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n = X.shape[0]
        y = np.asarray(y, dtype=np.int8)
        if window_index is None:
            window_index = np.arange(n, dtype=np.int64)
        if window_start_us is None:
            window_start_us = np.asarray(window_index, dtype=np.int64) * 1_000_000
        if src_addr is None:
            src_addr = np.array([f"10.0.0.{i % 250}" for i in range(n)])
        return cls(
            feature_names=tuple(feature_names),
            X=X,
            y=y,
            window_index=np.asarray(window_index, dtype=np.int64),
            window_start_us=np.asarray(window_start_us, dtype=np.int64),
            src_addr=np.asarray(src_addr),
            meta=dict(meta or {}),
        )


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature centering/scaling constants.

    scale is the population std, except constant features (flagged) get
    scale 1 so transforming them yields exactly 0 instead of blowing up.
    """

    feature_names: tuple[str, ...]
    means: np.ndarray
    scales: np.ndarray
    constant_flags: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.means).all():
            raise ValueError("standardization means must be finite")
        if not (np.isfinite(self.scales).all() and (self.scales > 0).all()):
            raise ValueError("standardization scales must be finite and > 0")

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.means) / self.scales


def standardize_fit(matrix: FeatureMatrix) -> StandardizationParams:
    """Fit per-feature mean and population std on the matrix rows."""
    if matrix.n_rows == 0:
        raise EmptyInput("cannot standardize an empty matrix")
    X = matrix.X
    # a spread beyond float64 overflows to inf, which the params reject below
    with np.errstate(over="ignore"):
        means = X.mean(axis=0)
        stds = X.std(axis=0)
    # exact constancy test; a tiny nonzero std from rounding must not become
    # the divisor
    constant = X.min(axis=0) == X.max(axis=0)
    scales = np.where(constant, 1.0, stds)
    means = np.where(constant, X[0], means)
    try:
        return StandardizationParams(
            feature_names=matrix.feature_names,
            means=means,
            scales=scales,
            constant_flags=constant,
        )
    except ValueError as exc:
        raise DegenerateComputation(f"cannot standardize: {exc}") from None


def write_matrix_csv(path: str, matrix: FeatureMatrix) -> None:
    """Write the interchange CSV: fixed meta columns, features, target.

    Reals carry 9 significant digits. Row order is whatever the matrix holds
    (build_matrix emits the canonical window-then-source order).
    """
    lines = [",".join(_META_COLUMNS) + "," + ",".join(matrix.feature_names)
             + ",target"]
    for i in range(matrix.n_rows):
        cells = [str(int(matrix.window_index[i])),
                 str(int(matrix.window_start_us[i])),
                 str(matrix.src_addr[i])]
        cells.extend(fmt_g9(v) for v in matrix.X[i])
        cells.append(str(int(matrix.y[i])))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_matrix_csv(path: str) -> FeatureMatrix:
    """Read a feature CSV back into a FeatureMatrix.

    The header must carry the three meta columns and a trailing target column;
    whatever lies between is taken as the feature schema (the canonical 21
    names for pipeline output, pc_N names after a PCA stage, subsets after
    selection). Every feature must be a finite number and every target 0 or
    1; any other cell raises SchemaMismatch naming path:line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if tuple(cols[:3]) != _META_COLUMNS or cols[-1] != "target" or len(cols) < 5:
            raise SchemaMismatch(f"unexpected feature-CSV header in {path}")
        names = tuple(cols[3:-1])
        win, start, src, feats, targets = [], [], [], [], []
        # a typed array: a list of int objects among the parsed floats grows
        # peak RSS by ~13 MB on a 38k-row file
        line_nos = array("q")
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(cols):
                raise SchemaMismatch(
                    f"{path}:{line_no}: expected {len(cols)} columns, "
                    f"got {len(cells)}")
            try:
                win.append(int(cells[0]))
                start.append(int(cells[1]))
                feats.append([float(v) for v in cells[3:-1]])
                target = int(cells[-1])
            except ValueError as exc:
                raise SchemaMismatch(f"{path}:{line_no}: {exc}") from None
            if target not in (0, 1):
                raise SchemaMismatch(
                    f"{path}:{line_no}: target must be 0 or 1, got {target}")
            src.append(cells[2])
            targets.append(target)
            line_nos.append(line_no)
    X = np.array(feats, dtype=np.float64).reshape(len(feats), len(names))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise SchemaMismatch(
            f"{path}:{line_nos[bad[0]]}: feature value is not finite")
    return FeatureMatrix(
        feature_names=names,
        X=X,
        y=np.array(targets, dtype=np.int8),
        window_index=np.array(win, dtype=np.int64),
        window_start_us=np.array(start, dtype=np.int64),
        src_addr=np.array(src),
    )
