"""Feature matrix container, canonical feature ordering, standardization,
and the feature-CSV interchange format.

The canonical feature set is flow_count plus five aggregate statistics (sum,
mean, population std, max, median) of each of the four magnitude columns
(dur, tot_pkts, tot_bytes, src_bytes): 21 features. The ordering below is
frozen; serialized artifacts depend on it.
"""
from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass, field, replace
from typing import Sequence, TextIO

import numpy as np

from ._util import naming_undecodable, write_ranges
from .errors import DegenerateComputation, EmptyInput, SchemaMismatch

BASE_ATTRS = ("dur", "tot_pkts", "tot_bytes", "src_bytes")
STAT_NAMES = ("sum", "mean", "std", "max", "median")
FEATURE_NAMES: tuple[str, ...] = ("flow_count",) + tuple(
    f"{attr}_{stat}" for attr in BASE_ATTRS for stat in STAT_NAMES)

_META_COLUMNS = ("window_index", "window_start_us", "src_addr")
_INT64 = range(-2 ** 63, 2 ** 63)


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
        """Row subset (indices array, boolean mask or slice), metadata
        preserved. A slice gives views of this matrix's arrays, any other
        index copies."""
        idx = indices if isinstance(indices, slice) else np.asarray(indices)
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
        """(X - means) / scales in one new X-sized array: the division
        runs in place."""
        out = X - self.means
        np.divide(out, self.scales, out=out)
        return out


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


# rows per weighted_gram block: one BLAS call over all rows splits its sum by
# thread, so its bits would follow the thread count; fixed blocks do not
_GRAM_BLOCK_ROWS = 512


def weighted_gram(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Σᵢ cᵢ·aᵢaᵢᵀ over the rows aᵢ of A, summed block by block in row order."""
    gram = np.zeros((A.shape[1], A.shape[1]))
    for lo in range(0, A.shape[0], _GRAM_BLOCK_ROWS):
        block = A[lo:lo + _GRAM_BLOCK_ROWS]
        gram += (block.T * c[lo:lo + _GRAM_BLOCK_ROWS]) @ block
    return gram


# rows formatted per write: the text, and the per-column lists it is
# formatted from, are held one chunk at a time
_FORMAT_ROWS = 512
# the shortest row range that write_matrix_csv forks a child for, since a
# fork costs a few milliseconds
_MIN_RANGE_ROWS = 4096


def write_matrix_csv(path: str, matrix: FeatureMatrix) -> None:
    """Write the interchange CSV: fixed meta columns, features, target.

    Reals carry 9 significant digits ("%.9g", the same text as fmt_g9). Row
    order is whatever the matrix holds (build_matrix emits the canonical
    window-then-source order). Rows are formatted _FORMAT_ROWS at a time
    and streamed to the atomic temp file, so the text is never held whole.

    _util.write_ranges writes them: one contiguous range per share, none
    shorter than _MIN_RANGE_ROWS, every range but the first formatted in a
    forked child. The error raised is that of the earliest bad row in file
    order.
    """
    row_format = ",".join(["%d", "%d", "%s"] + ["%.9g"] * matrix.n_features
                          + ["%d"]) + "\n"
    head = (",".join(_META_COLUMNS) + "," + ",".join(matrix.feature_names)
            + ",target\n")
    write_ranges(path, head, matrix.n_rows, _MIN_RANGE_ROWS,
                 functools.partial(_write_rows, matrix, row_format),
                 "the feature-CSV writer")


def _write_rows(matrix: FeatureMatrix, row_format: str, fh: TextIO,
                lo: int, hi: int) -> None:
    """Format matrix rows [lo, hi) to fh a chunk at a time."""
    for start in range(lo, hi, _FORMAT_ROWS):
        rows = slice(start, min(start + _FORMAT_ROWS, hi))
        columns = [matrix.window_index[rows].tolist(),
                   matrix.window_start_us[rows].tolist(),
                   matrix.src_addr[rows].tolist(),
                   *matrix.X[rows].T.tolist(),
                   matrix.y[rows].tolist()]
        fh.write("".join([row_format % row for row in zip(*columns)]))


def _read_header(fh, path: str) -> list[str]:
    """The header's column names; SchemaMismatch unless it carries the three
    meta columns, at least one feature and a trailing target column."""
    cols = fh.readline().rstrip("\n").split(",")
    if tuple(cols[:3]) != _META_COLUMNS or cols[-1] != "target" or len(cols) < 5:
        raise SchemaMismatch(f"unexpected feature-CSV header in {path}")
    return cols


def read_matrix_csv(path: str) -> FeatureMatrix:
    """Read a feature CSV back into a FeatureMatrix.

    The header must carry the three meta columns and a trailing target column;
    whatever lies between is taken as the feature schema (the canonical 21
    names for pipeline output, pc_N names after a PCA stage, subsets after
    selection). Every feature must be a finite number and every target 0 or
    1; any other cell raises SchemaMismatch naming path:line.

    The numbers are parsed in bulk; a file the bulk parse does not vouch for
    is read again line by line, which either raises the path:line error or
    accepts what the bulk parse is stricter about ("1_0", non-ASCII digits).
    """
    with naming_undecodable(path):
        matrix = _read_matrix_csv_bulk(path)
        return matrix if matrix is not None else _read_matrix_csv_lines(path)


def _read_matrix_csv_bulk(path: str) -> FeatureMatrix | None:
    """np.loadtxt over the numeric columns and one split per line for
    src_addr; None when the file has no rows, a cell loadtxt rejects, a row
    of the wrong width, a non-finite feature or a target other than 0 or 1."""
    with open(path, "r", encoding="utf-8") as fh:
        cols = _read_header(fh, path)
        src: list[str] = []

        def rows():
            # the lines the per-line parser reads, checked for width here
            # because loadtxt with usecols accepts a row with extra cells
            for line in fh:
                if line == "\n":
                    continue
                if line.count(",") != len(cols) - 1:
                    raise ValueError("row width differs from the header")
                src.append(line.split(",", 3)[2])
                yield line

        dtype = np.dtype([("window_index", np.int64),
                          ("window_start_us", np.int64),
                          ("X", np.float64, (len(cols) - 4,)),
                          ("target", np.int64)])
        lines = rows()
        try:
            # loadtxt warns on an empty input; that file needs no bulk parse
            first = next(lines, None)
            if first is None:
                return None
            table = np.loadtxt(itertools.chain([first], lines), dtype=dtype,
                               delimiter=",", comments=None,
                               usecols=[0, 1, *range(3, len(cols))], ndmin=1)
        except ValueError:
            return None
    # X and the row identities stay views of the table: copying them out
    # would hold the matrix twice at the peak
    X = table["X"]
    y = table["target"]
    if not (np.isfinite(X).all() and ((y == 0) | (y == 1)).all()):
        return None
    return FeatureMatrix(
        feature_names=tuple(cols[3:-1]),
        X=X,
        y=y.astype(np.int8),
        window_index=table["window_index"],
        window_start_us=table["window_start_us"],
        src_addr=np.array(src),
    )


def _read_matrix_csv_lines(path: str) -> FeatureMatrix:
    """The per-line parser: the error path of read_matrix_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        cols = _read_header(fh, path)
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
                index, start_us = int(cells[0]), int(cells[1])
                feats.append([float(v) for v in cells[3:-1]])
                target = int(cells[-1])
            except ValueError as exc:
                raise SchemaMismatch(f"{path}:{line_no}: {exc}") from None
            for name, value in zip(_META_COLUMNS, (index, start_us)):
                if value not in _INT64:
                    raise SchemaMismatch(
                        f"{path}:{line_no}: {name} {value} is outside int64")
            if target not in (0, 1):
                raise SchemaMismatch(
                    f"{path}:{line_no}: target must be 0 or 1, got {target}")
            win.append(index)
            start.append(start_us)
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
