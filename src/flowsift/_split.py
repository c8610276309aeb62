"""Train/test partitioning of feature matrices.

Chronological splitting is the default: overlapping windows (stride < width)
share flows, so a random split would leak training flows into the test side.
The purge gap drops test rows whose window starts too soon after the cut,
removing windows that overlap the training era. Stratified random splitting
exists to surface run-to-run variance under repeated seeds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplit
from .features import FeatureMatrix

_US_PER_S = 1_000_000

MODES = ("chronological", "stratified_random")


@dataclass(frozen=True)
class SplitSpec:
    """How to partition rows.

    purge_gap_s=None means "use the matrix's window width", the smallest gap
    that guarantees no test window overlaps any train window in time.
    The seed only matters in stratified_random mode.
    """

    mode: str = "chronological"
    train_fraction: float = 0.7
    purge_gap_s: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0,1), got {self.train_fraction}")
        if self.purge_gap_s is not None and self.purge_gap_s < 0:
            raise ValueError("purge_gap_s must be >= 0")


def _check_side(name: str, y: np.ndarray) -> None:
    if len(y) == 0:
        raise DegenerateSplit(f"{name} partition is empty")
    if (y == y[0]).all():
        raise DegenerateSplit(f"{name} partition is single-class")


def split(matrix: FeatureMatrix, spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Partition rows as `spec` directs; raises DegenerateSplit when either
    side comes out empty or single-class.

    A side whose rows form one run of the matrix is a view of it: the rows
    of build_matrix, of stride_multiple and of a feature CSV that featurize
    wrote are in (window start, window, source) order, so a chronological
    split of them is a leading run and a trailing run. Any other side (the stratified
    random split, rows out of order) is a copy. Both sides are read-only,
    so an in-place write raises instead of reaching the matrix."""
    y = np.asarray(matrix.y)
    if matrix.n_rows == 0 or (y == y[0]).all():
        raise DegenerateSplit("matrix must contain both classes")
    if spec.mode == "chronological":
        train_idx, test_idx = _chronological(matrix, spec)
    else:
        train_idx, test_idx = _stratified_random(matrix, spec)
    _check_side("train", y[train_idx])
    _check_side("test", y[test_idx])
    sides = matrix.subset(_as_run(train_idx)), matrix.subset(_as_run(test_idx))
    for side in sides:
        for arr in (side.X, side.y, side.window_index, side.window_start_us,
                    side.src_addr):
            arr.flags.writeable = False
    return sides


def _as_run(idx: np.ndarray) -> slice | np.ndarray:
    """Sorted distinct row numbers as a slice when they form one run, so
    that subset takes views; otherwise idx itself."""
    if idx[-1] - idx[0] + 1 == len(idx):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _chronological(matrix: FeatureMatrix,
                   spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    purge_s = spec.purge_gap_s
    if purge_s is None:
        purge_s = matrix.meta.get("width_s")
        if purge_s is None:
            raise ValueError(
                "purge_gap_s is unset and the matrix carries no width_s "
                "metadata; pass an explicit purge gap")
    starts = matrix.window_start_us
    order = np.lexsort((matrix.src_addr, matrix.window_index, starts))
    k = int(len(order) * spec.train_fraction)
    if k == 0 or k == len(order):
        raise DegenerateSplit(
            f"train_fraction {spec.train_fraction} leaves an empty partition "
            f"for {len(order)} rows")
    train_idx = order[:k]
    candidates = order[k:]
    cut_time = int(starts[candidates[0]])
    keep = starts[candidates] >= cut_time + purge_s * _US_PER_S
    test_idx = candidates[keep]
    if len(test_idx) == 0:
        raise DegenerateSplit(
            f"purge gap of {purge_s}s consumed the whole test partition")
    return np.sort(train_idx), np.sort(test_idx)


def _stratified_random(matrix: FeatureMatrix,
                       spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(spec.seed)
    y = np.asarray(matrix.y)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        perm = rng.permutation(idx)
        k = int(round(spec.train_fraction * len(idx)))
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx
