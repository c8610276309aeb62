"""Optional dimensionality-reduction stages: Pearson-correlation filtering,
backward feature elimination, and PCA.

All three are default-off in the pipeline; headline runs use the full
21-feature matrix. Everything here is deterministic: scan orders follow the
canonical feature ordering and PCA signs follow a fixed convention.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import atomic_write_text
from .errors import BadComponentCount, SchemaMismatch, TooFewRows
from .features import FeatureMatrix, weighted_gram
from .logreg import fit
from .metrics import evaluate
from ._split import SplitSpec, split


@dataclass(frozen=True)
class CorrelationMatrix:
    feature_names: tuple[str, ...]
    values: np.ndarray
    constant_flags: np.ndarray


def _covariance(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column means of X and its population covariance matrix, summed
    in weighted_gram's fixed row order."""
    n = X.shape[0]
    mean = X.mean(axis=0)
    return mean, weighted_gram(X - mean, np.full(n, 1.0 / n))


def pearson_matrix(matrix: FeatureMatrix) -> CorrelationMatrix:
    """Pairwise Pearson coefficients between feature columns.

    Zero-variance features are flagged and every pair involving one gets
    coefficient 0 (including its own diagonal); other diagonal entries are
    exactly 1.
    """
    if matrix.n_rows < 2:
        raise TooFewRows("pearson_matrix needs at least 2 rows")
    X = matrix.X
    constant = X.min(axis=0) == X.max(axis=0)
    _, cov = _covariance(X)
    std = np.sqrt(np.diag(cov).clip(min=0.0))
    denom = np.outer(std, std)
    live = ~constant
    values = np.zeros_like(cov)
    live_pair = np.outer(live, live)
    values[live_pair] = cov[live_pair] / denom[live_pair]
    values[np.diag_indices_from(values)] = np.where(live, 1.0, 0.0)
    return CorrelationMatrix(matrix.feature_names, values, constant)


def correlation_filter(matrix: FeatureMatrix,
                       threshold: float) -> tuple[list[str], list[tuple[str, str]]]:
    """Greedy de-correlation in canonical feature order.

    Keeps a feature unless it is constant or its |r| with an already-retained
    feature exceeds threshold. threshold must lie in (0, 1]; at exactly 1.0
    only constant features drop (|r|=1 does not exceed 1). Returns the
    retained names and (name, reason) pairs for every dropped feature.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    cm = pearson_matrix(matrix)
    retained: list[int] = []
    dropped: list[tuple[str, str]] = []
    for i, name in enumerate(cm.feature_names):
        if cm.constant_flags[i]:
            dropped.append((name, "constant"))
            continue
        hit = next((j for j in retained if abs(cm.values[i, j]) > threshold),
                   None)
        if hit is not None:
            dropped.append((name, f"|r|={abs(cm.values[i, hit]):.6f} with "
                                  f"{cm.feature_names[hit]}"))
            continue
        retained.append(i)
    return [cm.feature_names[i] for i in retained], dropped


def backward_elimination(matrix: FeatureMatrix, min_features: int = 1,
                         tol: float = 0.0,
                         split_spec=None) -> tuple[list[str], list[dict]]:
    """Iteratively drop the feature whose removal best preserves validation
    F1 of a default-hyperparameter fit.

    The matrix is split once (chronologically by default, same protocol as
    training) and that row partition is reused for every candidate subset.
    Each step scores all single-feature removals, in canonical order, and
    removes the best one (ties keep the earliest candidate); stops when the
    best removal would cost more than tol versus the current score, or when
    min_features is reached. Returns (retained names, per-step trace).

    With tol=math.inf the scan never stops early and exactly min_features
    survive.
    """
    names = list(matrix.feature_names)
    if not 1 <= min_features <= len(names):
        raise ValueError(
            f"min_features must be in 1..{len(names)}, got {min_features}")
    if min_features == len(names):
        return names, []

    spec = split_spec if split_spec is not None else SplitSpec()
    train, val = split(matrix, spec)

    def score(subset: Sequence[str]) -> float:
        model, _ = fit(train.select(subset))
        return evaluate(model, val.select(subset)).f1

    current = list(names)
    current_score = score(current)
    trace: list[dict] = []
    while len(current) > min_features:
        best_name, best_score = None, -math.inf
        for name in current:
            candidate = [n for n in current if n != name]
            s = score(candidate)
            if s > best_score:
                best_name, best_score = name, s
        if best_score < current_score - tol:
            break
        current.remove(best_name)
        trace.append({"removed": best_name, "score": best_score,
                      "n_features": len(current)})
        current_score = best_score
    return current, trace


@dataclass(frozen=True)
class PcaModel:
    """Principal axes of the fitting data.

    components rows are orthonormal, ordered by non-increasing explained
    variance; the largest-magnitude element of each row is positive. Variances
    follow the package-wide population convention (divide by n).
    """

    feature_names: tuple[str, ...]
    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca_fit(matrix: FeatureMatrix, n_components: int) -> PcaModel:
    """Eigendecomposition of the population covariance matrix."""
    if matrix.n_rows < 2:
        raise TooFewRows("pca_fit needs at least 2 rows")
    dim = matrix.n_features
    if not 1 <= n_components <= dim:
        raise BadComponentCount(
            f"n_components must be in 1..{dim}, got {n_components}")
    mean, cov = _covariance(matrix.X)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    components = eigvecs[:, order].T.copy()
    explained = eigvals[order].clip(min=0.0)
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(matrix.feature_names, mean, components, explained)


def pca_transform(matrix: FeatureMatrix, model: PcaModel) -> FeatureMatrix:
    """Project rows onto the principal axes; feature names become pc_1..pc_k."""
    if matrix.feature_names != tuple(model.feature_names):
        raise SchemaMismatch(
            f"PCA fitted on {list(model.feature_names)}, "
            f"matrix has {list(matrix.feature_names)}")
    Z = (matrix.X - model.mean) @ model.components.T
    out = FeatureMatrix(
        feature_names=tuple(f"pc_{i + 1}" for i in range(model.n_components)),
        X=Z,
        y=matrix.y,
        window_index=matrix.window_index,
        window_start_us=matrix.window_start_us,
        key_code=matrix.key_code,
        keys=matrix.keys,
        meta=dict(matrix.meta),
    )
    return out


def pca_reconstruct(Z: np.ndarray, model: PcaModel) -> np.ndarray:
    """Map projected coordinates back to the original feature space."""
    return np.asarray(Z) @ model.components + model.mean


def write_selection_report(path: str, retained: Sequence[str],
                           dropped: Sequence[dict],
                           score_trace: Sequence[dict]) -> None:
    """One JSON object: retained features, dropped features with reasons,
    and the elimination score trace."""
    payload = {
        "retained": list(retained),
        "dropped": list(dropped),
        "score_trace": list(score_trace),
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
