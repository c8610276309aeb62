"""Binary logistic regression, written out from first principles.

Deterministic damped Newton (iteratively reweighted least squares) with
backtracking on the loss: no solver library beyond a dense linear solve, no
stochasticity, so identical inputs give bit-identical models at any BLAS
thread count and run-to-run variation can only come from data splits.
Numerics are kept overflow-safe throughout: the sigmoid never exponentiates a
positive argument and the loss uses the log(1 + e^-|z|) form rather than
log(sigmoid).
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text, naming_undecodable
from .errors import (CorruptModel, NonFiniteLoss, SchemaMismatch,
                     SchemaVersionMismatch, ShapeMismatch, SingleClassInput)
from .features import (FeatureMatrix, StandardizationParams, standardize_fit,
                       weighted_gram)

MODEL_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class HyperParams:
    """The two values that define the objective."""

    l2_lambda: float = 1e-4
    class_weight_mode: str = "balanced"

    def __post_init__(self):
        if isinstance(self.l2_lambda, bool) or not isinstance(
                self.l2_lambda, numbers.Real):
            raise ValueError(f"l2_lambda must be a number, got {self.l2_lambda!r}")
        if not 0 <= self.l2_lambda < math.inf:
            raise ValueError("l2_lambda must be finite and >= 0")
        # membership also rules out anything but a string
        if self.class_weight_mode not in ("none", "balanced"):
            raise ValueError("class_weight_mode must be 'none' or 'balanced'")


@dataclass(eq=False)
class LogRegModel:
    weights: np.ndarray
    bias: float
    feature_names: tuple[str, ...]
    standardization: StandardizationParams
    threshold: float
    hyperparams: HyperParams
    training_meta: dict

    def __post_init__(self):
        self.feature_names = tuple(self.feature_names)
        if len(self.weights) != len(self.feature_names):
            raise ValueError("weights length must match feature_names")
        if not (np.isfinite(self.weights).all() and math.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogRegModel):
            return NotImplemented
        s, o = self.standardization, other.standardization
        return (np.array_equal(self.weights, other.weights)
                and self.bias == other.bias
                and self.feature_names == other.feature_names
                and tuple(s.feature_names) == tuple(o.feature_names)
                and np.array_equal(s.means, o.means)
                and np.array_equal(s.scales, o.scales)
                and np.array_equal(s.constant_flags, o.constant_flags)
                and self.threshold == other.threshold
                and self.hyperparams == other.hyperparams
                and self.training_meta == other.training_meta)


@dataclass
class TrainReport:
    loss_trace: list[float]
    converged: bool
    iterations_run: int


def sigmoid(z):
    """1 / (1 + e^-z), branch on sign so exp never sees a positive argument."""
    arr = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


def _margins(X, weights) -> np.ndarray:
    """X @ weights, each row's dot product taken on its own. A threaded BLAS
    matrix-vector product can give a row other bits depending on where the
    threads cut the rows, so the thread count would reach the model file."""
    return np.einsum("ij,j->i", X, weights)


def _check_shapes(weights, X, y, class_weights):
    if X.ndim != 2:
        raise ShapeMismatch(f"X must be 2-D, got ndim={X.ndim}")
    n, f = X.shape
    if len(weights) != f:
        raise ShapeMismatch(f"weights has {len(weights)} entries for {f} features")
    if len(y) != n or len(class_weights) != n:
        raise ShapeMismatch(
            f"row mismatch: X has {n}, y has {len(y)}, "
            f"class_weights has {len(class_weights)}")


def loss(weights, bias: float, X, y, class_weights, l2_lambda: float) -> float:
    """Weighted mean negative log-likelihood plus (l2/2)*||w||^2.

    Per-sample NLL is max(z,0) - y*z + log1p(e^-|z|), which equals
    -[y log p + (1-y) log(1-p)] without ever forming log(sigmoid). The mean is
    normalized by the sum of class weights; the bias is not regularized.
    """
    weights = np.asarray(weights, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    _check_shapes(weights, X, y, class_weights)
    return _loss_at(_margins(X, weights) + bias, weights, y, class_weights,
                    l2_lambda)


def _loss_at(z, weights, y, class_weights, l2_lambda: float) -> float:
    """loss given the margins z = X @ weights + bias."""
    per_sample = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    nll = float((class_weights * per_sample).sum() / class_weights.sum())
    return nll + 0.5 * l2_lambda * float(weights @ weights)


def gradient(weights, bias: float, X, y, class_weights,
             l2_lambda: float) -> tuple[np.ndarray, float]:
    """Analytic gradient of loss: ((1/Σc)Σ cᵢ(pᵢ-yᵢ)xᵢ + λw, (1/Σc)Σ cᵢ(pᵢ-yᵢ))."""
    weights = np.asarray(weights, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    _check_shapes(weights, X, y, class_weights)
    p = sigmoid(_margins(X, weights) + bias)
    r = class_weights * (p - y) / class_weights.sum()
    return np.einsum("ij,i->j", X, r) + l2_lambda * weights, float(r.sum())


def class_weights_for(y: np.ndarray, mode: str) -> np.ndarray:
    """Per-sample weights: all-ones, or balanced cᵢ = N / (2 * N_class(yᵢ))."""
    y = np.asarray(y)
    n = len(y)
    n_pos = int((y == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput(
            f"training data has {n_pos} positive and {n_neg} negative rows")
    if mode == "none":
        return np.ones(n)
    if mode == "balanced":
        w_pos = n / (2.0 * n_pos)
        w_neg = n / (2.0 * n_neg)
        return np.where(y == 1, w_pos, w_neg)
    raise ValueError(f"unknown class_weight_mode {mode!r}")


# fit's Newton loop: a safety cap on iterations and the stopping tolerance
_MAX_ITER = 100
_TOL = 1e-8
_MAX_BACKTRACKS = 60


def _newton_direction(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H d = g; a singular H (l2_lambda=0 with a constant column) falls
    back to the minimum-norm least-squares solution."""
    try:
        return np.linalg.solve(hessian, grad)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(hessian, grad, rcond=None)[0]


def fit(matrix: FeatureMatrix, hyperparams: HyperParams | None = None
        ) -> tuple[LogRegModel, TrainReport]:
    """Train on a labeled feature matrix.

    Features are standardized against this data into Xa, with a last column
    of ones for the bias, and θ = [w, b] starts at zero. Each iteration
    solves for the Newton direction with the Hessian
    Xaᵀ diag(cᵢpᵢ(1-pᵢ)/Σc) Xa + λI (the bias entry of λI is 0), then
    backtracks from the full step, halving it while it would increase the
    loss. Stops when the gradient inf-norm falls below _TOL, when an accepted
    step improves the loss by less than _TOL, or when no halved step can
    decrease the loss (numerical floor); _MAX_ITER is only a safety cap,
    reported as converged=False. The margins Xa θ are computed once per
    iterate, a row at a time (_margins), never as a threaded BLAS product:
    the accepted candidate's margins serve the next iteration's gradient,
    curvature and loss.

    The model's decision threshold is 0.5.
    """
    hp = hyperparams if hyperparams is not None else HyperParams()
    y = np.asarray(matrix.y, dtype=np.float64)
    class_weights = class_weights_for(y, hp.class_weight_mode)
    params = standardize_fit(matrix)
    # standardized in place: X - means as a temporary is a second copy of X
    Xa = np.ones((matrix.n_rows, matrix.n_features + 1))
    np.subtract(matrix.X, params.means, out=Xa[:, :-1])
    np.divide(Xa[:, :-1], params.scales, out=Xa[:, :-1])
    ridge = np.append(np.full(matrix.n_features, hp.l2_lambda), 0.0)
    norm_weights = class_weights / class_weights.sum()

    theta = np.zeros(matrix.n_features + 1)
    z = _margins(Xa, theta)
    current = _loss_at(z, theta[:-1], y, class_weights, hp.l2_lambda)
    if not math.isfinite(current):
        raise NonFiniteLoss(f"initial loss is {current}")
    trace = [current]
    converged = False
    for _ in range(_MAX_ITER):
        p = sigmoid(z)
        grad = np.einsum("ij,i->j", Xa, norm_weights * (p - y)) + ridge * theta
        if not np.isfinite(grad).all():
            raise NonFiniteLoss("gradient is non-finite")
        if float(np.abs(grad).max()) < _TOL:
            converged = True
            break
        hessian = weighted_gram(Xa, norm_weights * p * (1.0 - p))
        hessian[np.diag_indices_from(hessian)] += ridge
        direction = _newton_direction(hessian, grad)
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            theta_new = theta - step * direction
            z_new = _margins(Xa, theta_new)
            candidate = _loss_at(z_new, theta_new[:-1], y, class_weights,
                                 hp.l2_lambda)
            if math.isfinite(candidate) and candidate <= current:
                break
            step *= 0.5
        else:
            converged = True
            break
        improvement = current - candidate
        theta, z, current = theta_new, z_new, candidate
        trace.append(current)
        if improvement < _TOL:
            converged = True
            break

    meta = {
        "iterations_run": len(trace) - 1,
        "final_loss": current,
        "converged": converged,
    }
    model = LogRegModel(
        weights=theta[:-1],
        bias=float(theta[-1]),
        feature_names=matrix.feature_names,
        standardization=params,
        threshold=0.5,
        hyperparams=hp,
        training_meta=meta,
    )
    report = TrainReport(
        loss_trace=trace,
        converged=converged,
        iterations_run=len(trace) - 1,
    )
    return model, report


def _check_schema(model: LogRegModel, matrix: FeatureMatrix) -> None:
    if matrix.feature_names != model.feature_names:
        raise SchemaMismatch(
            f"model expects features {list(model.feature_names)}, "
            f"matrix has {list(matrix.feature_names)}")


# rows predict_proba standardizes at a time: the scored matrix is never
# held a second time, standardized, whatever its size
_SCORE_BLOCK_ROWS = 4096


def predict_proba(model: LogRegModel, matrix: FeatureMatrix) -> np.ndarray:
    """P(positive) per row; the matrix schema must equal the model's.

    The rows are standardized and their margins taken _SCORE_BLOCK_ROWS at
    a time, into one vector of margins. Each row's margin is its own dot
    product (_margins), so the blocks give the bits of one pass over all
    rows."""
    _check_schema(model, matrix)
    margins = np.empty(matrix.n_rows)
    for lo in range(0, matrix.n_rows, _SCORE_BLOCK_ROWS):
        rows = slice(lo, lo + _SCORE_BLOCK_ROWS)
        margins[rows] = _margins(
            model.standardization.transform(matrix.X[rows]), model.weights)
    return sigmoid(margins + model.bias)


def predict_label(model: LogRegModel, matrix: FeatureMatrix) -> np.ndarray:
    """Hard labels: probability >= threshold counts as positive."""
    return (predict_proba(model, matrix) >= model.threshold).astype(np.int8)


def save_model(path: str, model: LogRegModel) -> None:
    """Serialize to canonical JSON. Floats use Python's shortest round-trip
    repr, so load_model reproduces every field bit-for-bit."""
    s = model.standardization
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "feature_names": list(model.feature_names),
        "weights": [float(v) for v in model.weights],
        "bias": float(model.bias),
        "standardization": {
            "means": [float(v) for v in s.means],
            "scales": [float(v) for v in s.scales],
            "constant_flags": [bool(v) for v in s.constant_flags],
        },
        "threshold": float(model.threshold),
        "hyperparams": {
            "l2_lambda": model.hyperparams.l2_lambda,
            "class_weight_mode": model.hyperparams.class_weight_mode,
        },
        "training_meta": model.training_meta,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _json_array(value, dtype) -> np.ndarray:
    """A model file's flat JSON list as a 1-D array: booleans for the bool
    dtype, numbers for float64. Anything else, a nested list or a boolean
    among numbers included, raises ValueError rather than being coerced."""
    kind, types = ("booleans", (bool,)) if dtype is bool else (
        "numbers", (int, float))
    if not (isinstance(value, list) and all(type(v) in types for v in value)):
        raise ValueError(f"expected a flat list of {kind}, "
                         f"got {json.dumps(value)[:80]}")
    return np.array(value, dtype=dtype)


def _json_number(value) -> float:
    """A model file's JSON number as a float. A boolean, a string or
    anything else raises ValueError rather than being coerced, as in
    _json_array."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {json.dumps(value)[:80]}")
    return float(value)


def load_model(path: str) -> LogRegModel:
    """Read a model file; rejects unknown schema versions and mangled files."""
    with naming_undecodable(path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise CorruptModel(f"{path}: expected a JSON object")
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: schema_version {version!r}, expected {MODEL_SCHEMA_VERSION}")
    try:
        std = payload["standardization"]
        params = StandardizationParams(
            feature_names=tuple(payload["feature_names"]),
            means=_json_array(std["means"], np.float64),
            scales=_json_array(std["scales"], np.float64),
            constant_flags=_json_array(std["constant_flags"], bool),
        )
        hp = HyperParams(**payload["hyperparams"])
        model = LogRegModel(
            weights=_json_array(payload["weights"], np.float64),
            bias=_json_number(payload["bias"]),
            feature_names=tuple(payload["feature_names"]),
            standardization=params,
            threshold=_json_number(payload["threshold"]),
            hyperparams=hp,
            training_meta=dict(payload["training_meta"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{path}: {exc}") from None
    if not (len(params.means) == len(params.scales)
            == len(params.constant_flags) == len(model.weights)):
        raise CorruptModel(f"{path}: array lengths disagree")
    return model
