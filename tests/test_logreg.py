"""Logistic-regression primitives: sigmoid, loss, gradient, training loop,
prediction, and model serialization."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import flowsift.logreg
from flowsift.features import weighted_gram
from flowsift import (
    CorruptModel,
    FeatureMatrix,
    HyperParams,
    LogRegModel,
    SchemaVersionMismatch,
    SingleClassInput,
    StandardizationParams,
    class_weights_for,
    fit,
    gradient,
    load_model,
    loss,
    predict_label,
    predict_proba,
    save_model,
    sigmoid,
    standardize_fit,
)

LN2 = math.log(2.0)


def matrix_of(X, y, names=None):
    X = np.asarray(X, dtype=np.float64)
    if names is None:
        names = tuple(f"f{i}" for i in range(X.shape[1]))
    return FeatureMatrix.from_arrays(names, X, y)


def two_cluster_matrix(n_per_side=50):
    """x = -1 labeled 0, x = +1 labeled 1; trivially separable."""
    X = np.array([[-1.0]] * n_per_side + [[1.0]] * n_per_side)
    y = np.array([0] * n_per_side + [1] * n_per_side, dtype=np.int8)
    return matrix_of(X, y, names=("v",))


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) >= 1.0 - 1e-12
    assert sigmoid(-1000.0) <= 1e-12
    assert sigmoid(1000.0) <= 1.0 and sigmoid(-1000.0) >= 0.0


def test_sigmoid_symmetry_identity():
    for z in (-30.0, -2.5, -0.1, 0.0, 0.7, 4.0, 25.0):
        assert abs(sigmoid(-z) - (1.0 - sigmoid(z))) <= 1e-15


def test_sigmoid_vectorized():
    z = np.array([-5.0, 0.0, 5.0])
    out = sigmoid(z)
    assert out.shape == (3,)
    assert out[1] == 0.5 and out[0] < 0.01 and out[2] > 0.99


def test_loss_at_origin_is_ln2():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    y = (rng.random(40) < 0.4).astype(float)
    c = class_weights_for(y, "balanced")
    got = loss(np.zeros(3), 0.0, X, y, c, l2_lambda=0.0)
    assert got == pytest.approx(LN2, abs=1e-15)


def test_loss_l2_additivity():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4))
    y = (rng.random(30) < 0.5).astype(float)
    c = np.ones(30)
    w = rng.normal(size=4)
    lam = 0.37
    base = loss(w, 0.1, X, y, c, l2_lambda=0.0)
    ridged = loss(w, 0.1, X, y, c, l2_lambda=lam)
    assert ridged - base == pytest.approx(0.5 * lam * float(w @ w), rel=1e-12)


def test_loss_separated_limit():
    """Correct predictions driven to saturation send the NLL toward 0."""
    X = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    c = np.ones(2)
    losses = [loss(np.array([s]), 0.0, X, y, c, 0.0) for s in (1.0, 10.0, 40.0)]
    assert losses[0] < LN2
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < 1e-15


def test_gradient_balanced_symmetric_bias_term():
    """At the origin with balanced weights, the bias gradient cancels exactly:
    positives and negatives contribute equal total weight."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 5))
    y = np.array([1.0] * 12 + [0.0] * 48)
    c = class_weights_for(y, "balanced")
    _, db = gradient(np.zeros(5), 0.0, X, y, c, l2_lambda=0.0)
    assert abs(db) <= 1e-12


def test_gradient_matches_finite_differences():
    """Central differences at h=1e-6 agree to 1e-5 relative, elementwise,
    over random 21-dimensional problem instances."""
    rng = np.random.default_rng(77)
    h = 1e-6
    for _ in range(20):
        n, d = 25, 21
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        c = class_weights_for(y, "balanced")
        w = rng.normal(scale=0.8, size=d)
        b = float(rng.normal())
        lam = float(rng.uniform(0.0, 0.2))
        dw, db = gradient(w, b, X, y, c, lam)
        worst = 0.0
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (loss(w + e, b, X, y, c, lam)
                  - loss(w - e, b, X, y, c, lam)) / (2 * h)
            worst = max(worst, abs(fd - dw[j]) / max(1.0, abs(fd)))
        fd_b = (loss(w, b + h, X, y, c, lam)
                - loss(w, b - h, X, y, c, lam)) / (2 * h)
        worst = max(worst, abs(fd_b - db) / max(1.0, abs(fd_b)))
        assert worst <= 1e-5, f"max relative gradient error {worst}"


def test_gradient_l2_linearity():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 3))
    y = (rng.random(20) < 0.5).astype(float)
    c = np.ones(20)
    w = rng.normal(size=3)
    g0, b0 = gradient(w, 0.0, X, y, c, l2_lambda=0.0)
    g1, b1 = gradient(w, 0.0, X, y, c, l2_lambda=2.5)
    assert np.allclose(g1 - g0, 2.5 * w, rtol=1e-12, atol=1e-14)
    assert b1 == b0, "bias is never regularized"


def test_class_weights_balanced_and_none():
    y = np.array([1, 0, 0, 0])
    balanced = class_weights_for(y, "balanced")
    assert balanced.tolist() == [2.0, 2 / 3, 2 / 3, 2 / 3]
    assert balanced.sum() == pytest.approx(len(y))
    assert class_weights_for(y, "none").tolist() == [1.0] * 4
    with pytest.raises(SingleClassInput):
        class_weights_for(np.zeros(5), "balanced")
    with pytest.raises(ValueError):
        class_weights_for(y, "uniform")


def test_fit_separable_two_clusters():
    model, report = fit(two_cluster_matrix())
    assert model.weights[0] > 0, "positive class sits at larger feature value"
    m = two_cluster_matrix()
    assert predict_label(model, m).tolist() == m.y.tolist()
    assert report.iterations_run >= 1
    assert report.loss_trace[-1] < LN2


def test_fit_rejects_single_class():
    X = np.ones((10, 1))
    m = matrix_of(X, np.ones(10, dtype=np.int8), names=("v",))
    with pytest.raises(SingleClassInput):
        fit(m)


def test_fit_deterministic():
    m = two_cluster_matrix()
    model_a, report_a = fit(m)
    model_b, report_b = fit(m)
    assert np.array_equal(model_a.weights, model_b.weights)
    assert model_a.bias == model_b.bias
    assert report_a.loss_trace == report_b.loss_trace, \
        "optimization is deterministic"
    assert set(model_a.training_meta) == {
        "iterations_run", "final_loss", "converged"}


def noisy_matrix():
    """80 rows, 4 features, labels from a noisy linear rule: not separable."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(80, 4))
    logits = X @ np.array([2.0, -1.0, 0.5, 0.0])
    y = (logits + rng.normal(0, 0.5, 80) > 0).astype(np.int8)
    return matrix_of(X, y)


def test_fit_loss_trace_non_increasing():
    _, report = fit(noisy_matrix())
    trace = report.loss_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[0] == pytest.approx(LN2, abs=1e-15), "w=0 start"


def test_fit_converges_to_stationary_point():
    m = noisy_matrix()
    hp = HyperParams()
    model, report = fit(m, hp)
    assert report.converged
    assert report.iterations_run <= 30
    assert model.training_meta["converged"] is True
    y = m.y.astype(np.float64)
    dw, db = gradient(model.weights, model.bias,
                      model.standardization.transform(m.X), y,
                      class_weights_for(y, hp.class_weight_mode), hp.l2_lambda)
    assert max(float(np.abs(dw).max()), abs(db)) <= 1e-6


# final loss that 2000 steps of the earlier gradient-descent solver (learning
# rate 0.5, step halving) reached on noisy_matrix() at default hyperparameters
GD_2000_FINAL_LOSS = 0.2049848193009812


def test_fit_reaches_at_least_the_gradient_descent_loss():
    _, report = fit(noisy_matrix())
    assert report.loss_trace[-1] <= GD_2000_FINAL_LOSS


def reference_newton(matrix, hp):
    """The Newton loop as first written, in the augmented form: Xa is the
    standardized X beside a column of ones, θ = [w, b], and the margins
    Xa θ, one row's einsum at a time as in fit, are recomputed for every
    gradient and, through the public loss, for every candidate. fit standardizes into Xa in place, computes each
    iterate's margins once and adds the ridge to the Hessian's diagonal; it
    must reach the same iterates bit for bit. The cap and tolerance are fit's
    own constants, read at call time."""
    y = np.asarray(matrix.y, dtype=np.float64)
    cw = class_weights_for(y, hp.class_weight_mode)
    Xa = np.column_stack([standardize_fit(matrix).transform(matrix.X),
                          np.ones(len(y))])
    ridge = np.append(np.full(matrix.n_features, hp.l2_lambda), 0.0)
    norm_weights = cw / cw.sum()

    def objective(theta):
        # the unregularized loss on Xa, plus the ridge on w alone
        return (loss(theta, 0.0, Xa, y, cw, 0.0)
                + 0.5 * hp.l2_lambda * float(theta[:-1] @ theta[:-1]))

    theta = np.zeros(matrix.n_features + 1)
    trace = [objective(theta)]
    converged = False
    tol = flowsift.logreg._TOL
    for _ in range(flowsift.logreg._MAX_ITER):
        p = sigmoid(np.einsum("ij,j->i", Xa, theta))
        g = np.einsum("ij,i->j", Xa, norm_weights * (p - y)) + ridge * theta
        if float(np.abs(g).max()) < tol:
            converged = True
            break
        hessian = (weighted_gram(Xa, norm_weights * p * (1.0 - p))
                   + np.diag(ridge))
        try:
            direction = np.linalg.solve(hessian, g)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hessian, g, rcond=None)[0]
        step, accepted = 1.0, False
        for _ in range(60):
            theta_new = theta - step * direction
            candidate = objective(theta_new)
            if math.isfinite(candidate) and candidate <= trace[-1]:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True
            break
        improvement = trace[-1] - candidate
        theta = theta_new
        trace.append(candidate)
        if improvement < tol:
            converged = True
            break
    return theta[:-1], float(theta[-1]), trace, converged


def constant_column_matrix():
    m = noisy_matrix()
    return matrix_of(np.column_stack([m.X, np.full(m.n_rows, 3.0)]), m.y)


@pytest.mark.parametrize("make,hp,max_iter", [
    (noisy_matrix, HyperParams(), 100),
    (noisy_matrix, HyperParams(class_weight_mode="none"), 3),
    (two_cluster_matrix, HyperParams(l2_lambda=0.0), 100),
    (constant_column_matrix, HyperParams(l2_lambda=0.0), 100),
], ids=["default", "capped", "separable", "singular"])
def test_fit_matches_reference_newton_bit_for_bit(make, hp, max_iter,
                                                  monkeypatch):
    monkeypatch.setattr(flowsift.logreg, "_MAX_ITER", max_iter)
    m = make()
    model, report = fit(m, hp)
    w, b, trace, converged = reference_newton(m, hp)
    assert model.weights.tobytes() == w.tobytes()
    assert model.bias == b
    assert report.loss_trace == trace
    assert report.converged is converged
    if max_iter == 3:
        assert report.iterations_run == 3 and not report.converged


def test_fit_unregularized_separable_terminates_finite():
    hp = HyperParams(l2_lambda=0.0)
    model, report = fit(two_cluster_matrix(), hp)
    assert np.isfinite(model.weights).all() and math.isfinite(model.bias)
    assert 1 <= report.iterations_run <= flowsift.logreg._MAX_ITER
    m = two_cluster_matrix()
    assert predict_label(model, m).tolist() == m.y.tolist()


def test_fit_unregularized_constant_column_singular_hessian():
    """With l2_lambda=0 a constant feature makes the Hessian singular; the
    least-squares direction leaves its weight at zero."""
    m = noisy_matrix()
    X = np.column_stack([m.X, np.full(m.n_rows, 3.0)])
    model, report = fit(matrix_of(X, m.y), HyperParams(l2_lambda=0.0))
    assert report.converged
    assert model.weights[-1] == 0.0
    assert np.isfinite(model.weights).all()


def test_fit_huge_l2_crushes_weights():
    model, _ = fit(two_cluster_matrix(), HyperParams(l2_lambda=1e6))
    assert float(np.linalg.norm(model.weights)) < 1e-3


@pytest.mark.parametrize("kwargs", [{"l2_lambda": math.nan},
                                    {"l2_lambda": math.inf},
                                    {"l2_lambda": True},
                                    {"l2_lambda": "1e-4"}],
                         ids=["l2-nan", "l2-inf", "l2-bool", "l2-string"])
def test_hyperparams_reject_non_finite(kwargs):
    with pytest.raises(ValueError):
        HyperParams(**kwargs)


def test_fit_labels_invariant_to_feature_scale():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(100, 2))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0.2).astype(np.int8)
    m1 = matrix_of(X, y)
    m2 = matrix_of(X * np.array([1000.0, 0.001]), y)
    labels1 = predict_label(fit(m1)[0], m1)
    labels2 = predict_label(fit(m2)[0], m2)
    assert labels1.tolist() == labels2.tolist(), \
        "standardization absorbs per-feature units"


def zero_weight_model(names=("v",), threshold=0.5):
    d = len(names)
    params = StandardizationParams(
        feature_names=tuple(names), means=np.zeros(d), scales=np.ones(d),
        constant_flags=np.zeros(d, dtype=bool))
    return LogRegModel(
        weights=np.zeros(d), bias=0.0, feature_names=tuple(names),
        standardization=params, threshold=threshold,
        hyperparams=HyperParams(), training_meta={})


def test_predict_proba_zero_weight_model():
    m = two_cluster_matrix(5)
    assert predict_proba(zero_weight_model(), m).tolist() == [0.5] * 10


def test_predict_proba_monotone_and_bounded():
    m = two_cluster_matrix()
    model, _ = fit(m)
    grid = matrix_of(np.linspace(-3, 3, 13).reshape(-1, 1),
                     np.zeros(13, dtype=np.int8), names=("v",))
    p = predict_proba(model, grid)
    assert np.all(np.diff(p) >= 0), "positive weight is monotone in v"
    assert np.all((p > 0) & (p < 1))


def test_predict_label_threshold_rules():
    m = two_cluster_matrix(5)
    assert predict_label(zero_weight_model(threshold=0.5), m).tolist() == [1] * 10, \
        "p == threshold counts as positive"
    assert predict_label(zero_weight_model(threshold=0.9), m).tolist() == [0] * 10, \
        "p=0.5 under a 0.9 threshold is negative"


def test_save_load_round_trip(tmp_path):
    model, _ = fit(two_cluster_matrix())
    path = str(tmp_path / "model.txt")
    save_model(path, model)
    payload = json.loads(Path(path).read_text())
    assert payload["schema_version"] == 3
    assert payload["hyperparams"] == {"l2_lambda": 1e-4,
                                      "class_weight_mode": "balanced"}
    back = load_model(path)
    assert np.array_equal(back.weights, model.weights)
    assert back.bias == model.bias
    assert back.feature_names == model.feature_names
    assert back.threshold == model.threshold
    assert back.hyperparams == model.hyperparams
    assert back.training_meta == model.training_meta
    s, bs = model.standardization, back.standardization
    assert np.array_equal(bs.means, s.means)
    assert np.array_equal(bs.scales, s.scales)
    assert np.array_equal(bs.constant_flags, s.constant_flags)
    assert back == model


def test_save_is_byte_stable(tmp_path):
    model, _ = fit(two_cluster_matrix())
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    save_model(p1, model)
    save_model(p2, load_model(p1))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_load_rejects_truncated_file(tmp_path):
    model, _ = fit(two_cluster_matrix())
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptModel):
        load_model(str(path))


def test_load_rejects_missing_field(tmp_path):
    model, _ = fit(two_cluster_matrix())
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    payload = json.loads(path.read_text())
    del payload["weights"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptModel):
        load_model(str(path))


@pytest.mark.parametrize("field,value", [("scales", 0.0), ("scales", -1.0),
                                         ("scales", math.inf),
                                         ("means", math.nan)],
                         ids=["scale-zero", "scale-negative", "scale-inf",
                              "mean-nan"])
def test_load_rejects_broken_standardization(tmp_path, field, value):
    model, _ = fit(two_cluster_matrix())
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    payload = json.loads(path.read_text())
    std = payload["standardization"]
    std[field] = [value] * len(std[field])
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptModel):
        load_model(str(path))


@pytest.mark.parametrize("field,value", [
    ("constant_flags", ["no"]), ("constant_flags", [1]),
    ("weights", [True]), ("means", [True]), ("scales", ["1.0"]),
    ("weights", [[0.5, 0.5]]), ("means", 0.0), ("weights", [10 ** 400])],
    ids=["flag-string", "flag-number", "weights-bool", "mean-bool",
         "scale-string", "weights-nested", "means-scalar", "weights-huge"])
def test_load_rejects_arrays_it_would_coerce(tmp_path, field, value):
    """Each of the four arrays is a flat JSON list of numbers (booleans for
    the flags). numpy would turn "no" into True, true into 1.0 and a nested
    list into a second axis, and overflow on an integer beyond float64."""
    model, _ = fit(two_cluster_matrix())
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    payload = json.loads(path.read_text())
    n = len(payload["weights"])
    arrays = (payload if field == "weights" else payload["standardization"])
    arrays[field] = value * n if isinstance(value, list) else value
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptModel):
        load_model(str(path))


@pytest.mark.parametrize("field,value", [
    ("bias", True), ("bias", "1.5"), ("bias", [0.5]), ("bias", None),
    ("threshold", "0.5"), ("threshold", False),
    ("l2_lambda", True), ("l2_lambda", "1e-4"), ("l2_lambda", [1e-4]),
    ("class_weight_mode", 1), ("class_weight_mode", ["balanced"])],
    ids=["bias-bool", "bias-string", "bias-list", "bias-null",
         "threshold-string", "threshold-bool", "l2-bool", "l2-string",
         "l2-list", "class-weight-number", "class-weight-list"])
def test_load_rejects_scalars_it_would_coerce(tmp_path, field, value):
    """bias and threshold are JSON numbers and not booleans, the rule the
    arrays follow; l2_lambda is a number and class_weight_mode a string.
    float() would turn true into 1.0 and "1.5" into 1.5, and a boolean
    l2_lambda passed the range check as 0 or 1."""
    model, _ = fit(two_cluster_matrix())
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    payload = json.loads(path.read_text())
    (payload["hyperparams"] if field in payload["hyperparams"]
     else payload)[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptModel):
        load_model(str(path))


def test_load_rejects_unknown_schema_version(tmp_path):
    """99 is from the future; 1 is the gradient-descent-era schema; 2 carried
    the solver cap, tolerance and seed."""
    model, _ = fit(two_cluster_matrix())
    path = tmp_path / "model.txt"
    save_model(str(path), model)
    payload = json.loads(path.read_text())
    for version in (1, 2, 99):
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaVersionMismatch):
            load_model(str(path))
