"""Correlation filtering, backward elimination, and PCA."""
import math

import numpy as np
import pytest

from flowsift import (
    BadComponentCount,
    FeatureMatrix,
    SchemaMismatch,
    SplitSpec,
    TooFewRows,
    backward_elimination,
    correlation_filter,
    pca_fit,
    pca_reconstruct,
    pca_transform,
    pearson_matrix,
)


def matrix_of(X, y=None, names=None):
    X = np.asarray(X, dtype=np.float64)
    if names is None:
        names = tuple(f"f{i}" for i in range(X.shape[1]))
    if y is None:
        y = np.zeros(X.shape[0], dtype=np.int8)
    return FeatureMatrix.from_arrays(names, X, y)


def naive_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    return cov / (sx * sy)


def test_pearson_hand_examples():
    m = matrix_of([[1, 2, 3, 7], [2, 4, 2, 7], [3, 6, 1, 7]])
    cm = pearson_matrix(m)
    assert cm.values[0, 1] == pytest.approx(1.0, abs=1e-12), "y = 2x"
    assert cm.values[0, 2] == pytest.approx(-1.0, abs=1e-12), "reversed"
    assert cm.constant_flags.tolist() == [False, False, False, True]
    assert cm.values[0, 3] == 0.0 and cm.values[3, 3] == 0.0
    assert cm.values[0, 0] == 1.0


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(29)
    X = rng.uniform(-5, 5, size=(60, 5))
    X[:, 3] = 0.5 * X[:, 0] + rng.normal(0, 0.1, 60)
    cm = pearson_matrix(matrix_of(X))
    for i in range(5):
        for j in range(5):
            want = naive_pearson(X[:, i].tolist(), X[:, j].tolist())
            assert abs(cm.values[i, j] - want) <= 1e-12, (i, j)


def test_pearson_needs_two_rows():
    with pytest.raises(TooFewRows):
        pearson_matrix(matrix_of([[1.0, 2.0]]))


def test_correlation_filter_drops_duplicate_column():
    X = np.array([[1.0, 1.0, 5.0], [2.0, 2.0, 3.0], [3.0, 3.0, 4.0]])
    retained, dropped = correlation_filter(matrix_of(X), threshold=0.95)
    assert retained == ["f0", "f2"]
    assert len(dropped) == 1
    name, reason = dropped[0]
    assert name == "f1" and "f0" in reason and "|r|=1.000000" in reason


def test_correlation_filter_keeps_uncorrelated_columns():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 4))
    retained, dropped = correlation_filter(matrix_of(X), threshold=0.95)
    assert retained == ["f0", "f1", "f2", "f3"]
    assert dropped == []


def test_correlation_filter_threshold_one_only_drops_constants():
    X = np.array([[1.0, 1.0, 9.0], [2.0, 2.0, 9.0], [3.0, 3.0, 9.0]])
    retained, dropped = correlation_filter(matrix_of(X), threshold=1.0)
    assert retained == ["f0", "f1"], "|r|=1 does not exceed threshold 1"
    assert dropped == [("f2", "constant")]


def test_correlation_filter_threshold_validation():
    m = matrix_of([[1.0], [2.0]])
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            correlation_filter(m, threshold=bad)


def separable_matrix_with_noise(n=120, seed=11):
    """Target follows f0; f1 is pure noise; f2 is weak signal."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.int8)
    X = np.column_stack([
        y * 4.0 + rng.normal(0, 0.3, n),
        rng.normal(0, 1.0, n),
        y * 1.0 + rng.normal(0, 1.5, n),
    ])
    return FeatureMatrix.from_arrays(("signal", "noise", "weak"), X, y)


def test_backward_elimination_sheds_noise_first():
    m = separable_matrix_with_noise()
    retained, trace = backward_elimination(
        m, min_features=1,
        split_spec=SplitSpec(mode="stratified_random", purge_gap_s=0.0))
    assert "signal" in retained
    assert trace[0]["removed"] == "noise", \
        "removing pure noise must be the first (or tied-earliest) winner"
    for step, expected_dim in zip(trace, range(2, 0, -1)):
        assert step["n_features"] == expected_dim


def test_backward_elimination_min_features_identity():
    m = separable_matrix_with_noise()
    retained, trace = backward_elimination(m, min_features=3)
    assert retained == ["signal", "noise", "weak"]
    assert trace == []


def test_backward_elimination_inf_tol_reaches_floor():
    m = separable_matrix_with_noise()
    retained, trace = backward_elimination(
        m, min_features=1, tol=math.inf,
        split_spec=SplitSpec(mode="stratified_random", purge_gap_s=0.0))
    assert len(retained) == 1
    assert len(trace) == 2


def test_backward_elimination_deterministic():
    m = separable_matrix_with_noise()
    spec = SplitSpec(mode="stratified_random", purge_gap_s=0.0, seed=5)
    first = backward_elimination(m, split_spec=spec)
    second = backward_elimination(m, split_spec=spec)
    assert first == second


def test_backward_elimination_validation():
    m = separable_matrix_with_noise()
    with pytest.raises(ValueError):
        backward_elimination(m, min_features=0)
    with pytest.raises(ValueError):
        backward_elimination(m, min_features=4)


def test_pca_diagonal_line():
    rng = np.random.default_rng(8)
    t = rng.normal(size=200)
    X = np.column_stack([t, t])
    model = pca_fit(matrix_of(X), n_components=2)
    v = 1.0 / math.sqrt(2.0)
    assert model.components[0] == pytest.approx([v, v], abs=1e-9)
    assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-9)


def test_pca_axis_aligned_variances():
    """Uncorrelated columns with variance 4 and 1 keep their own axes."""
    X = np.array([[2.0, 1.0], [-2.0, 1.0], [2.0, -1.0], [-2.0, -1.0]])
    model = pca_fit(matrix_of(X), n_components=2)
    assert model.components[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert model.components[1] == pytest.approx([0.0, 1.0], abs=1e-9)
    assert model.explained_variance[0] == pytest.approx(4.0, abs=1e-9)
    assert model.explained_variance[1] == pytest.approx(1.0, abs=1e-9)


def test_pca_orthonormal_and_round_trip_random():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n, d = rng.integers(5, 40), rng.integers(2, 8)
        X = rng.uniform(-10, 10, size=(int(n), int(d)))
        m = matrix_of(X)
        model = pca_fit(m, n_components=int(d))
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(int(d)), atol=1e-8)
        Z = pca_transform(m, model)
        back = pca_reconstruct(Z.X, model)
        assert np.allclose(back, X, atol=1e-8), "full-rank projection inverts"
        # component variances are the variances of the projected coordinates
        assert np.allclose(Z.X.var(axis=0), model.explained_variance, atol=1e-8)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)


def test_pca_transform_of_mean_is_origin():
    rng = np.random.default_rng(2)
    X = rng.normal(3.0, 1.0, size=(30, 3))
    m = matrix_of(X)
    model = pca_fit(m, n_components=3)
    at_mean = matrix_of(model.mean.reshape(1, 3))
    assert pca_transform(at_mean, model).X == pytest.approx(
        np.zeros((1, 3)), abs=1e-12)


def test_pca_preserves_distances_at_full_rank():
    rng = np.random.default_rng(20)
    X = rng.uniform(size=(12, 4))
    m = matrix_of(X)
    Z = pca_transform(m, pca_fit(m, n_components=4)).X
    for i in range(12):
        for j in range(i):
            dx = np.linalg.norm(X[i] - X[j])
            dz = np.linalg.norm(Z[i] - Z[j])
            assert dx == pytest.approx(dz, abs=1e-8)


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(50, 4))
    model = pca_fit(matrix_of(X), n_components=4)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_transform_names_and_schema_guard():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(10, 3))
    m = matrix_of(X)
    model = pca_fit(m, n_components=2)
    Z = pca_transform(m, model)
    assert Z.feature_names == ("pc_1", "pc_2")
    other = matrix_of(X, names=("x", "y", "z"))
    with pytest.raises(SchemaMismatch):
        pca_transform(other, model)


def test_pca_component_count_bounds():
    m = matrix_of(np.random.default_rng(0).normal(size=(10, 3)))
    with pytest.raises(BadComponentCount):
        pca_fit(m, n_components=0)
    with pytest.raises(BadComponentCount):
        pca_fit(m, n_components=4)
    with pytest.raises(TooFewRows):
        pca_fit(matrix_of([[1.0, 2.0]]), n_components=1)
