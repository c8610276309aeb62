"""Feature-matrix container, standardization, and CSV interchange."""
import numpy as np
import pytest

from flowsift import (
    DegenerateComputation,
    EmptyInput,
    FeatureMatrix,
    SchemaMismatch,
    read_matrix_csv,
    standardize_fit,
    write_matrix_csv,
)
from flowsift.features import FEATURE_NAMES


def small_matrix(X, y=None, names=("a", "b")):
    X = np.asarray(X, dtype=np.float64)
    if y is None:
        y = np.zeros(X.shape[0], dtype=np.int8)
    return FeatureMatrix.from_arrays(names[:X.shape[1]], X, y)


def test_feature_name_catalog():
    assert len(FEATURE_NAMES) == 21
    assert FEATURE_NAMES[0] == "flow_count"
    assert FEATURE_NAMES[1:6] == (
        "dur_sum", "dur_mean", "dur_std", "dur_max", "dur_median")
    assert FEATURE_NAMES[-1] == "src_bytes_median"


def test_standardize_fit_two_point_column():
    m = small_matrix([[0.0], [2.0]], names=("v",))
    params = standardize_fit(m)
    assert params.means[0] == 1.0
    assert params.scales[0] == 1.0, "population std of {0,2}"
    assert not params.constant_flags[0]


def test_standardize_fit_constant_column_flagged():
    m = small_matrix([[7.0, 1.0], [7.0, 3.0]])
    params = standardize_fit(m)
    assert params.constant_flags.tolist() == [True, False]
    assert params.scales[0] == 1.0
    assert params.means[0] == 7.0
    out = params.transform(m.X)
    assert out[:, 0].tolist() == [0.0, 0.0]


def test_standardize_single_row_all_flagged():
    m = small_matrix([[4.0, 9.0]])
    params = standardize_fit(m)
    assert params.constant_flags.all()
    assert params.transform(m.X).tolist() == [[0.0, 0.0]]


def test_standardize_fit_then_transform_moments():
    rng = np.random.default_rng(3)
    m = small_matrix(rng.normal(5.0, 3.0, size=(40, 2)))
    out = standardize_fit(m).transform(m.X)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)


def test_standardize_apply_identity_and_centering():
    m = small_matrix([[1.0], [3.0]], names=("v",))
    params = standardize_fit(small_matrix([[0.0], [1.0]], names=("v",)))
    assert params.means[0] == 0.5 and params.scales[0] == 0.5
    shifted = params.transform(m.X)
    assert shifted[:, 0].tolist() == [1.0, 5.0]


def test_standardize_empty_matrix():
    m = FeatureMatrix.from_arrays(("a",), np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(EmptyInput):
        standardize_fit(m)


@pytest.mark.parametrize("column", [[1e200, -1e200], [1e308, 1.5e308]],
                         ids=["std-overflows", "mean-overflows"])
def test_standardize_fit_rejects_overflow(column):
    m = small_matrix([[v] for v in column], names=("v",))
    with pytest.raises(DegenerateComputation):
        standardize_fit(m)


def test_matrix_select_projects_and_validates():
    m = small_matrix([[1.0, 2.0], [3.0, 4.0]])
    picked = m.select(["b"])
    assert picked.feature_names == ("b",)
    assert picked.X.tolist() == [[2.0], [4.0]]
    reordered = m.select(["b", "a"])
    assert reordered.X.tolist() == [[2.0, 1.0], [4.0, 3.0]]
    with pytest.raises(SchemaMismatch):
        m.select(["a", "zz"])


def test_matrix_subset_rows():
    m = small_matrix([[1.0], [2.0], [3.0]], y=[0, 1, 0], names=("v",))
    sub = m.subset([2, 0])
    assert sub.X[:, 0].tolist() == [3.0, 1.0]
    assert sub.y.tolist() == [0, 0]
    masked = m.subset(np.array([False, True, False]))
    assert masked.n_rows == 1 and masked.y.tolist() == [1]


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        FeatureMatrix.from_arrays(("a", "b"), np.zeros((2, 1)), np.zeros(2))


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    X = rng.uniform(0.0, 1e4, size=(25, len(FEATURE_NAMES)))
    y = (rng.random(25) < 0.3).astype(np.int8)
    m = FeatureMatrix.from_arrays(FEATURE_NAMES, X, y)
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, m)
    back = read_matrix_csv(path)
    assert back.feature_names == m.feature_names
    assert back.y.tolist() == m.y.tolist()
    assert back.window_index.tolist() == m.window_index.tolist()
    assert list(back.src_addr) == list(m.src_addr)
    # values survive at the 9-significant-digit precision of the format
    assert np.allclose(back.X, m.X, rtol=1e-8, atol=0)


def test_csv_round_trip_is_write_stable(tmp_path):
    """Writing what was read back must reproduce the file byte for byte."""
    X = np.array([[1.5, 2.0], [3.125, 4.75]])
    m = FeatureMatrix.from_arrays(("a", "b"), X, [0, 1])
    p1, p2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    write_matrix_csv(p1, m)
    write_matrix_csv(p2, read_matrix_csv(p1))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,beta\n1,2\n")
    with pytest.raises(SchemaMismatch):
        read_matrix_csv(str(path))


def test_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "window_index,window_start_us,src_addr,a,target\n"
        "0,0,h,1.0,0\n"
        "1,1000000,h,2.0\n")
    with pytest.raises(SchemaMismatch) as exc:
        read_matrix_csv(str(path))
    assert ":3" in str(exc.value), "error names the offending line"


@pytest.mark.parametrize("rows,line", [
    ("1,1000000,h,abc,1", 3), ("1,1000000,h,,1", 3), ("x,1000000,h,2.0,1", 3),
    ("1,1000000,h,nan,1", 3), ("1,1000000,h,inf,1", 3),
    ("1,1000000,h,-inf,1", 3), ("\n1,1000000,h,nan,1", 4),
    ("1,1000000,h,2.0,2", 3), ("1,1000000,h,2.0,-1", 3),
    ("1,1000000,h,2.0,x", 3)])
def test_csv_rejects_non_finite_cell_or_non_binary_target(tmp_path, rows, line):
    path = tmp_path / "bad.csv"
    path.write_text(
        "window_index,window_start_us,src_addr,a,target\n"
        f"0,0,h,1.0,0\n{rows}\n")
    with pytest.raises(SchemaMismatch) as exc:
        read_matrix_csv(str(path))
    assert f"{path}:{line}:" in str(exc.value), "error names path:line"


def test_csv_accepts_arbitrary_feature_schema(tmp_path):
    path = tmp_path / "pca.csv"
    path.write_text(
        "window_index,window_start_us,src_addr,pc_1,pc_2,target\n"
        "0,0,h,0.25,-1.5,1\n")
    m = read_matrix_csv(str(path))
    assert m.feature_names == ("pc_1", "pc_2")
    assert m.X.tolist() == [[0.25, -1.5]]
