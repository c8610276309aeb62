"""Feature-matrix container, standardization, and CSV interchange."""
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowsift import _util, features

from flowsift import (
    DegenerateComputation,
    EmptyInput,
    FeatureMatrix,
    FlowRecord,
    FlowTable,
    LabelClass,
    SchemaMismatch,
    WindowConfig,
    build_matrix,
    read_matrix_csv,
    standardize_fit,
    write_matrix_csv,
)
from flowsift._util import atomic_write_text, fmt_g9
from flowsift.features import (FEATURE_NAMES, _META_COLUMNS,
                                _read_matrix_csv_bulk, weighted_gram)


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


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
def test_weighted_gram_matches_one_product(n):
    """Summing 512-row blocks changes only the rounding of Σᵢ cᵢ·aᵢaᵢᵀ, on
    either side of a block edge."""
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, 22))
    c = rng.random(n)
    gram = weighted_gram(A, c)
    assert gram.shape == (22, 22)
    np.testing.assert_allclose(gram, (A.T * c) @ A, rtol=1e-12, atol=1e-12)


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
    assert back.keys.tolist() == m.keys.tolist()
    assert back.key_code.tolist() == m.key_code.tolist()
    # values survive at the 9-significant-digit precision of the format
    assert np.allclose(back.X, m.X, rtol=1e-8, atol=0)


def test_csv_round_trip_is_write_stable(tmp_path):
    """Writing what was read back must reproduce the file byte for byte."""
    X = np.array([[1.5, 2.0], [3.125, 4.75]])
    m = FeatureMatrix.from_arrays(("a", "b"), X, [0, 1])
    p1, p2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    write_matrix_csv(p1, m)
    write_matrix_csv(p2, read_matrix_csv(p1))
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


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


# --- group keys: one int32 code per row into a sorted key table ------------

def assert_codes_into_distinct_keys(m):
    assert m.key_code.dtype == np.int32
    assert m.keys.tolist() == sorted(set(m.keys.tolist()))
    # every key is some row's
    assert np.unique(m.key_code).tolist() == list(range(len(m.keys)))


def test_matrices_carry_int32_codes_into_their_distinct_keys(tmp_path):
    sources = ["10.0.0.9", "10.0.0.10", "a>b", "10.0.0.9", "fe80::1", "b"]
    flows = FlowTable.from_records(
        FlowRecord(start_time_us=i * 7_000_000, dur=1.0, proto="tcp",
                   src_addr=src, sport=1024, dir="->", dst_addr="10.0.0.2",
                   dport=80, state="S", s_tos=0, d_tos=0, tot_pkts=2,
                   tot_bytes=100 + i, src_bytes=50, label_raw="x",
                   label_class=LabelClass.BOTNET if i % 2
                   else LabelClass.BACKGROUND)
        for i, src in enumerate(sources * 3))
    built = build_matrix(flows, WindowConfig(width_s=60, stride_s=60))
    assert_codes_into_distinct_keys(built)
    assert built.keys.tolist() == sorted(set(sources))
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, built)
    back = read_matrix_csv(path)
    assert_codes_into_distinct_keys(back)
    assert back.keys.tolist() == built.keys.tolist()
    assert back.key_code.tolist() == built.key_code.tolist()
    made = FeatureMatrix.from_arrays(("a",), np.zeros((6, 1)), np.zeros(6),
                                     key=sources)
    assert_codes_into_distinct_keys(made)
    assert made.keys[made.key_code].tolist() == sources
    for side in (made.subset([0, 3]), made.subset(slice(1, 3)),
                 made.select(["a"])):
        assert side.keys is made.keys


@pytest.mark.parametrize("keys,key_code,dtype,error", [
    (["b", "a"], [0, 1], np.int32, "strictly ascending"),
    (["a", "a"], [0, 1], np.int32, "strictly ascending"),
    (["a", "b"], [0, 2], np.int32, "indexes past keys"),
    (["a", "b"], [-1, 1], np.int32, "indexes past keys"),
    ([], [0, 0], np.int32, "indexes past keys"),
    (["a", "b"], [0, 1], np.int64, "must be int32"),
])
def test_matrix_rejects_a_key_table_its_codes_cannot_index(
        keys, key_code, dtype, error):
    with pytest.raises(ValueError, match=error):
        FeatureMatrix(feature_names=("a",), X=np.zeros((2, 1)),
                      y=np.zeros(2, dtype=np.int8),
                      window_index=np.zeros(2, dtype=np.int64),
                      window_start_us=np.zeros(2, dtype=np.int64),
                      key_code=np.array(key_code, dtype=dtype),
                      keys=np.array(keys, dtype=str))


# --- bulk CSV write and read against the per-cell originals -----------------

def reference_csv_text(matrix):
    """The per-cell writer write_matrix_csv replaced: one fmt_g9 per real."""
    lines = [",".join(_META_COLUMNS) + "," + ",".join(matrix.feature_names)
             + ",target"]
    for i in range(matrix.n_rows):
        cells = [str(int(matrix.window_index[i])),
                 str(int(matrix.window_start_us[i])),
                 str(matrix.keys[matrix.key_code[i]])]
        cells.extend(fmt_g9(v) for v in matrix.X[i])
        cells.append(str(int(matrix.y[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def oracle_read(path):
    """The per-line reader read_matrix_csv parsed with before its bulk path;
    the bulk reader must match its arrays or its exact error."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if tuple(cols[:3]) != _META_COLUMNS or cols[-1] != "target" or len(cols) < 5:
            raise SchemaMismatch(f"unexpected feature-CSV header in {path}")
        names = tuple(cols[3:-1])
        win, start, key, feats, targets, line_nos = [], [], [], [], [], []
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
            for name, value in (("window_index", index),
                                ("window_start_us", start_us)):
                if not -2 ** 63 <= value < 2 ** 63:
                    raise SchemaMismatch(
                        f"{path}:{line_no}: {name} {value} is outside int64")
            if target not in (0, 1):
                raise SchemaMismatch(
                    f"{path}:{line_no}: target must be 0 or 1, got {target}")
            win.append(index)
            start.append(start_us)
            key.append(cells[2])
            targets.append(target)
            line_nos.append(line_no)
    X = np.array(feats, dtype=np.float64).reshape(len(feats), len(names))
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise SchemaMismatch(
            f"{path}:{line_nos[bad[0]]}: feature value is not finite")
    keys, key_code = np.unique(np.array(key, dtype=str), return_inverse=True)
    return FeatureMatrix(
        feature_names=names,
        X=X,
        y=np.array(targets, dtype=np.int8),
        window_index=np.array(win, dtype=np.int64),
        window_start_us=np.array(start, dtype=np.int64),
        key_code=key_code.astype(np.int32),
        keys=keys,
    )


def bulk_read(path):
    """_read_matrix_csv_bulk's verdict on the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_matrix_csv_bulk(fh, path)


def outcome(read, path):
    """A reader's matrix, or the type and text of what it raised."""
    try:
        return read(path)
    except Exception as exc:  # any error must match the oracle's exactly
        return (type(exc), str(exc))


def column_stats(X):
    """The per-column reductions that standardize_fit, pearson_matrix and
    pca_fit take of X, as bytes."""
    with np.errstate(all="ignore"):
        return [s.tobytes() for s in (X.mean(axis=0), X.std(axis=0),
                                      X.min(axis=0), X.max(axis=0))]


def assert_same_matrix(got, want):
    assert got.feature_names == want.feature_names
    for attr in ("X", "y", "window_index", "window_start_us", "key_code",
                 "keys"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.shape == b.shape, attr
        assert a.tobytes() == b.tobytes(), attr
    # the bulk reader's X is a strided view of its parse table and the
    # oracle's a contiguous array; what is computed from X keeps its bits
    if got.n_rows:
        assert column_stats(got.X) == column_stats(want.X)


ADVERSARIAL_REALS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1 / 3,
    1e16, -1e16, 123456789.5, 987654321.25, 1e308, -1e308,
    1.7976931348623157e308, 3.0, -7.0, 1e9, 2.0 ** 53, 2.0 ** 53 + 2,
    4503599627370495.5, 999999999.5, 0.5e-9, 12345678.95]


def adversarial_matrix(names, n_rows, seed):
    rng = np.random.default_rng(seed)
    f = len(names)
    pool = np.array(ADVERSARIAL_REALS)
    X = pool[rng.integers(0, len(pool), size=(n_rows, f))]
    X[:, : f // 2] = rng.normal(0, 1e4, size=(n_rows, f // 2))
    starts = rng.choice(np.array(
        [0, 1, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 62, 1313488800013069],
        dtype=np.int64), size=n_rows)
    return FeatureMatrix.from_arrays(
        names, X, rng.integers(0, 2, n_rows),
        window_index=rng.integers(0, 2 ** 40, n_rows),
        window_start_us=starts,
        key=[f"147.32.{i % 7}.{i % 251}" for i in range(n_rows)])


@pytest.mark.parametrize("names,n_rows", [
    (FEATURE_NAMES, 5000),
    (("flow_count", "dur_mean", "src_bytes_median"), 300),
    (("pc_1", "pc_2", "pc_3"), 4097),
    (("tot_bytes_std",), 1),
    (FEATURE_NAMES, 0),
], ids=["canonical", "subset", "pca", "one-feature", "no-rows"])
def test_csv_write_matches_per_cell_writer(tmp_path, names, n_rows):
    m = adversarial_matrix(names, n_rows, seed=n_rows)
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, m)
    with open(path, "rb") as fh:
        assert fh.read() == reference_csv_text(m).encode("utf-8")
    if n_rows:
        # the bulk reader vouches for the writer's own output
        assert_same_matrix(bulk_read(path), oracle_read(path))


def test_csv_write_matches_per_cell_writer_without_features(tmp_path):
    m = FeatureMatrix.from_arrays((), np.zeros((3, 0)), [0, 1, 0])
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, m)
    with open(path, "rb") as fh:
        assert fh.read() == reference_csv_text(m).encode("utf-8")


_HEADER = "window_index,window_start_us,src_addr,a,target\n"
_FIRST = "0,0,h,1.0,0\n"

# file bodies after the header; the first ten are the cases of
# test_csv_rejects_non_finite_cell_or_non_binary_target
READER_CASES = {
    "abc": _FIRST + "1,1000000,h,abc,1\n",
    "empty-cell": _FIRST + "1,1000000,h,,1\n",
    "x-index": _FIRST + "x,1000000,h,2.0,1\n",
    "nan": _FIRST + "1,1000000,h,nan,1\n",
    "inf": _FIRST + "1,1000000,h,inf,1\n",
    "-inf": _FIRST + "1,1000000,h,-inf,1\n",
    "blank-then-nan": _FIRST + "\n1,1000000,h,nan,1\n",
    "target-2": _FIRST + "1,1000000,h,2.0,2\n",
    "target--1": _FIRST + "1,1000000,h,2.0,-1\n",
    "target-x": _FIRST + "1,1000000,h,2.0,x\n",
    "underscore-int": _FIRST + "1_0,1000000,h,2.0,1\n",
    "underscore-real": _FIRST + "1,1000000,h,1_0.5,1\n",
    "space-real": _FIRST + "1,1000000,h, 1.5,1\n",
    "space-int": _FIRST + " 5,1000000,h,2.0,1\n",
    "space-target": _FIRST + "1,1000000,h,2.0, 1 \n",
    "plus-signs": _FIRST + "+1,+1000000,h,+2.0,+1\n",
    "leading-zero-target": _FIRST + "1,1000000,h,2.0,01\n",
    "real-index": _FIRST + "5.0,1000000,h,2.0,1\n",
    "real-target": _FIRST + "1,1000000,h,2.0,1.0\n",
    "hex-index": _FIRST + "0x10,1000000,h,2.0,1\n",
    "arabic-digit": _FIRST + "١,1000000,h,2.0,1\n",
    "Infinity": _FIRST + "1,1000000,h,Infinity,1\n",
    "overflow-real": _FIRST + "1,1000000,h,1e400,1\n",
    "int64-overflow": _FIRST + "1,9223372036854775808,h,2.0,1\n",
    "int64-underflow": _FIRST + "-9223372036854775809,0,h,2.0,1\n",
    "hash-row": _FIRST + "#1,1000000,h,2.0,1\n",
    "hash-src": _FIRST + "1,1000000,#h,2.0,1\n",
    "crlf": (_FIRST + "1,1000000,h,2.5,1\n").replace("\n", "\r\n"),
    "cr": (_FIRST + "1,1000000,h,2.5,1\n").replace("\n", "\r"),
    "blank-lines": "\n" + _FIRST + "\n\n1,1000000,h,2.5,1\n\n",
    "whitespace-line": _FIRST + "   \n1,1000000,h,2.5,1\n",
    "no-final-newline": _FIRST + "1,1000000,h,2.5,1",
    "empty-body": "",
    "only-blank-lines": "\n\n",
    "extra-column": _FIRST + "1,1000000,h,2.0,1,7\n",
    "missing-column": _FIRST + "1,1000000,h,2.0\n",
    "extra-column-first": "0,0,h,1.0,0,9\n1,1000000,h,2.0,1,7\n",
    "spaced-src": _FIRST + "1,1000000, h h ,2.0,1\n",
    # the key table's width and dtype come from its longest key
    "src-dst-key": _FIRST + "1,1000000,147.32.84.165>147.32.80.9,2.0,1\n",
    "ipv6-src": _FIRST + "1,1000000,fe80::250:56ff:fec0:8,2.0,1\n",
    "non-ascii-src": _FIRST + "1,1000000,hôte-ü>ж,2.0,1\n",
    "mixed-length-src": _FIRST + "1,1000000,10.0.0.1,2.0,1\n"
                        "2,2000000,a,3.0,0\n2,2000000,,4.0,1\n",
}


@pytest.mark.parametrize("name", list(READER_CASES))
def test_csv_reader_matches_per_line_oracle(tmp_path, name):
    path = tmp_path / "edited.csv"
    path.write_bytes((_HEADER + READER_CASES[name]).encode("utf-8"))
    want = outcome(oracle_read, str(path))
    got = outcome(read_matrix_csv, str(path))
    if isinstance(want, tuple):
        assert got == want
        # every rejected file is a data error naming its line
        assert want[0] is SchemaMismatch and f"{path}:" in want[1]
        # the bulk path must never accept a file the per-line parser rejects
        assert bulk_read(str(path)) is None
    else:
        assert_same_matrix(got, want)


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("source", ["file", "pipe"])
def test_bulk_read_of_a_body_without_rows_warns_nothing(tmp_path, source,
                                                        body):
    """A body with no rows is left to the per-line reader, from a file or a
    pipe alike, without the warning np.loadtxt gives an empty input."""
    data = (_HEADER + body).encode("utf-8")
    if source == "file":
        path = tmp_path / "empty.csv"
        path.write_bytes(data)
        path = str(path)
    else:
        if not os.path.isdir("/dev/fd"):
            pytest.skip("needs /dev/fd")
        read_end, write_end = os.pipe()
        os.write(write_end, data)
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bulk_read(path) is None
    finally:
        if source == "pipe":
            os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name", list(READER_CASES))
def test_csv_reader_on_a_pipe_matches_the_file(tmp_path, name):
    """A pipe cannot be read twice, yet the per-line reader must see what
    the bulk parse rejected: the same body through a pipe gives the file's
    matrix, or its error with the same line and reason."""
    data = (_HEADER + READER_CASES[name]).encode("utf-8")
    path = tmp_path / "edited.csv"
    path.write_bytes(data)
    want = outcome(read_matrix_csv, str(path))
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        got = outcome(read_matrix_csv, pipe)
    finally:
        os.close(read_end)
    if isinstance(want, tuple):
        assert got == (want[0], want[1].replace(str(path), pipe))
    else:
        assert_same_matrix(got, want)


def test_csv_reader_matches_oracle_on_multi_feature_schema(tmp_path):
    path = tmp_path / "pca.csv"
    path.write_text(
        "window_index,window_start_us,src_addr,pc_1,pc_2,target\n"
        "0,0,h,0.25,-1.5,1\n3,45000000,g,-0,5e-324,0\n")
    assert_same_matrix(read_matrix_csv(str(path)), oracle_read(str(path)))


# --- the feature-CSV write in forked row ranges ------------------------------

def force_write_ranges(monkeypatch, ranges):
    """Make write_matrix_csv format 700 rows at a time and cut a matrix of
    at least 2,000 rows per range into ranges ranges, and count the
    children it forks; returns a reader of the count."""
    monkeypatch.setattr(_util, "usable_cores", lambda: ranges)
    monkeypatch.setattr(features, "_FORMAT_ROWS", 700)
    monkeypatch.setattr(features, "_MIN_RANGE_ROWS", 2000)
    real = _util.forked
    children = []

    def counting(tasks):
        children.append(len(tasks))
        return real(tasks)

    monkeypatch.setattr(_util, "forked", counting)
    return lambda: sum(children)


def tmp_leftovers(directory):
    return sorted(n for n in os.listdir(directory) if n.startswith(".tmp-"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


@needs_fork
@pytest.mark.parametrize("ranges", [1, 2, 3])
def test_csv_write_in_forked_ranges_matches_per_cell_writer(
        tmp_path, monkeypatch, ranges):
    """9,001 rows: every range holds several 700-row chunks and ends
    inside one."""
    children = force_write_ranges(monkeypatch, ranges)
    m = adversarial_matrix(FEATURE_NAMES, 9001, seed=ranges)
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, m)
    assert children() == ranges - 1
    with open(path, "rb") as fh:
        assert fh.read() == reference_csv_text(m).encode("utf-8")
    assert tmp_leftovers(tmp_path) == []


def bad_cells_matrix(n, bad):
    """n one-feature rows; row i of bad, a {row: value} map, gets that
    window_index, which "%d" cannot format (nan: ValueError, inf:
    OverflowError)."""
    window_index = np.arange(n, dtype=np.float64)
    for row, value in bad.items():
        window_index[row] = value
    return FeatureMatrix(feature_names=("a",), X=np.zeros((n, 1)),
                         y=np.zeros(n, dtype=np.int8),
                         window_index=window_index,
                         window_start_us=np.zeros(n, dtype=np.int64),
                         key_code=np.zeros(n, dtype=np.int32),
                         keys=np.array(["h"]))


@needs_fork
@pytest.mark.parametrize("bad,error", [
    ({7_000: np.nan}, ValueError),
    ({4_000: np.nan, 8_000: np.inf}, ValueError),
    ({4_000: np.inf, 8_000: np.nan}, OverflowError),
    ({100: np.inf, 8_000: np.nan}, OverflowError),
], ids=["child", "second-child-later", "first-child-first", "this-range"])
def test_failed_forked_write_raises_the_earliest_bad_row(
        tmp_path, monkeypatch, bad, error):
    """Three ranges of 3,000 rows: the earliest bad row in file order
    decides the error, with its own type, whichever process formats it.
    The previous file stays; no temp or part file, and no child, is
    left."""
    children = force_write_ranges(monkeypatch, 3)
    path = str(tmp_path / "m.csv")
    atomic_write_text(path, "previous\n")
    with pytest.raises(error):
        write_matrix_csv(path, bad_cells_matrix(9_000, bad))
    assert children() == 2
    with open(path, "rb") as fh:
        assert fh.read() == b"previous\n"
    assert tmp_leftovers(tmp_path) == []
    assert_no_child_left()


@needs_fork
def test_forked_writer_that_reports_nothing_is_a_child_process_error(
        tmp_path, monkeypatch):
    force_write_ranges(monkeypatch, 2)
    monkeypatch.setattr(_util, "_write_part", lambda *args: os._exit(3))
    path = str(tmp_path / "m.csv")
    with pytest.raises(ChildProcessError,
                       match="writer of rows 4500-8999 ended"):
        write_matrix_csv(path, bad_cells_matrix(9_000, {}))
    assert not os.path.exists(path)
    assert tmp_leftovers(tmp_path) == []
    assert_no_child_left()


class _Interrupting:
    """A group key whose formatting is interrupted."""

    def __str__(self):
        raise KeyboardInterrupt


class _Stalling:
    """A group key that takes a minute to format."""

    def __str__(self):
        time.sleep(60)
        return "h"


@needs_fork
def test_interrupted_forked_write_leaves_nothing_behind(tmp_path,
                                                        monkeypatch):
    """A KeyboardInterrupt in this process's range ends a child that would
    otherwise format for a minute; the previous file stays, and no temp or
    part file, child or changed CPU mask is left."""
    force_write_ranges(monkeypatch, 2)
    m = bad_cells_matrix(9_000, {})
    # the first row's key and the last row's, planted after construction,
    # which would reject a key table it cannot order
    m.key_code[0], m.key_code[-1] = 1, 2
    m.keys = np.array(["h", _Interrupting(), _Stalling()], dtype=object)
    path = str(tmp_path / "m.csv")
    atomic_write_text(path, "previous\n")
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        write_matrix_csv(path, m)
    assert time.perf_counter() - t0 < 30
    with open(path, "rb") as fh:
        assert fh.read() == b"previous\n"
    assert tmp_leftovers(tmp_path) == []
    assert_no_child_left()
