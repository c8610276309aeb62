"""Chronological and stratified train/test partitioning."""
from dataclasses import replace


import numpy as np
import pytest

from flowsift import (DegenerateSplit, FeatureMatrix, SplitSpec, WindowConfig,
                      build_matrix, preset_scenario9, read_flows,
                      read_matrix_csv, split, write_matrix_csv, write_synth)
from flowsift._split import _chronological, _in_order

US = 1_000_000


def windowed_matrix(n=10, y=None, width_s=None, start_step_s=1):
    if y is None:
        y = [i % 2 for i in range(n)]
    meta = {} if width_s is None else {"width_s": width_s}
    return FeatureMatrix.from_arrays(
        ("v",),
        np.arange(n, dtype=np.float64).reshape(-1, 1),
        np.asarray(y, dtype=np.int8),
        window_index=np.arange(n),
        window_start_us=np.arange(n) * start_step_s * US,
        key=["h"] * n,
        meta=meta,
    )


def test_chronological_purge_worked_example():
    """Ten windows one second apart, 70/30 cut, one-second purge: the cut
    lands on window 7, the purge removes it, windows 8 and 9 remain."""
    m = windowed_matrix(10)
    train, test = split(m, SplitSpec(purge_gap_s=1))
    assert train.window_index.tolist() == [0, 1, 2, 3, 4, 5, 6]
    assert test.window_index.tolist() == [8, 9]


def test_chronological_zero_purge_keeps_cut_window():
    m = windowed_matrix(10)
    train, test = split(m, SplitSpec(purge_gap_s=0))
    assert train.window_index.tolist() == [0, 1, 2, 3, 4, 5, 6]
    assert test.window_index.tolist() == [7, 8, 9]


def test_chronological_purge_defaults_to_window_width():
    m = windowed_matrix(10, width_s=1)
    train, test = split(m, SplitSpec())
    assert test.window_index.tolist() == [8, 9]


def test_chronological_requires_some_purge_source():
    m = windowed_matrix(10)
    with pytest.raises(ValueError):
        split(m, SplitSpec())


def test_chronological_purge_can_consume_test_side():
    m = windowed_matrix(10)
    with pytest.raises(DegenerateSplit):
        split(m, SplitSpec(purge_gap_s=60))


def test_single_class_matrix_rejected():
    m = windowed_matrix(10, y=[1] * 10)
    with pytest.raises(DegenerateSplit):
        split(m, SplitSpec(purge_gap_s=0))


def test_single_class_side_rejected():
    """Both classes exist but all positives land in the train era."""
    m = windowed_matrix(10, y=[1, 1, 0, 1, 0, 1, 0, 0, 0, 0])
    with pytest.raises(DegenerateSplit):
        split(m, SplitSpec(purge_gap_s=0))


def test_tiny_matrix_fraction_rejected():
    m = windowed_matrix(2, y=[0, 1])
    with pytest.raises(DegenerateSplit):
        split(m, SplitSpec(train_fraction=0.3, purge_gap_s=0))


def test_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(mode="shuffled")
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(ValueError):
        SplitSpec(purge_gap_s=-1)


def test_stratified_deterministic_per_seed():
    m = windowed_matrix(40)
    spec = SplitSpec(mode="stratified_random", seed=11)
    t1, v1 = split(m, spec)
    t2, v2 = split(m, spec)
    assert t1.window_index.tolist() == t2.window_index.tolist()
    assert v1.window_index.tolist() == v2.window_index.tolist()
    t3, _ = split(m, replace(spec, seed=12))
    assert t3.window_index.tolist() != t1.window_index.tolist()


def test_stratified_preserves_class_ratio():
    y = [1] * 10 + [0] * 30
    m = windowed_matrix(40, y=y)
    train, test = split(m, SplitSpec(mode="stratified_random", seed=3))
    assert int((train.y == 1).sum()) == 7
    assert int((test.y == 1).sum()) == 3
    assert train.n_rows == 28 and test.n_rows == 12


def test_split_partitions_are_disjoint_and_complete():
    rng = np.random.default_rng(25)
    for seed in range(10):
        n = int(rng.integers(8, 60))
        y = (rng.random(n) < 0.4).astype(np.int8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m = FeatureMatrix.from_arrays(
            ("v",), rng.normal(size=(n, 1)), y,
            window_index=np.arange(n),
            window_start_us=np.sort(rng.integers(0, 500, n)) * US,
            key=[f"h{i % 3}" for i in range(n)],
        )
        for spec in (SplitSpec(purge_gap_s=0),
                     SplitSpec(mode="stratified_random", seed=seed)):
            try:
                train, test = split(m, spec)
            except DegenerateSplit:
                continue
            train_ids = set(zip(train.window_index.tolist(),
                                train.keys[train.key_code].tolist(),
                                train.X[:, 0].tolist()))
            test_ids = set(zip(test.window_index.tolist(),
                               test.keys[test.key_code].tolist(),
                               test.X[:, 0].tolist()))
            assert not train_ids & test_ids
            assert train.n_rows + test.n_rows <= n
            if spec.mode == "stratified_random":
                assert train.n_rows + test.n_rows == n


def test_chronological_purge_gap_enforced():
    """Every surviving test window starts at least purge seconds after every
    train window start."""
    rng = np.random.default_rng(14)
    starts = np.sort(rng.integers(0, 300, 50)) * US
    y = np.tile([0, 1], 25).astype(np.int8)
    m = FeatureMatrix.from_arrays(
        ("v",), rng.normal(size=(50, 1)), y,
        window_index=np.arange(50), window_start_us=starts,
        key=["h"] * 50)
    purge = 20
    train, test = split(m, SplitSpec(purge_gap_s=purge))
    assert test.window_start_us.min() >= train.window_start_us.max() + purge * US


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The 90/15 build of a 10-minute preset capture."""
    path = str(tmp_path_factory.mktemp("capture") / "capture.csv")
    write_synth(path, replace(preset_scenario9(seed=1), duration_s=600.0))
    table, _ = read_flows(path)
    return build_matrix(table, WindowConfig(width_s=90, stride_s=15))


ROW_FIELDS = ("X", "y", "window_index", "window_start_us", "key_code")


@pytest.mark.parametrize("fraction", [0.3, 0.7])
def test_chronological_split_of_a_built_matrix_is_two_views(built, fraction):
    """build_matrix's rows are in (window start, window, source) order, so
    each chronological side is one run of them: a read-only view of the
    matrix that equals the copy subset gathers of the same rows."""
    spec = SplitSpec(train_fraction=fraction)
    sides = split(built, spec)
    for side, idx in zip(sides, _chronological(built, spec)):
        copy = built.subset(np.arange(built.n_rows)[idx])
        for name in ROW_FIELDS:
            got, base = getattr(side, name), getattr(built, name)
            assert np.shares_memory(got, base), name
            assert not got.flags.writeable, name
            assert got.dtype == base.dtype, name
            assert np.array_equal(got, getattr(copy, name)), name
        assert side.feature_names == built.feature_names
        assert side.keys is built.keys
        assert side.meta == built.meta and side.meta is not built.meta
    with pytest.raises(ValueError, match="read-only"):
        sides[0].X[0, 0] += 1.0
    assert built.X.flags.writeable


def test_stratified_random_split_gathers_read_only_copies(built):
    for side in split(built, SplitSpec(mode="stratified_random", seed=1)):
        for name in ROW_FIELDS:
            got = getattr(side, name)
            assert not np.shares_memory(got, getattr(built, name)), name
            assert not got.flags.writeable, name


def lexsorted_sides(matrix, spec):
    """The chronological split's row numbers as a lexsort of every row on
    the key text gives them: the split before it checked the row order."""
    starts = matrix.window_start_us
    order = np.lexsort((matrix.keys[matrix.key_code], matrix.window_index,
                        starts))
    k = int(len(order) * spec.train_fraction)
    candidates = order[k:]
    purge_s = matrix.meta["width_s"] if spec.purge_gap_s is None \
        else spec.purge_gap_s
    keep = starts[candidates] >= int(starts[candidates[0]]) + purge_s * US
    return np.sort(order[:k]), np.sort(candidates[keep])


def assert_same_rows(got, want):
    for name in ROW_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("spec", [
    SplitSpec(train_fraction=0.3, purge_gap_s=90),
    SplitSpec(train_fraction=0.7, purge_gap_s=90),
    SplitSpec(purge_gap_s=0),
    SplitSpec(train_fraction=0.3, purge_gap_s=300),
], ids=["0.3", "0.7", "no-purge", "long-purge"])
def test_chronological_split_of_ordered_rows_sorts_nothing(built, tmp_path,
                                                           spec):
    """The rows of a build, and of the feature CSV written from it, are
    already in split order: both sides come out as runs, without a sort,
    and hold the rows a sort of every row gives."""
    path = str(tmp_path / "features.csv")
    write_matrix_csv(path, built)
    for matrix in (built, read_matrix_csv(path)):
        assert _in_order(matrix)
        runs = _chronological(matrix, spec)
        assert all(isinstance(run, slice) for run in runs)
        for side, idx in zip(split(matrix, spec),
                             lexsorted_sides(matrix, spec)):
            assert_same_rows(side, matrix.subset(idx))


def test_chronological_split_of_shuffled_rows_matches_ordered_rows(built):
    """Rows out of order are sorted first: each side holds the same rows as
    the ordered matrix's, in the shuffled matrix's row order."""
    shuffled = built.subset(
        np.random.default_rng(3).permutation(built.n_rows))
    assert not _in_order(shuffled)
    for spec in (SplitSpec(train_fraction=0.3), SplitSpec(purge_gap_s=0)):
        for got, idx, want in zip(split(shuffled, spec),
                                  lexsorted_sides(shuffled, spec),
                                  split(built, spec)):
            assert_same_rows(got, shuffled.subset(idx))
            assert got.keys is built.keys
            order = np.lexsort((got.key_code, got.window_index,
                                got.window_start_us))
            assert_same_rows(got.subset(order), want)


@pytest.mark.parametrize("starts,windows,codes,ordered", [
    ([0, 0, 1], [0, 0, 1], [0, 1, 0], True),
    ([0, 0, 0], [0, 0, 0], [1, 1, 1], True),
    ([0, 1, 1], [5, 0, 0], [9, 0, 0], True),
    ([1, 0, 2], [0, 1, 2], [0, 0, 0], False),
    ([0, 0, 1], [1, 0, 2], [0, 0, 0], False),
    ([0, 0, 1], [0, 0, 1], [1, 0, 0], False),
    ([0], [0], [0], True),
], ids=["ordered", "ties", "later-start-wins", "start-falls",
        "window-falls", "key-falls", "one-row"])
def test_in_order_compares_start_then_window_then_key(starts, windows, codes,
                                                      ordered):
    n = len(starts)
    m = FeatureMatrix(feature_names=("v",), X=np.zeros((n, 1)),
                      y=np.zeros(n, dtype=np.int8),
                      window_index=np.array(windows, dtype=np.int64),
                      window_start_us=np.array(starts, dtype=np.int64) * US,
                      key_code=np.array(codes, dtype=np.int32),
                      keys=np.array([f"h{i}" for i in range(10)]))
    assert _in_order(m) is ordered
