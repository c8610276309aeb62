"""Chronological and stratified train/test partitioning."""
from dataclasses import replace


import numpy as np
import pytest

from flowsift import (DegenerateSplit, FeatureMatrix, SplitSpec, WindowConfig,
                      build_matrix, preset_scenario9, read_flows, split,
                      write_synth)
from flowsift._split import _chronological

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
        src_addr=np.array(["h"] * n),
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
            src_addr=np.array([f"h{i % 3}" for i in range(n)]),
        )
        for spec in (SplitSpec(purge_gap_s=0),
                     SplitSpec(mode="stratified_random", seed=seed)):
            try:
                train, test = split(m, spec)
            except DegenerateSplit:
                continue
            train_ids = set(zip(train.window_index.tolist(),
                                train.src_addr.tolist(),
                                train.X[:, 0].tolist()))
            test_ids = set(zip(test.window_index.tolist(),
                               test.src_addr.tolist(),
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
        src_addr=np.array(["h"] * 50))
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


ROW_FIELDS = ("X", "y", "window_index", "window_start_us", "src_addr")


@pytest.mark.parametrize("fraction", [0.3, 0.7])
def test_chronological_split_of_a_built_matrix_is_two_views(built, fraction):
    """build_matrix's rows are in (window start, window, source) order, so
    each chronological side is one run of them: a read-only view of the
    matrix that equals the copy subset gathers of the same rows."""
    spec = SplitSpec(train_fraction=fraction)
    sides = split(built, spec)
    for side, idx in zip(sides, _chronological(built, spec)):
        copy = built.subset(idx)
        for name in ROW_FIELDS:
            got, base = getattr(side, name), getattr(built, name)
            assert np.shares_memory(got, base), name
            assert not got.flags.writeable, name
            assert got.dtype == base.dtype, name
            assert np.array_equal(got, getattr(copy, name)), name
        assert side.feature_names == built.feature_names
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
