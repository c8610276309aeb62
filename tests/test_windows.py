"""Window assignment, aggregate statistics, and matrix construction."""
import math
import random
import time

import numpy as np
import pytest

from flowsift import (
    EmptyInput,
    EmptyValues,
    FlowRecord,
    FlowTable,
    LabelClass,
    TimeBeforeOrigin,
    WindowConfig,
    aggregate_stats,
    build_matrix,
    window_indices,
)
from flowsift import windows
from flowsift.features import FEATURE_NAMES

US = 1_000_000


def flow(t_s=0.0, src="10.0.0.1", dst="10.0.0.2", dur=1.0, pkts=2,
         tot_bytes=100, src_bytes=50, cls=LabelClass.BACKGROUND):
    return FlowRecord(
        start_time_us=int(round(t_s * US)), dur=dur, proto="tcp",
        src_addr=src, sport=1024, dir="->", dst_addr=dst, dport=80,
        state="S", s_tos=0, d_tos=0, tot_pkts=pkts, tot_bytes=tot_bytes,
        src_bytes=src_bytes, label_raw="x", label_class=cls)


def brute_force_indices(d_us, width_s, stride_s):
    w, s = width_s * US, stride_s * US
    out = []
    k = 0
    while k * s <= d_us:
        if k * s <= d_us < k * s + w:
            out.append(k)
        k += 1
    return out


def test_window_indices_overlap_example():
    """100s into 90s-wide windows every 15s touches windows 1..6."""
    cfg = WindowConfig(width_s=90, stride_s=15)
    assert window_indices(100 * US, cfg) == [1, 2, 3, 4, 5, 6]


def test_window_indices_tiling_example():
    cfg = WindowConfig(width_s=60, stride_s=60)
    assert window_indices(0, cfg) == [0]


def test_window_indices_respects_origin():
    cfg = WindowConfig(width_s=60, stride_s=60, origin_us=50 * US)
    assert window_indices(50 * US, cfg) == [0]
    assert window_indices(109 * US, cfg) == [0]
    assert window_indices(110 * US, cfg) == [1]
    with pytest.raises(TimeBeforeOrigin):
        window_indices(49 * US, cfg)


def test_window_indices_gap_when_stride_exceeds_width():
    cfg = WindowConfig(width_s=10, stride_s=30)
    assert cfg.coverage_gap
    assert window_indices(5 * US, cfg) == [0]
    assert window_indices(15 * US, cfg) == [], "15s falls between windows"
    assert window_indices(30 * US, cfg) == [1]


def test_window_indices_matches_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        width = rng.randint(1, 600)
        stride = rng.randint(1, 600)
        cfg = WindowConfig(width_s=width, stride_s=stride)
        d = rng.randint(0, 3000 * US)
        got = window_indices(d, cfg)
        assert got == brute_force_indices(d, width, stride), \
            f"w={width} s={stride} d={d}"


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(width_s=0, stride_s=1)
    with pytest.raises(ValueError):
        WindowConfig(width_s=1, stride_s=-3)


def test_aggregate_stats_examples():
    assert aggregate_stats([3]) == (3, 3, 0, 3, 3)
    got = aggregate_stats([1, 2, 3, 4])
    assert got.sum == 10 and got.mean == 2.5 and got.max == 4
    assert got.median == 2.5
    assert got.std == pytest.approx(1.118033989, abs=1e-9), "population std"
    assert aggregate_stats([5, 5, 5]) == (15, 5, 0, 5, 5)
    with pytest.raises(EmptyValues):
        aggregate_stats([])


def naive_stats(values):
    n = len(values)
    total = math.fsum(values)
    mean = total / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    ordered = sorted(values)
    mid = n // 2
    median = ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return total, mean, math.sqrt(var), max(values), median


def test_aggregate_stats_naive_oracle():
    """Random lists, including constants and values spanning 1e-6..1e9."""
    rng = random.Random(23)
    for case in range(200):
        n = rng.randint(1, 50)
        if case % 10 == 0:
            values = [rng.uniform(1, 9)] * n
        elif case % 10 == 1:
            values = [rng.uniform(1e-6, 1e-3) if i % 2 else rng.uniform(1e6, 1e9)
                      for i in range(n)]
        else:
            values = [rng.uniform(0, 1e4) for _ in range(n)]
        got = aggregate_stats(values)
        want = naive_stats(values)
        for g, w, name in zip(got, want, ("sum", "mean", "std", "max", "median")):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-15), \
                f"{name} mismatch on case {case}: {g} vs {w}"


def test_build_matrix_flow_at_origin_single_window():
    """With width 90 / stride 15, a flow at the origin is only in window 0;
    windows 1..6 all start after it."""
    m = build_matrix(FlowTable.from_records([flow(t_s=0.0)]),
                     WindowConfig(width_s=90, stride_s=15))
    assert m.n_rows == 1
    assert m.window_index.tolist() == [0]


def test_build_matrix_hand_aggregates():
    flows = [flow(t_s=1.0, tot_bytes=100), flow(t_s=2.0, tot_bytes=300)]
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=60, stride_s=60))
    assert m.n_rows == 1
    values = dict(zip(m.feature_names, m.X[0]))
    assert values["flow_count"] == 2
    assert values["tot_bytes_sum"] == 400
    assert values["tot_bytes_mean"] == 200
    assert values["tot_bytes_max"] == 300
    assert values["tot_bytes_median"] == 200
    assert values["tot_bytes_std"] == pytest.approx(100.0)


def test_build_matrix_target_rule():
    flows = [flow(t_s=0, src="a", cls=LabelClass.BACKGROUND),
             flow(t_s=1, src="b", cls=LabelClass.BOTNET),
             flow(t_s=2, src="c", cls=LabelClass.NORMAL),
             flow(t_s=3, src="c", cls=LabelClass.CNC)]
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=60, stride_s=60))
    by_src = {m.src_addr[i]: int(m.y[i]) for i in range(m.n_rows)}
    assert by_src == {"a": 0, "b": 1, "c": 1}


def test_build_matrix_positive_classes_override():
    flows = [flow(t_s=0, src="a", cls=LabelClass.NORMAL),
             flow(t_s=1, src="b", cls=LabelClass.BOTNET)]
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=60, stride_s=60),
                     positive_classes={LabelClass.NORMAL})
    by_src = {m.src_addr[i]: int(m.y[i]) for i in range(m.n_rows)}
    assert by_src == {"a": 1, "b": 0}


def test_build_matrix_empty_input():
    with pytest.raises(EmptyInput):
        build_matrix(FlowTable.from_records([]),
                     WindowConfig(width_s=60, stride_s=60))


def test_build_matrix_row_invariants_random():
    rng = random.Random(31)
    flows = []
    for _ in range(400):
        pkts = rng.randint(1, 50)
        tot = rng.randint(60, 10000)
        flows.append(flow(
            t_s=rng.uniform(0, 500), src=f"10.0.0.{rng.randint(1, 8)}",
            dur=rng.uniform(0, 100), pkts=pkts, tot_bytes=tot,
            src_bytes=rng.randint(0, tot),
            cls=rng.choice(list(LabelClass))))
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=90, stride_s=30))
    assert m.feature_names == FEATURE_NAMES
    # brute-force the groups from the flows themselves
    cfg = WindowConfig(width_s=90, stride_s=30,
                       origin_us=min(f.start_time_us for f in flows))
    groups = {}
    for f in flows:
        for k in window_indices(f.start_time_us, cfg):
            groups.setdefault((k, f.src_addr), []).append(f.label_class)
    assert m.n_rows == len(groups)
    for i in range(m.n_rows):
        values = dict(zip(m.feature_names, m.X[i]))
        n = values["flow_count"]
        assert n >= 1, "empty groups must never materialize"
        classes = groups[(int(m.window_index[i]), str(m.src_addr[i]))]
        assert n == len(classes)
        assert int(m.y[i]) == int(
            LabelClass.BOTNET in classes or LabelClass.CNC in classes)
        for attr in ("dur", "tot_pkts", "tot_bytes", "src_bytes"):
            mx = values[f"{attr}_max"]
            assert mx >= values[f"{attr}_median"]
            assert values[f"{attr}_mean"] <= mx
            assert values[f"{attr}_std"] >= 0
            assert math.isclose(values[f"{attr}_sum"],
                                values[f"{attr}_mean"] * n, rel_tol=1e-9)


def test_build_matrix_tiling_partition():
    """When stride == width every flow lands in exactly one row group."""
    rng = random.Random(7)
    flows = [flow(t_s=rng.uniform(0, 300), src=f"h{rng.randint(1, 5)}")
             for _ in range(150)]
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=30, stride_s=30))
    assert int(m.X[:, 0].sum()) == len(flows)


def test_build_matrix_row_count_monotone_in_stride():
    rng = random.Random(13)
    flows = [flow(t_s=rng.uniform(0, 400), src=f"h{rng.randint(1, 6)}")
             for _ in range(200)]
    counts = []
    for stride in (90, 45, 30, 15, 5):
        m = build_matrix(FlowTable.from_records(flows),
                         WindowConfig(width_s=90, stride_s=stride))
        counts.append(m.n_rows)
    assert counts == sorted(counts), \
        f"decreasing stride must not decrease rows: {counts}"


def assert_permutation_invariant(flows, cfg, rng):
    base = build_matrix(FlowTable.from_records(flows), cfg)
    for trial in range(3):
        shuffled = flows[:]
        rng.shuffle(shuffled)
        again = build_matrix(FlowTable.from_records(shuffled), cfg)
        assert np.array_equal(base.X, again.X), "features must be bit-identical"
        assert np.array_equal(base.y, again.y)
        assert np.array_equal(base.window_index, again.window_index)
        assert list(base.src_addr) == list(again.src_addr)


def test_build_matrix_permutation_invariance():
    rng = random.Random(41)
    flows = [flow(t_s=rng.uniform(0, 200), src=f"h{rng.randint(1, 4)}",
                  dur=rng.uniform(0, 10), tot_bytes=rng.randint(60, 5000),
                  cls=rng.choice(list(LabelClass)))
             for _ in range(120)]
    assert_permutation_invariant(flows, WindowConfig(width_s=60, stride_s=20),
                                 rng)


def test_build_matrix_permutation_invariance_deep_overlap():
    """600/15 puts each flow in 40 windows; equal start times and tied
    values must not let input order reach the features either."""
    rng = random.Random(43)
    flows = [flow(t_s=rng.choice([rng.uniform(0, 1800), 900.0]),
                  src=f"h{rng.randint(1, 4)}",
                  dur=rng.choice([0.1, 0.7, rng.uniform(0, 10)]),
                  pkts=rng.randint(1, 3), tot_bytes=rng.choice([60, 1500]),
                  src_bytes=rng.randint(0, 60),
                  cls=rng.choice(list(LabelClass)))
             for _ in range(400)]
    assert_permutation_invariant(flows, WindowConfig(width_s=600, stride_s=15),
                                 rng)


def test_build_matrix_canonical_row_order():
    flows = [flow(t_s=65, src="bbb"), flow(t_s=65, src="aaa"),
             flow(t_s=5, src="bbb")]
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=60, stride_s=60))
    got = list(zip(m.window_index.tolist(), m.src_addr.tolist()))
    assert got == [(0, "bbb"), (1, "aaa"), (1, "bbb")]


def test_build_matrix_gap_flows_dropped():
    """stride > width: flows in uncovered gaps contribute no rows."""
    flows = [flow(t_s=0.0, src="a"), flow(t_s=15.0, src="a"),
             flow(t_s=30.0, src="a")]
    table = FlowTable.from_records(flows)
    m = build_matrix(table, WindowConfig(width_s=10, stride_s=30))
    assert m.n_rows == 2
    assert m.window_index.tolist() == [0, 1]
    assert m.X[:, 0].tolist() == [1.0, 1.0]
    # 12 s before the first flow, every flow lies in a gap: no rows at all
    empty = build_matrix(table, WindowConfig(width_s=10, stride_s=30,
                                             origin_us=-12 * US))
    assert empty.X.shape == (0, len(FEATURE_NAMES))
    assert empty.src_addr.shape == (0,)
    for got in (m, empty):
        assert got.X.dtype == np.float64 and got.X.flags.c_contiguous
        assert got.y.dtype == np.int8
        assert got.window_index.dtype == got.window_start_us.dtype == np.int64


def test_build_matrix_rejects_window_parts_of_another_dtype(monkeypatch):
    """Window parts are copied into typed buffers as raw bytes: a part of
    another dtype raises instead of being reinterpreted."""
    real = windows._aggregate_window

    def bool_targets(*args):
        X, y, k, codes = real(*args)
        return X, y.astype(bool), k, codes

    monkeypatch.setattr(windows, "_aggregate_window", bool_targets)
    with pytest.raises(TypeError):
        build_matrix(FlowTable.from_records([flow()]),
                     WindowConfig(width_s=60, stride_s=60))


def test_build_matrix_group_by_src_dst():
    flows = [flow(t_s=0, src="a", dst="x"), flow(t_s=1, src="a", dst="y")]
    by_src = build_matrix(FlowTable.from_records(flows),
                          WindowConfig(width_s=60, stride_s=60))
    by_pair = build_matrix(FlowTable.from_records(flows),
                           WindowConfig(width_s=60, stride_s=60),
                           group_by="src_dst")
    assert by_src.n_rows == 1
    assert by_pair.n_rows == 2


def test_build_matrix_src_dst_keys_sort_and_merge_as_strings():
    """Pair keys are the strings "src>dst": they sort as strings, not as
    (src, dst) tuples, and two pairs spelling one string share a group."""
    flows = [flow(t_s=0, src="10.0.0.1", dst="x"),
             flow(t_s=1, src="10.0.0.10", dst="y"),
             flow(t_s=2, src="a>b", dst="c"),
             flow(t_s=3, src="a", dst="b>c")]
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=60, stride_s=60),
                     group_by="src_dst")
    assert m.src_addr.tolist() == ["10.0.0.10>y", "10.0.0.1>x", "a>b>c"]
    assert m.X[:, 0].tolist() == [1.0, 1.0, 2.0]


def test_build_matrix_meta_echo():
    m = build_matrix(FlowTable.from_records([flow(t_s=3.5)]),
                     WindowConfig(width_s=90, stride_s=15))
    assert m.meta["width_s"] == 90
    assert m.meta["stride_s"] == 15
    assert m.meta["origin_us"] == int(3.5 * US), "origin pins to earliest flow"
    assert m.meta["positive_classes"] == ["botnet", "cnc"]
    assert m.meta["group_by"] == "src"


def test_build_matrix_explicit_origin_rejects_earlier_flow():
    cfg = WindowConfig(width_s=60, stride_s=60, origin_us=10 * US)
    with pytest.raises(TimeBeforeOrigin):
        build_matrix(FlowTable.from_records([flow(t_s=5.0)]), cfg)


@pytest.mark.parametrize("width,stride,lead_s,ties", [
    (90, 30, None, False), (60, 60, None, False), (10, 30, None, False),
    (90, 30, 250, False), (200, 5, None, False), (90, 30, None, True)],
    ids=["overlap", "tiling", "gaps", "empty-leading-windows", "deep-overlap",
         "ties"])
@pytest.mark.parametrize("group_by", ["src", "src_dst"])
def test_build_matrix_matches_aggregate_stats(width, stride, lead_s, ties,
                                              group_by):
    """Every feature of every row equals aggregate_stats over the flows that
    brute-force window assignment puts in that row's group. lead_s pins the
    origin that many seconds before the first flow; ties draws every
    attribute from a few values, so groups hold duplicates and constants."""
    rng = random.Random(width * 1000 + stride)
    flows = []
    for _ in range(300):
        if ties:
            tot = rng.choice([60, 100])
            mags = dict(dur=rng.choice([0.1, 0.7, 2.9]),
                        pkts=rng.choice([1, 2]), tot_bytes=tot,
                        src_bytes=rng.choice([0, 40]))
        else:
            tot = rng.choice([60, 100, rng.randint(60, 10000)])
            mags = dict(dur=rng.choice([0.0, 1.5, rng.uniform(0, 100)]),
                        pkts=rng.randint(1, 50), tot_bytes=tot,
                        src_bytes=rng.randint(0, tot))
        flows.append(flow(
            t_s=1000 + rng.uniform(0, 500), src=f"10.0.0.{rng.randint(1, 6)}",
            dst=f"10.1.0.{rng.randint(1, 3)}", **mags,
            cls=rng.choice(list(LabelClass))))
    first = min(f.start_time_us for f in flows)
    origin = first if lead_s is None else first - lead_s * US
    cfg = WindowConfig(width_s=width, stride_s=stride,
                       origin_us=None if lead_s is None else origin)
    m = build_matrix(FlowTable.from_records(flows), cfg, group_by=group_by)

    brute = WindowConfig(width_s=width, stride_s=stride, origin_us=origin)
    depth = max(len(window_indices(f.start_time_us, brute)) for f in flows)
    assert depth == max(1, width // stride), "the geometry reaches full depth"
    groups = {}
    for f in flows:
        key = f.src_addr if group_by == "src" else f"{f.src_addr}>{f.dst_addr}"
        for k in window_indices(f.start_time_us, brute):
            groups.setdefault((k, key), []).append(f)
    rows = list(zip(m.window_index.tolist(), m.src_addr.tolist()))
    assert rows == sorted(groups), "one row per group, in (window, key) order"
    if lead_s is not None:
        assert min(m.window_index) > 0, "leading windows hold no flow"
    for i, (k, key) in enumerate(rows):
        group = groups[(k, key)]
        assert m.window_start_us[i] == origin + k * stride * US
        assert m.X[i, 0] == len(group)
        assert int(m.y[i]) == int(any(
            f.label_class in (LabelClass.BOTNET, LabelClass.CNC) for f in group))
        col = 1
        for attr in ("dur", "tot_pkts", "tot_bytes", "src_bytes"):
            want = aggregate_stats([float(getattr(f, attr)) for f in group])
            for stat, value in zip(want._fields, want):
                assert math.isclose(m.X[i, col], value, rel_tol=1e-12,
                                    abs_tol=1e-9), \
                    f"row {(k, key)} {attr}_{stat}: {m.X[i, col]} vs {value}"
                col += 1


def test_build_matrix_skips_a_century_of_empty_windows():
    """Two flows 100 years apart at 90/15: window 0, then the six windows of
    the second flow, without visiting the ~2e8 empty windows between."""
    late_s = 100 * 365 * 86400
    flows = [flow(t_s=0.0, src="a"), flow(t_s=late_s, src="b")]
    t0 = time.perf_counter()
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=90, stride_s=15))
    elapsed = time.perf_counter() - t0
    s = 15 * US
    last = late_s * US // s
    assert m.window_index.tolist() == [0] + list(range(last - 5, last + 1))
    assert m.window_start_us.tolist() == [k * s for k in m.window_index.tolist()]
    assert m.src_addr.tolist() == ["a"] + ["b"] * 6
    assert elapsed < 1.0, f"build took {elapsed:.2f}s"


def test_build_matrix_constant_group_std_is_exactly_zero():
    """A group whose values are all equal has std 0.0 exactly, in every
    attribute, as aggregate_stats documents. sum / n of a non-dyadic value
    can miss it by an ulp and leave a 1e-17..1e-16 spread. All four columns
    are aggregated as float64 alike, so the counters take the same
    fractional values here."""
    flows = [flow(t_s=i, src=src, dur=v, pkts=v, tot_bytes=v, src_bytes=v)
             for src, v, n in (("a", 0.1, 3), ("b", 0.7, 3), ("c", 2.9, 7))
             for i in range(n)]
    m = build_matrix(FlowTable.from_records(flows),
                     WindowConfig(width_s=60, stride_s=60))
    assert m.src_addr.tolist() == ["a", "b", "c"]
    for attr in ("dur", "tot_pkts", "tot_bytes", "src_bytes"):
        std = m.X[:, FEATURE_NAMES.index(f"{attr}_std")]
        assert std.tolist() == [0.0, 0.0, 0.0], f"{attr}_std: {std}"
    for v, n in ((0.1, 3), (0.7, 3), (2.9, 7)):
        assert aggregate_stats([v] * n).std == 0.0


def lexsort_reference(flows, cfg, group_by):
    """X, y, window index and group key of build_matrix's rows, computed
    window by window with the window's own np.lexsort by (key, value) for
    each attribute, and the same reductions in the same order."""
    t = flows.start_time_us
    by_time = np.argsort(t, kind="stable")
    d = t[by_time] - (t.min() if cfg.origin_us is None else cfg.origin_us)
    vals = flows.magnitudes[by_time]
    pos = np.isin(flows.label_class,
                  [LabelClass.BOTNET, LabelClass.CNC])[by_time]
    keys = flows.addresses[flows.src_code[by_time]]
    if group_by == "src_dst":
        keys = np.char.add(np.char.add(keys, ">"),
                           flows.addresses[flows.dst_code[by_time]])
    uniq, code = np.unique(keys, return_inverse=True)
    w, s = cfg.width_s * US, cfg.stride_s * US
    X, y, win, key = [], [], [], []
    for k in range(int(d[-1]) // s + 1):
        lo, hi = np.searchsorted(d, [k * s, k * s + w])
        if lo == hi:
            continue
        v, p, c = vals[lo:hi], pos[lo:hi], code[lo:hi]
        orders = [np.lexsort((v[:, a], c)) for a in range(v.shape[1])]
        c_s = c[orders[0]]
        g_start = np.flatnonzero(np.diff(c_s, prepend=-1))
        g_len = np.diff(np.append(g_start, len(c_s)))
        cols = [g_len]
        for a, order in enumerate(orders):
            v_s = v[order, a]
            sums = np.add.reduceat(v_s, g_start)
            means = sums / g_len
            maxs = v_s[g_start + g_len - 1]
            var = np.add.reduceat((v_s - np.repeat(means, g_len)) ** 2,
                                  g_start) / g_len
            var[v_s[g_start] == maxs] = 0.0
            mid = g_start + g_len // 2
            meds = np.where(g_len % 2 == 1, v_s[mid],
                            0.5 * (v_s[mid - 1] + v_s[mid]))
            cols += [sums, means, np.sqrt(var), maxs, meds]
        X.append(np.column_stack(cols))
        y.append(np.logical_or.reduceat(p[orders[0]], g_start))
        win.append(np.full(len(g_start), k))
        key.append(uniq[c_s[g_start]])
    return tuple(map(np.concatenate, (X, y, win, key)))


@pytest.mark.parametrize("width,stride,span_s,lead_s", [
    (600, 15, 1800, None), (90, 15, 600, None), (10, 30, 600, None),
    (1, 1, 120, None), (90, 15, 600, 37)],
    ids=["600-15", "90-15", "10-30-gaps", "1-1", "90-15-origin"])
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "spread"])
@pytest.mark.parametrize("group_by", ["src", "src_dst"])
def test_build_matrix_bit_identical_to_per_window_lexsort(
        width, stride, span_s, lead_s, ties, group_by):
    """Ranks sorted once over all flows order each window exactly as the
    window's own lexsort would: every output bit matches. 600/15 puts each
    flow in 40 windows and groups of over 128 flows (numpy's pairwise-sum
    block); ties leaves a few distinct values among many flows per key.
    lead_s pins the origin that many seconds before the first flow, so the
    window grid, and where each window's slice of the keys starts, is not
    anchored at the earliest flow."""
    rng = random.Random(width * 1000 + stride)
    flows = []
    for _ in range(1500):
        if ties:
            mags = dict(dur=rng.choice([0.1, 0.7, 2.9]),
                        pkts=rng.choice([1, 2, 3]),
                        tot_bytes=rng.choice([60, 1500]),
                        src_bytes=rng.choice([0, 40]))
        else:
            tot = rng.randint(60, 100000)
            mags = dict(dur=rng.uniform(0, 100), pkts=rng.randint(1, 500),
                        tot_bytes=tot, src_bytes=rng.randint(0, tot))
        flows.append(flow(
            t_s=rng.uniform(0, span_s), src=f"10.0.0.{rng.randint(1, 3)}",
            dst=f"10.1.0.{rng.randint(1, 2)}", **mags,
            cls=rng.choice(list(LabelClass))))
    table = FlowTable.from_records(flows)
    origin = (None if lead_s is None
              else int(table.start_time_us.min()) - lead_s * US)
    cfg = WindowConfig(width_s=width, stride_s=stride, origin_us=origin)
    m = build_matrix(table, cfg, group_by=group_by)
    X, y, win, key = lexsort_reference(table, cfg, group_by)
    assert np.array_equal(m.X, X), "features must match bit for bit"
    assert np.array_equal(m.y, y)
    assert np.array_equal(m.window_index, win)
    assert m.src_addr.tolist() == key.tolist()


def test_build_matrix_rejects_more_flows_than_its_keys_can_index(
        monkeypatch):
    """Each packed key holds a flat index below 4 * n in 32 bits, so a
    table past the bound is refused rather than aggregated from wrong
    values. The bound is forced down; no large table is allocated."""
    table = FlowTable.from_records([flow(t_s=i) for i in range(5)])
    cfg = WindowConfig(width_s=60, stride_s=60)
    monkeypatch.setattr(windows, "_MAX_FLOWS", 5)
    assert build_matrix(table, cfg).n_rows == 1
    monkeypatch.setattr(windows, "_MAX_FLOWS", 4)
    with pytest.raises(ValueError, match="at most 4 flows, got 5"):
        build_matrix(table, cfg)


@pytest.mark.parametrize("width,stride", [(90, 15), (30, 15), (10, 20)],
                         ids=["90-15", "30-15-gaps-from-x3", "10-20-gaps"])
@pytest.mark.parametrize("lead_s", [None, 37], ids=["earliest", "origin"])
@pytest.mark.parametrize("ties", [True, False], ids=["ties", "spread"])
@pytest.mark.parametrize("group_by", ["src", "src_dst"])
def test_stride_multiple_bit_identical_to_direct_build(
        width, stride, lead_s, ties, group_by):
    """Window k at stride m*s is window m*k at stride s under one origin, so
    the rows of a build at stride s with window_index % m == 0, re-indexed
    to window_index // m, are the build at m*s bit for bit, meta included:
    overlapping, tiling and gap geometries alike. lead_s pins the origin
    that many seconds before the first flow."""
    rng = random.Random(width * 1000 + stride * 10 + (lead_s or 0) + ties)
    flows = []
    for _ in range(800):
        if ties:
            mags = dict(dur=rng.choice([0.1, 0.7, 2.9]),
                        pkts=rng.choice([1, 2, 3]),
                        tot_bytes=rng.choice([60, 1500]),
                        src_bytes=rng.choice([0, 40]))
        else:
            tot = rng.randint(60, 100000)
            mags = dict(dur=rng.uniform(0, 100), pkts=rng.randint(1, 500),
                        tot_bytes=tot, src_bytes=rng.randint(0, tot))
        flows.append(flow(
            t_s=rng.uniform(0, 900), src=f"10.0.0.{rng.randint(1, 4)}",
            dst=f"10.1.0.{rng.randint(1, 2)}", **mags,
            cls=rng.choice(list(LabelClass))))
    table = FlowTable.from_records(flows)
    origin = (None if lead_s is None
              else int(table.start_time_us.min()) - lead_s * US)
    base = build_matrix(table, WindowConfig(width, stride, origin),
                        group_by=group_by)
    for m in range(1, 7):
        direct = build_matrix(table, WindowConfig(width, m * stride, origin),
                              group_by=group_by)
        derived = windows.stride_multiple(base, m)
        assert derived.n_rows > 0
        assert derived.X.tobytes() == direct.X.tobytes(), f"x{m}"
        assert derived.y.tobytes() == direct.y.tobytes()
        assert derived.y.dtype == direct.y.dtype
        assert np.array_equal(derived.window_index, direct.window_index)
        assert np.array_equal(derived.window_start_us, direct.window_start_us)
        assert derived.src_addr.dtype == direct.src_addr.dtype
        assert np.array_equal(derived.src_addr, direct.src_addr)
        assert derived.meta == direct.meta
    assert base.meta["stride_s"] == stride, "the base matrix is not changed"


def test_stride_multiple_rejects_a_non_positive_multiple():
    m = build_matrix(FlowTable.from_records([flow()]), WindowConfig(60, 60))
    for bad in (0, -2, 1.5):
        with pytest.raises(ValueError):
            windows.stride_multiple(m, bad)
