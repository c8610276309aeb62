"""Sliding-window assignment and per-(window, source) feature aggregation.

Windows are half-open intervals [origin + k*stride, origin + k*stride + width)
indexed by k >= 0. A flow belongs to every window containing its start time;
duration never extends membership. Flows sharing a (window, source) pair form
one group, aggregated into the 21 canonical features. order_flows does the
part of that work no geometry changes, once per flow table; build_matrix
makes one geometry's windows from it.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from .errors import EmptyInput, EmptyValues, TimeBeforeOrigin
from .features import FEATURE_NAMES, FeatureMatrix
from .ingest import FlowTable, LabelClass

DEFAULT_POSITIVE_CLASSES = frozenset({LabelClass.BOTNET, LabelClass.CNC})

_US_PER_S = 1_000_000

# order_flows gives each flow one code per attribute in one uint32 space,
# and an attribute has at most n codes, so 4 * n must fit in 32 bits
_MAX_FLOWS = 1 << 30


@dataclass(frozen=True)
class WindowConfig:
    """Window geometry in whole seconds.

    origin_us anchors window 0; None means "earliest flow start in the input",
    resolved when a matrix is built. stride > width is legal but leaves gaps
    between windows uncovered (coverage_gap); flows in a gap join no window.
    """

    width_s: int
    stride_s: int
    origin_us: int | None = None

    def __post_init__(self):
        if not (isinstance(self.width_s, int) and self.width_s >= 1):
            raise ValueError(f"width_s must be a positive integer, got {self.width_s!r}")
        if not (isinstance(self.stride_s, int) and self.stride_s >= 1):
            raise ValueError(f"stride_s must be a positive integer, got {self.stride_s!r}")

    @property
    def coverage_gap(self) -> bool:
        return self.stride_s > self.width_s


def window_indices(t_us: int, cfg: WindowConfig) -> list[int]:
    """All window indices whose interval contains t_us, ascending.

    Uses cfg.origin_us (None is treated as 0, i.e. t_us is already an offset).
    Empty when the time falls in a stride>width gap.
    """
    origin = cfg.origin_us if cfg.origin_us is not None else 0
    d = t_us - origin
    if d < 0:
        raise TimeBeforeOrigin(f"t={t_us} precedes origin={origin}")
    w = cfg.width_s * _US_PER_S
    s = cfg.stride_s * _US_PER_S
    # containment: k*s <= d < k*s + w  <=>  (d - w)/s < k <= d/s
    k_max = d // s
    k_min = max(0, (d - w) // s + 1)
    return list(range(k_min, k_max + 1))


class AggregateStats(NamedTuple):
    sum: float
    mean: float
    std: float
    max: float
    median: float


def aggregate_stats(values: Iterable[float]) -> AggregateStats:
    """The five canonical statistics of a non-empty value list.

    std is the population standard deviation (divide by n); an even-length
    median is the mean of the two middle order statistics.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise EmptyValues("aggregate_stats needs at least one value")
    # Constant lists must report an exact zero spread; mean subtraction can
    # otherwise leave ~1e-16-scale residue.
    std = 0.0 if arr.min() == arr.max() else float(arr.std())
    return AggregateStats(
        sum=float(arr.sum()),
        mean=float(arr.mean()),
        std=std,
        max=float(arr.max()),
        median=float(np.median(arr)),
    )


@dataclass(frozen=True)
class OrderedFlows:
    """What every window pass over one flow table shares, whatever its
    geometry: the flows in start-time order and each flow's place in the
    (group key, value) order of every attribute. order_flows makes it; its
    arrays are read-only.

    Each flow has one code per attribute, the dense rank of its (group key,
    value) among the attribute's distinct pairs, offset so that the four
    attributes share one uint32 code space (at most 4 * _MAX_FLOWS codes).
    Attribute 0's pairs also carry the positive-label bit. Flows with equal
    codes hold equal values, so a window's sorted codes give every group's
    values in (key, value) order, whatever the order of the flows.

    start_time_us   int64 (n,): the start times, ascending
    codes           uint32 (4, n): the codes of the flows, in time order
    values          float64 (codes,): each code's value, -0.0 made 0.0
    key_code        int32 (attribute 0's codes,): each code's index into keys
    positive        bool (attribute 0's codes,): each code's label bit
    keys            str: the sorted distinct group keys
    """

    start_time_us: np.ndarray
    codes: np.ndarray
    values: np.ndarray
    key_code: np.ndarray
    positive: np.ndarray
    keys: np.ndarray
    positive_classes: frozenset[LabelClass]
    group_by: str


def order_flows(flows: FlowTable,
                positive_classes: frozenset[LabelClass] | set[LabelClass] = DEFAULT_POSITIVE_CLASSES,
                group_by: str = "src") -> OrderedFlows:
    """Order flows once for any number of build_matrix calls that share
    positive_classes and group_by (see build_matrix). An empty table gives
    an empty order."""
    if not positive_classes:
        raise ValueError("positive_classes must be non-empty")
    if group_by not in ("src", "src_dst"):
        raise ValueError(f"group_by must be 'src' or 'src_dst', got {group_by!r}")
    if len(flows) > _MAX_FLOWS:
        raise ValueError(f"build_matrix takes at most {_MAX_FLOWS} flows, "
                         f"got {len(flows)}")

    by_time = np.argsort(flows.start_time_us)
    pos_codes = np.asarray(sorted(int(c) for c in positive_classes), dtype=np.int8)
    pos = np.isin(flows.label_class, pos_codes)
    keys, key = _group_keys(flows, group_by)
    codes = np.empty((4, len(flows)), dtype=np.uint32)
    values = []
    base = 0
    for a, v in enumerate(flows.magnitudes.T):
        # + 0.0 turns -0.0 into 0.0: the two tie, and share one code
        distinct, v_rank = np.unique(v + 0.0, return_inverse=True)
        pair = key * len(distinct)
        pair += v_rank
        if a == 0:
            pair <<= 1
            pair |= pos
        pair, code = np.unique(pair, return_inverse=True)
        codes[a] = code[by_time]
        codes[a] += base
        base += len(pair)
        if a == 0:
            positive = (pair & 1).astype(bool)
            pair >>= 1
            key_code = (pair // len(distinct)).astype(np.int32)
        values.append(distinct[pair % len(distinct)])
        del pair, code

    order = OrderedFlows(
        start_time_us=flows.start_time_us[by_time], codes=codes,
        values=np.concatenate(values), key_code=key_code, positive=positive,
        keys=keys, positive_classes=frozenset(positive_classes),
        group_by=group_by)
    for arr in (order.start_time_us, codes, order.values, key_code,
                positive, keys):
        arr.flags.writeable = False
    return order


def build_matrix(flows: FlowTable, cfg: WindowConfig,
                 positive_classes: frozenset[LabelClass] | set[LabelClass] = DEFAULT_POSITIVE_CLASSES,
                 group_by: str = "src", *,
                 order: OrderedFlows | None = None) -> FeatureMatrix:
    """Aggregate flows into the labeled per-(window, source) feature matrix.

    group_by: "src" groups by source address (default), "src_dst" by the
    (source, destination) pair, keyed "src>dst". The row target is 1 iff the
    group contains at least one flow of a positive class. Rows come out
    sorted by (window_index, group key); the result is bit-identical under
    any permutation of the input flows. The matrix's keys are order.keys,
    every key of the table, whether or not a window holds it. Each window's
    rows are appended to typed buffers that become the output arrays
    without a copy, so the matrix is never held twice.

    order is order_flows(flows, positive_classes, group_by), made here when
    None; builds of one table at several geometries can share it. An order
    made for other positive_classes, another group_by or a table of another
    length raises ValueError.
    """
    if order is None:
        order = order_flows(flows, positive_classes, group_by)
    elif (order.positive_classes != frozenset(positive_classes)
          or order.group_by != group_by
          or len(order.start_time_us) != len(flows)):
        raise ValueError("order was made for other positive_classes, "
                         "another group_by or another table")
    if len(flows) == 0:
        raise EmptyInput("build_matrix needs at least one flow")

    t = order.start_time_us
    first = int(t[0])
    origin = first if cfg.origin_us is None else cfg.origin_us
    if first < origin:
        raise TimeBeforeOrigin(f"flow at {first} precedes origin {origin}")
    w = cfg.width_s * _US_PER_S
    s = cfg.stride_s * _US_PER_S

    # window k holds the flows with k*s <= t - origin < k*s + w: in time
    # order, a contiguous slice of every flow array
    # X, y, window index and key code of every row so far, as typed buffers
    out = (array("d"), array("b"), array("q"), array("i"))
    k = 0
    while (lo := int(np.searchsorted(t, origin + k * s))) < len(t):
        hi = int(np.searchsorted(t, origin + k * s + w))
        if lo == hi:
            # the next flow starts at or after k*s + w: jump to the first
            # window that ends after it
            k = (int(t[lo]) - origin - w) // s + 1
            continue
        parts = _aggregate_window(k, order, order.codes[:, lo:hi])
        for buf, part in zip(out, parts):
            # frombytes copies raw bytes, so a part must already have its
            # buffer's dtype: "equiv" casting raises TypeError on any other
            part = part.astype(buf.typecode, casting="equiv", copy=False)
            buf.frombytes(memoryview(part).cast("B"))
        k += 1

    X, y, window_index, key_code = map(np.asarray, out)
    return FeatureMatrix(
        feature_names=FEATURE_NAMES,
        X=X.reshape(-1, len(FEATURE_NAMES)),
        y=y,
        window_index=window_index,
        window_start_us=origin + window_index * s,
        key_code=key_code,
        keys=order.keys,
        meta={
            "width_s": cfg.width_s,
            "stride_s": cfg.stride_s,
            "origin_us": origin,
            "positive_classes": sorted(c.token for c in positive_classes),
            "group_by": group_by,
        },
    )


def stride_multiple(matrix: FeatureMatrix, multiple: int) -> FeatureMatrix:
    """The matrix build_matrix gives at multiple times the stride of
    matrix, a build_matrix result, from its rows and meta alone.

    Both builds anchor window 0 at one origin, so window k at stride m*s is
    window m*k at stride s: its rows are those with window_index % m == 0,
    re-indexed to window_index // m, and equal the direct build's bit for
    bit. window_start_us is unchanged. Holds for gap geometries too.
    """
    if not (isinstance(multiple, int) and multiple >= 1):
        raise ValueError(f"multiple must be a positive integer, got {multiple!r}")
    out = matrix.subset(matrix.window_index % multiple == 0)
    out.window_index //= multiple
    out.meta["stride_s"] = matrix.meta["stride_s"] * multiple
    return out


def _group_keys(flows: FlowTable, group_by: str
                ) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct group key strings, and each flow's index into
    them."""
    if group_by == "src":
        distinct, inverse = np.unique(flows.src_code, return_inverse=True)
        keys = flows.addresses[distinct].tolist()
    else:
        n_addr = len(flows.addresses)
        distinct, inverse = np.unique(
            flows.src_code.astype(np.int64) * n_addr + flows.dst_code,
            return_inverse=True)
        src, dst = np.divmod(distinct, n_addr)
        keys = [f"{a}>{b}" for a, b in zip(flows.addresses[src].tolist(),
                                            flows.addresses[dst].tolist())]
    # distinct pairs can share a key string ("a>b" + "c", "a" + "b>c")
    uniq_keys, rank = np.unique(keys, return_inverse=True)
    return uniq_keys, rank[inverse].astype(np.int64, copy=False)


def _aggregate_window(k, order, codes):
    """Features (float64), targets (int8), window index (int64) and key
    code (int32) of window k's groups, one row per key code, ascending.

    codes is the window's (attribute, flow) slice of order.codes.
    """
    # sorted codes put each group's values in order, so every reduction
    # below is independent of input flow order, bit for bit
    flat = np.sort(codes, axis=1)
    v_s = order.values.take(flat)
    first = flat[0]                     # attribute 0's codes
    c_s = order.key_code[first]
    edge = np.empty(len(c_s) + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(c_s[1:], c_s[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)       # each group's start, then the end
    g_start = bounds[:-1]
    g_len = np.diff(bounds)

    sums = np.add.reduceat(v_s, g_start, axis=1)
    means = sums / g_len
    maxs = v_s.take(bounds[1:] - 1, axis=1)
    dev = v_s - np.repeat(means, g_len, axis=1)
    dev *= dev
    var = np.add.reduceat(dev, g_start, axis=1)
    var /= g_len
    # sums / n of a constant group can miss its value by an ulp: report the
    # exact zero spread aggregate_stats does
    var[v_s.take(g_start, axis=1) == maxs] = 0.0
    mid = g_start + g_len // 2
    upper = v_s.take(mid, axis=1)
    # mid-1 can point into the previous segment for odd groups; np.where
    # discards those lanes, and the index stays in bounds (wraps to -1 at
    # most)
    meds = np.where(g_len & 1, upper,
                    0.5 * (v_s.take(mid - 1, axis=1) + upper))
    X = np.empty((len(g_start), len(FEATURE_NAMES)))
    X[:, 0] = g_len
    # a row takes each attribute's five statistics in turn: stats views X's
    # other columns as (attribute, statistic, group)
    stats = X[:, 1:].reshape(len(g_start), len(v_s), -1).transpose(1, 2, 0)
    stats[:, 0] = sums
    stats[:, 1] = means
    np.sqrt(var, out=stats[:, 2])
    stats[:, 3] = maxs
    stats[:, 4] = meds
    y = np.logical_or.reduceat(order.positive[first], g_start).astype(np.int8)
    return X, y, np.full(len(g_start), k, dtype=np.int64), c_s[g_start]


def resolve_config(cfg: WindowConfig, flows_min_t_us: int) -> WindowConfig:
    """Pin a config's origin to an explicit timestamp (earliest flow)."""
    if cfg.origin_us is not None:
        return cfg
    return replace(cfg, origin_us=flows_min_t_us)
