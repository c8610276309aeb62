"""Sliding-window assignment and per-(window, source) feature aggregation.

Windows are half-open intervals [origin + k*stride, origin + k*stride + width)
indexed by k >= 0. A flow belongs to every window containing its start time;
duration never extends membership. Flows sharing a (window, source) pair form
one group, aggregated into the 21 canonical features.
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

# build_matrix packs each flow's rank above the 32-bit flat index of its
# value among the four attribute rows, so 4 * n must fit in 32 bits
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


def build_matrix(flows: FlowTable, cfg: WindowConfig,
                 positive_classes: frozenset[LabelClass] | set[LabelClass] = DEFAULT_POSITIVE_CLASSES,
                 group_by: str = "src") -> FeatureMatrix:
    """Aggregate flows into the labeled per-(window, source) feature matrix.

    group_by: "src" groups by source address (default), "src_dst" by the
    (source, destination) pair, keyed "src>dst". The row target is 1 iff the
    group contains at least one flow of a positive class. Rows come out
    sorted by (window_index, group key); the result is bit-identical under
    any permutation of the input flows. Each window's rows are appended to
    typed buffers that become the output arrays without a copy, so the
    matrix is never held twice.
    """
    if not positive_classes:
        raise ValueError("positive_classes must be non-empty")
    if group_by not in ("src", "src_dst"):
        raise ValueError(f"group_by must be 'src' or 'src_dst', got {group_by!r}")
    if len(flows) == 0:
        raise EmptyInput("build_matrix needs at least one flow")
    if len(flows) > _MAX_FLOWS:
        raise ValueError(f"build_matrix takes at most {_MAX_FLOWS} flows, "
                         f"got {len(flows)}")

    t = flows.start_time_us
    origin = int(t.min()) if cfg.origin_us is None else cfg.origin_us
    if int(t.min()) < origin:
        raise TimeBeforeOrigin(
            f"flow at {int(t.min())} precedes origin {origin}")
    w = cfg.width_s * _US_PER_S
    s = cfg.stride_s * _US_PER_S

    # window k holds the flows with k*s <= d < k*s + w: after one sort by
    # start time, a contiguous slice of every array below
    by_time = np.argsort(t)
    d = t[by_time] - origin
    vals = np.ascontiguousarray(flows.magnitudes[by_time].T)   # (attr, flow)
    pos_codes = np.asarray(sorted(int(c) for c in positive_classes), dtype=np.int8)
    pos = np.isin(flows.label_class, pos_codes)[by_time]
    uniq_keys, key_code = _group_keys(flows, group_by)
    key_code = key_code[by_time]
    # each flow's rank in the stable (key, value) order of every attribute,
    # sorted once over all flows, packed above the flat index a * n + i of
    # its value in vals: a window's slice is contiguous and its ranks are
    # distinct, so a plain sort of ranks[a, lo:hi] is exactly that slice's
    # own stable lexsort, with the flat indices in its low 32 bits
    n = len(d)
    ranks = np.empty(vals.shape, dtype=np.int64)
    for a, v in enumerate(vals):
        ranks[a, np.lexsort((v, key_code))] = np.arange(n)
        ranks[a] <<= 32
        ranks[a] |= np.arange(a * n, (a + 1) * n)

    # X, y, window index and key code of every row so far, as typed buffers
    out = (array("d"), array("b"), array("q"), array("q"))
    k = 0
    while (lo := int(np.searchsorted(d, k * s))) < len(d):
        hi = int(np.searchsorted(d, k * s + w))
        if lo == hi:
            # the next flow starts at or after k*s + w: jump to the first
            # window that ends after it
            k = int(d[lo] - w) // s + 1
            continue
        parts = _aggregate_window(k, vals, pos, key_code, ranks[:, lo:hi])
        for buf, part in zip(out, parts):
            # frombytes copies raw bytes, so a part must already have its
            # buffer's dtype: "equiv" casting raises TypeError on any other
            part = part.astype(buf.typecode, casting="equiv", copy=False)
            buf.frombytes(memoryview(part).cast("B"))
        k += 1

    X, y, window_index, codes = map(np.asarray, out)
    return FeatureMatrix(
        feature_names=FEATURE_NAMES,
        X=X.reshape(-1, len(FEATURE_NAMES)),
        y=y,
        window_index=window_index,
        window_start_us=origin + window_index * s,
        src_addr=uniq_keys[codes],
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


def _aggregate_window(k, vals, pos, key_code, ranks):
    """Features (float64), targets (int8), window index and key code (both
    int64) of window k's groups, one row per key code, ascending.

    vals is (attribute, flow) over every flow; pos and key_code are per
    flow. ranks[a] is the window's slice of attribute a's packed keys: a
    rank that orders the window's flows by (key code, attribute a) above
    the flat index of the flow's value in vals.
    """
    # sort values within each group so every reduction below is independent
    # of input flow order, bit for bit
    flat = np.sort(ranks, axis=1)
    flat &= 0xFFFFFFFF
    v_s = vals.ravel().take(flat)
    order = flat[0]                     # a == 0: the flows' time positions
    c_s = key_code[order]
    g_start = np.flatnonzero(np.diff(c_s, prepend=-1))    # codes are >= 0
    g_len = np.diff(np.append(g_start, len(c_s)))
    g_end = g_start + g_len - 1

    sums = np.add.reduceat(v_s, g_start, axis=1)
    means = sums / g_len
    maxs = v_s[:, g_end]
    var = np.add.reduceat((v_s - np.repeat(means, g_len, axis=1)) ** 2,
                          g_start, axis=1) / g_len
    # sums / n of a constant group can miss its value by an ulp: report the
    # exact zero spread aggregate_stats does
    var[v_s[:, g_start] == maxs] = 0.0
    mid = g_start + g_len // 2
    odd = (g_len % 2) == 1
    # mid-1 can point into the previous segment for odd groups; np.where
    # discards those lanes, and the index stays in bounds (wraps to -1 at
    # most)
    meds = np.where(odd, v_s[:, mid], 0.5 * (v_s[:, mid - 1] + v_s[:, mid]))
    # stats is (attr, group, stat); a row takes each attribute's five
    # statistics in turn
    stats = np.stack((sums, means, np.sqrt(var), maxs, meds), axis=-1)
    X = np.column_stack(
        (g_len, stats.swapaxes(0, 1).reshape(len(g_start), -1)))
    y = np.logical_or.reduceat(pos[order], g_start).astype(np.int8)
    return X, y, np.full(len(g_start), k, dtype=np.int64), c_s[g_start]


def resolve_config(cfg: WindowConfig, flows_min_t_us: int) -> WindowConfig:
    """Pin a config's origin to an explicit timestamp (earliest flow)."""
    if cfg.origin_us is not None:
        return cfg
    return replace(cfg, origin_us=flows_min_t_us)
