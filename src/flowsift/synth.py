"""Synthetic capture generation.

Produces flow CSVs with the same shape as real captures so the full
pipeline can be exercised quickly and deterministically. Each traffic class
is a set of sources emitting flows as a Poisson process (exponential
inter-arrivals); packet counts are geometric and byte totals follow
packets times a per-class bytes-per-packet draw.

The scenario9 preset mirrors a heavily infected capture: bot sources beacon
fast with tiny uniform flows, so windowed statistics separate them cleanly.
Hard mode gives the positive classes the background profile instead, which
removes the statistical signal while keeping the label mixture, and is used
to show the pipeline failing honestly on inseparable data.

Generation is column-wise, in two steps. The first, in one process, draws
each source's flows as arrays (the same random draws, in the same order,
as one row at a time would take), concatenates the sources' columns and
sorts them once. The second formats any range of the sorted rows a chunk
at a time; write_synth gives each share of the rows to a forked child of
its own (_util.write_ranges), and synthesize formats them all in this
process. Rows are ordered by start time, then source address, then the
source's own emission order, so a seed always gives the same bytes, at any
number of shares.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple, TextIO

import numpy as np

from ._util import write_ranges
from .errors import BadConfig
from ._timestamps import HEADER_LINE, parse_timestamp, render_timestamp

_BASE_TIME_US = parse_timestamp("2011/08/16 10:00:00.000000")

_DIST_KINDS = ("exp", "lognormal", "normal")

# flow lines formatted, and written by write_synth, at a time; also the
# shortest row range write_synth forks a child for
_CHUNK = 4096


@dataclass(frozen=True)
class ClassProfile:
    """Per-class traffic shape.

    Distribution tuples are ("exp", mean), ("lognormal", mu, sigma) or
    ("normal", mu, sigma). dports may be empty, meaning a random high port
    per flow. active_s restricts emission to [start, start+length) seconds
    into the capture (None = whole capture); burst-style beaconing lives
    there.
    """

    n_sources: int
    rate_per_s: float
    dur_dist: tuple
    pkts_p: float
    bpp_dist: tuple
    protos: tuple[str, ...]
    proto_weights: tuple[float, ...]
    dports: tuple[int, ...]
    label: str
    src_prefix: str
    active_s: tuple[float, float] | None = None

    def __post_init__(self):
        if self.n_sources < 0:
            raise BadConfig("n_sources must be >= 0")
        if not math.isfinite(self.rate_per_s):
            raise BadConfig(f"rate_per_s must be finite, not {self.rate_per_s}")
        if self.n_sources > 0 and self.rate_per_s <= 0:
            raise BadConfig("rate_per_s must be > 0 for a populated class")
        parts = self.src_prefix.split(".")
        if len(parts) not in (2, 3) or not all(parts):
            raise BadConfig(f"src_prefix {self.src_prefix!r} must have two or "
                            "three dotted parts")
        # a source's address is the prefix, then (two parts) i // 250, then
        # i % 250 + 1: past this many sources an address would repeat
        capacity = 250 * 256 if len(parts) == 2 else 250
        if self.n_sources > capacity:
            raise BadConfig(f"{self.n_sources} sources under {self.src_prefix!r}"
                            f" would reuse addresses; at most {capacity} fit")
        if self.dur_dist[0] not in _DIST_KINDS:
            raise BadConfig(f"unknown duration distribution {self.dur_dist[0]!r}")
        if self.bpp_dist[0] not in _DIST_KINDS:
            raise BadConfig(f"unknown bytes-per-packet distribution {self.bpp_dist[0]!r}")
        if not 0.0 < self.pkts_p <= 1.0:
            raise BadConfig("pkts_p must be in (0, 1]")
        if len(self.protos) != len(self.proto_weights) or not self.protos:
            raise BadConfig("protos and proto_weights must be same nonzero length")
        if self.active_s is not None:
            start, length = self.active_s
            if not (0 <= start < math.inf and length > 0):
                raise BadConfig("active_s must be (finite start >= 0, "
                                "length > 0)")


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float
    background: ClassProfile
    normal: ClassProfile
    botnet: ClassProfile
    cnc: ClassProfile
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise BadConfig(f"duration_s must be finite and > 0, not "
                            f"{self.duration_s}")
        if (self.background.n_sources + self.normal.n_sources
                + self.botnet.n_sources + self.cnc.n_sources) == 0:
            raise BadConfig("at least one class must have sources")

    def profiles(self) -> tuple[ClassProfile, ...]:
        return (self.background, self.normal, self.botnet, self.cnc)


_BACKGROUND = ClassProfile(
    n_sources=300, rate_per_s=0.085,
    dur_dist=("exp", 20.0), pkts_p=0.05,
    bpp_dist=("lognormal", 6.5, 1.0),
    protos=("tcp", "udp", "icmp"), proto_weights=(0.70, 0.25, 0.05),
    dports=(80, 443, 53, 25, 6881),
    label="flow=Background-TCP-Established", src_prefix="10.0")

_NORMAL = ClassProfile(
    n_sources=20, rate_per_s=0.022,
    dur_dist=("lognormal", 0.0, 1.0), pkts_p=0.10,
    bpp_dist=("normal", 800.0, 200.0),
    protos=("tcp",), proto_weights=(1.0,),
    dports=(80, 443),
    label="flow=To-Normal-V42-HTTP", src_prefix="147.32.84")

_BOTNET = ClassProfile(
    n_sources=2, rate_per_s=0.9,
    dur_dist=("normal", 0.1, 0.02), pkts_p=0.5,
    bpp_dist=("normal", 70.0, 3.0),
    protos=("tcp",), proto_weights=(1.0,),
    dports=(6667,),
    label="flow=From-Botnet-V42-TCP-Attempt", src_prefix="147.32.85")

_CNC = ClassProfile(
    n_sources=1, rate_per_s=0.5,
    dur_dist=("normal", 0.05, 0.005), pkts_p=0.7,
    bpp_dist=("normal", 66.0, 1.0),
    protos=("tcp",), proto_weights=(1.0,),
    dports=(443,),
    label="flow=From-Botnet-V42-TCP-CC", src_prefix="147.32.86",
    active_s=(600.0, 180.0))


def preset_scenario9(seed: int = 0, hard: bool = False) -> SynthConfig:
    """Roughly 50k flows over 30 minutes at a 91.7/1.6/6.5/0.2 class mix.

    hard=True keeps the mix but gives bot and C&C traffic the background
    shape (more sources at background rates), making the classes
    statistically indistinguishable.
    """
    botnet, cnc = _BOTNET, _CNC
    if hard:
        botnet = replace(
            _BACKGROUND, n_sources=21, rate_per_s=0.085,
            label=_BOTNET.label, src_prefix=_BOTNET.src_prefix)
        cnc = replace(
            _BACKGROUND, n_sources=1, rate_per_s=0.05,
            label=_CNC.label, src_prefix=_CNC.src_prefix)
    return SynthConfig(duration_s=1800.0, background=_BACKGROUND,
                       normal=_NORMAL, botnet=botnet, cnc=cnc, seed=seed)


def _arrival_times(rng: np.random.Generator, rate: float,
                   duration: float) -> np.ndarray:
    """Poisson-process arrivals in [0, duration)."""
    expected = rate * duration
    batch = int(expected + 6.0 * expected ** 0.5 + 10)
    gaps = rng.exponential(1.0 / rate, size=batch)
    times = np.cumsum(gaps)
    while times[-1] < duration:
        more = rng.exponential(1.0 / rate, size=batch)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < duration]


def _draw(rng: np.random.Generator, dist: tuple, size: int) -> np.ndarray:
    kind = dist[0]
    if kind == "exp":
        return rng.exponential(dist[1], size=size)
    if kind == "lognormal":
        return rng.lognormal(dist[1], dist[2], size=size)
    return rng.normal(dist[1], dist[2], size=size)


def _source_draws(rng: np.random.Generator, profile: ClassProfile,
                  duration: float) -> dict[str, np.ndarray] | None:
    """One source's flows as columns in emission order, or None when it
    emits none. "kind" is 2 * protocol index, plus 1 where dTos is
    dropped."""
    if profile.active_s is not None:
        start, length = profile.active_s
        span = min(length, max(0.0, duration - start))
        if span <= 0:
            return None
        times = start + _arrival_times(rng, profile.rate_per_s, span)
    else:
        times = _arrival_times(rng, profile.rate_per_s, duration)
    n = len(times)
    if n == 0:
        return None
    durs = np.maximum(0.0, _draw(rng, profile.dur_dist, n))
    pkts = rng.geometric(profile.pkts_p, size=n)
    bpp = np.maximum(28.0, _draw(rng, profile.bpp_dist, n))
    tot_bytes = np.maximum(60, np.rint(pkts * bpp).astype(np.int64))
    frac = rng.uniform(0.3, 0.7, size=n)
    src_bytes = np.minimum(tot_bytes, np.rint(tot_bytes * frac).astype(np.int64))
    proto_idx = rng.choice(len(profile.protos), size=n,
                           p=np.asarray(profile.proto_weights, dtype=float))
    sports = rng.integers(1024, 65536, size=n)
    if profile.dports:
        dports = rng.choice(np.asarray(profile.dports), size=n)
    else:
        dports = rng.integers(1024, 65536, size=n)
    dst_a = rng.integers(1, 255, size=n)
    dst_b = rng.integers(1, 255, size=n)
    drop_dtos = rng.random(size=n) < 0.01
    return {"t_us": _BASE_TIME_US + np.rint(times * 1e6).astype(np.int64),
            "dur": durs, "kind": 2 * proto_idx + drop_dtos, "sport": sports,
            "dport": dports, "dst_a": dst_a, "dst_b": dst_b, "pkts": pkts,
            "tot_bytes": tot_bytes, "src_bytes": src_bytes}


def _source_address(profile: ClassProfile, i: int) -> str:
    if profile.src_prefix.count(".") == 1:
        return f"{profile.src_prefix}.{i // 250}.{i % 250 + 1}"
    return f"{profile.src_prefix}.{i % 250 + 1}"


def _kind_fields(profile: ClassProfile, addr: str) -> list[tuple[str, ...]]:
    """The text fields of one source's flows, indexed by their "kind": the
    protocol with the address after it, Dir, State through dTos, Label."""
    fields = []
    for proto in profile.protos:
        if proto == "udp":
            state, dir_field = "CON", "  <->"
        elif proto == "icmp":
            state, dir_field = "ECO", "   ->"
        else:
            state, dir_field = "FSPA_FSPA", "   ->"
        for dtos in ("0", ""):
            fields.append((f"{proto},{addr}", dir_field, f"{state},0,{dtos}",
                           profile.label))
    return fields


class _Rows(NamedTuple):
    """A capture's flows as columns, and the order they are written in."""

    cols: dict[str, np.ndarray]
    order: np.ndarray               # the flows' column indices in file order
    fields: list[tuple[str, ...]]   # text fields by "kind" (_kind_fields)


def _sorted_rows(cfg: SynthConfig) -> _Rows:
    """Draw the capture's flows and order them by time, then source
    address, then the source's own emission order."""
    rng = np.random.default_rng(cfg.seed)
    draws: list[dict[str, np.ndarray]] = []
    addrs: list[str] = []
    fields: list[tuple[str, ...]] = []
    for profile in cfg.profiles():
        for i in range(profile.n_sources):
            source = _source_draws(rng, profile, cfg.duration_s)
            if source is None:
                continue
            addr = _source_address(profile, i)
            source["kind"] += len(fields)
            fields.extend(_kind_fields(profile, addr))
            addrs.append(addr)
            draws.append(source)
    if not draws:
        return _Rows({}, np.empty(0, dtype=np.intp), fields)
    counts = np.array([len(d["t_us"]) for d in draws])
    # one column at a time, each source's pieces released as they are
    # copied, so no column is held twice
    cols = {name: np.concatenate([d.pop(name) for d in draws])
            for name in list(draws[0])}
    del draws
    starts = np.cumsum(counts) - counts
    j = np.arange(len(cols["t_us"])) - np.repeat(starts, counts)
    # equal addresses (classes sharing a prefix) tie on rank, as they did
    # when the rows were sorted by the address text
    _, src_rank = np.unique(np.array(addrs), return_inverse=True)
    order = np.lexsort((j, np.repeat(src_rank, counts), cols["t_us"]))
    return _Rows(cols, order, fields)


def _lines(rows: _Rows, lo: int, hi: int) -> Iterator[list[str]]:
    """The flow lines of rows [lo, hi) in file order, _CHUNK at a time."""
    cols, fields = rows.cols, rows.fields
    # each whole second seen so far, rendered once without its ".ffffff"
    stamps: dict[int, str] = {}
    for start in range(lo, hi, _CHUNK):
        take = rows.order[start:min(start + _CHUNK, hi)]
        secs, us = divmod(cols["t_us"][take], 1_000_000)
        for s in np.unique(secs).tolist():
            if s not in stamps:
                stamps[s] = render_timestamp(s * 1_000_000)[:-7]
        yield [
            f"{stamps[s]}.{u:06d},{dur:.6f},{proto_src},{sport},{dir_field},"
            f"77.75.{a}.{b},{dport},{state_tos},{pk},{tb},{sb},{label}"
            for s, u, dur, (proto_src, dir_field, state_tos, label), sport,
            dport, a, b, pk, tb, sb in zip(
                secs.tolist(), us.tolist(), cols["dur"][take].tolist(),
                map(fields.__getitem__, cols["kind"][take].tolist()),
                *(cols[name][take].tolist() for name in (
                    "sport", "dport", "dst_a", "dst_b", "pkts", "tot_bytes",
                    "src_bytes")))]


def _write_lines(rows: _Rows, fh: TextIO, lo: int, hi: int) -> None:
    """Write the lines of rows [lo, hi) to fh, each chunk as it is
    formatted."""
    for chunk in _lines(rows, lo, hi):
        fh.write("\n".join(chunk) + "\n")


def synthesize(cfg: SynthConfig) -> list[str]:
    """All flow lines (no header), sorted by time, then source address,
    then the source's own emission order. One process formats them all:
    write_synth's lines, formatted in forked ranges, must equal these."""
    rows = _sorted_rows(cfg)
    return [line for chunk in _lines(rows, 0, len(rows.order))
            for line in chunk]


def write_synth(path, cfg: SynthConfig) -> int:
    """Write header plus generated rows; returns the row count. The rows
    are drawn and sorted here; _util.write_ranges formats them in one
    contiguous range per share, none shorter than _CHUNK, every range but
    the first in a forked child, each chunk written as it is formatted, so
    the text is never held whole."""
    rows = _sorted_rows(cfg)
    n = len(rows.order)
    write_ranges(path, HEADER_LINE + "\n", n, _CHUNK,
                 functools.partial(_write_lines, rows),
                 "the synthetic-capture writer")
    return n
