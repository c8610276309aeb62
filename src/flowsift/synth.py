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
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._util import atomic_open
from .errors import BadConfig
from .ingest import HEADER_LINE, parse_timestamp, render_timestamp

_BASE_TIME_US = parse_timestamp("2011/08/16 10:00:00.000000")

_DIST_KINDS = ("exp", "lognormal", "normal")


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
        if self.n_sources > 0 and self.rate_per_s <= 0:
            raise BadConfig("rate_per_s must be > 0 for a populated class")
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
            if start < 0 or length <= 0:
                raise BadConfig("active_s must be (start >= 0, length > 0)")


@dataclass(frozen=True)
class SynthConfig:
    duration_s: float
    background: ClassProfile
    normal: ClassProfile
    botnet: ClassProfile
    cnc: ClassProfile
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise BadConfig("duration_s must be > 0")
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


def _source_rows(rng: np.random.Generator, profile: ClassProfile,
                 src_addr: str, duration: float) -> list[tuple]:
    if profile.active_s is not None:
        start, length = profile.active_s
        span = min(length, max(0.0, duration - start))
        if span <= 0:
            return []
        times = start + _arrival_times(rng, profile.rate_per_s, span)
    else:
        times = _arrival_times(rng, profile.rate_per_s, duration)
    n = len(times)
    if n == 0:
        return []
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
    rows = []
    for j in range(n):
        proto = profile.protos[int(proto_idx[j])]
        if proto == "udp":
            state, dir_field = "CON", "  <->"
        elif proto == "icmp":
            state, dir_field = "ECO", "   ->"
        else:
            state, dir_field = "FSPA_FSPA", "   ->"
        t_us = _BASE_TIME_US + int(round(times[j] * 1e6))
        dtos = "" if drop_dtos[j] else "0"
        line = ",".join([
            render_timestamp(t_us),
            f"{durs[j]:.6f}",
            proto,
            src_addr,
            str(int(sports[j])),
            dir_field,
            f"77.75.{dst_a[j]}.{dst_b[j]}",
            str(int(dports[j])),
            state,
            "0",
            dtos,
            str(int(pkts[j])),
            str(int(tot_bytes[j])),
            str(int(src_bytes[j])),
            profile.label,
        ])
        rows.append((t_us, src_addr, j, line))
    return rows


def synthesize(cfg: SynthConfig) -> list[str]:
    """All flow lines (no header), sorted by time then source."""
    rng = np.random.default_rng(cfg.seed)
    rows: list[tuple] = []
    for profile in cfg.profiles():
        for i in range(profile.n_sources):
            src = f"{profile.src_prefix}.{i // 250}.{i % 250 + 1}" \
                if profile.src_prefix.count(".") == 1 \
                else f"{profile.src_prefix}.{i % 250 + 1}"
            rows.extend(_source_rows(rng, profile, src, cfg.duration_s))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [r[3] for r in rows]


def write_synth(path, cfg: SynthConfig) -> int:
    """Write header plus generated rows; returns the row count."""
    lines = synthesize(cfg)
    with atomic_open(path) as fh:
        fh.write(HEADER_LINE + "\n")
        # joined a chunk at a time, so the capture's text is never held whole
        chunk = 4096
        for lo in range(0, len(lines), chunk):
            fh.write("\n".join(lines[lo:lo + chunk]) + "\n")
    return len(lines)
