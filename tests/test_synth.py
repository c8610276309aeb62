"""Synthetic capture generator: determinism, class mixture, and shape."""
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flowsift import (
    BadConfig,
    ClassProfile,
    FlowTable,
    LabelClass,
    SynthConfig,
    classify_label,
    label_distribution,
    parse_line,
    preset_scenario9,
    read_flows,
    synthesize,
    write_synth,
)
from flowsift import _util, synth
from flowsift.ingest import HEADER_LINE, render_timestamp
from flowsift.synth import _BASE_TIME_US, _arrival_times, _draw

PROFILE_KW = dict(
    dur_dist=("exp", 5.0), pkts_p=0.2,
    bpp_dist=("normal", 100.0, 10.0),
    protos=("tcp",), proto_weights=(1.0,))


def tiny_config(seed=0):
    return SynthConfig(
        duration_s=300.0,
        background=ClassProfile(
            n_sources=95, rate_per_s=0.02, dports=(80,),
            label="flow=Background-TCP-Established", src_prefix="10.1",
            **PROFILE_KW),
        normal=ClassProfile(
            n_sources=2, rate_per_s=0.01, dports=(443,),
            label="flow=To-Normal-V42-HTTP", src_prefix="147.32.84",
            **PROFILE_KW),
        botnet=ClassProfile(
            n_sources=5, rate_per_s=0.2, dports=(6667,),
            label="flow=From-Botnet-V42-TCP-Attempt", src_prefix="147.32.85",
            **PROFILE_KW),
        cnc=ClassProfile(
            n_sources=1, rate_per_s=0.1, dports=(443,),
            label="flow=From-Botnet-V42-TCP-CC", src_prefix="147.32.86",
            **PROFILE_KW),
        seed=seed)


@pytest.fixture(scope="module")
def preset_lines():
    return synthesize(preset_scenario9(seed=42))


def test_same_seed_same_bytes(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    n1 = write_synth(p1, tiny_config(seed=9))
    n2 = write_synth(p2, tiny_config(seed=9))
    assert n1 == n2
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_different_seed_different_bytes(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_synth(p1, tiny_config(seed=1))
    write_synth(p2, tiny_config(seed=2))
    assert Path(p1).read_bytes() != Path(p2).read_bytes()


def test_streamed_file_is_the_joined_lines(tmp_path, preset_lines):
    """write_synth streams its lines in chunks; the bytes are the header and
    every line joined, as when the whole text was written at once."""
    path = str(tmp_path / "flows.csv")
    assert write_synth(path, preset_scenario9(seed=42)) == len(preset_lines)
    with open(path, "rb") as fh:
        assert fh.read() == ("\n".join([HEADER_LINE] + preset_lines)
                             + "\n").encode("utf-8")


def test_written_file_round_trips_clean(tmp_path):
    path = str(tmp_path / "flows.csv")
    n = write_synth(path, tiny_config())
    table, stats = read_flows(path)
    assert len(table) == n
    assert stats.skipped == 0
    assert stats.unrecognized_labels == 0
    with open(path) as fh:
        first_line = fh.readline().rstrip("\n")
    assert first_line == HEADER_LINE


def test_all_classes_emitted(tmp_path):
    path = str(tmp_path / "flows.csv")
    write_synth(path, tiny_config())
    table, _ = read_flows(path)
    classes = {LabelClass(c) for c in table.label_class.tolist()}
    assert classes == set(LabelClass)


def test_rows_sorted_by_time(preset_lines):
    records = [parse_line(line, i + 1) for i, line in enumerate(preset_lines)]
    times = [r.start_time_us for r in records]
    assert times == sorted(times)
    assert len(records) > 40_000, "preset is a ~50k-flow capture"


def test_preset_mixture_matches_published_distribution(preset_lines):
    """Class shares stay within half a percentage point of the capture the
    preset imitates: 91.7 background / 1.6 normal / 6.5 bot / 0.2 C&C."""
    records = [parse_line(line, i + 1) for i, line in enumerate(preset_lines)]
    dist = label_distribution(FlowTable.from_records(records))
    assert dist.percentages["background"] == pytest.approx(91.7, abs=0.5)
    assert dist.percentages["normal"] == pytest.approx(1.6, abs=0.5)
    assert dist.percentages["botnet"] == pytest.approx(6.5, abs=0.5)
    assert dist.percentages["cnc"] == pytest.approx(0.2, abs=0.5)


def test_preset_cnc_burst_is_confined(preset_lines):
    """The beacon burst stays inside its configured activity span."""
    records = [parse_line(line, i + 1) for i, line in enumerate(preset_lines)]
    t0 = min(r.start_time_us for r in records)
    cnc_times = [(r.start_time_us - t0) / 1e6 for r in records
                 if classify_label(r.label_raw) == LabelClass.CNC]
    assert cnc_times, "preset must emit C&C traffic"
    assert min(cnc_times) >= 600.0 - 60.0
    assert max(cnc_times) < 780.0 + 60.0


def test_hard_mode_reshapes_bot_traffic():
    easy = preset_scenario9(seed=0)
    hard = preset_scenario9(seed=0, hard=True)
    assert hard.botnet.n_sources == 21
    assert hard.botnet.dur_dist == hard.background.dur_dist
    assert hard.botnet.bpp_dist == hard.background.bpp_dist
    assert hard.botnet.label == easy.botnet.label, "labels keep the classes"
    assert hard.cnc.active_s is None, "no burst signature in hard mode"
    assert easy.botnet.dur_dist != easy.background.dur_dist


def test_hard_mode_mixture_still_matches():
    lines = synthesize(preset_scenario9(seed=42, hard=True))
    records = [parse_line(line, i + 1) for i, line in enumerate(lines)]
    dist = label_distribution(FlowTable.from_records(records))
    assert dist.percentages["botnet"] == pytest.approx(6.5, abs=0.7)
    assert dist.percentages["background"] == pytest.approx(91.7, abs=0.7)


def test_profile_validation():
    with pytest.raises(BadConfig):
        ClassProfile(n_sources=-1, rate_per_s=0.1, dports=(80,),
                     label="x", src_prefix="10.0", **PROFILE_KW)
    with pytest.raises(BadConfig):
        ClassProfile(n_sources=1, rate_per_s=0.0, dports=(80,),
                     label="x", src_prefix="10.0", **PROFILE_KW)
    with pytest.raises(BadConfig):
        ClassProfile(n_sources=1, rate_per_s=0.1, dports=(80,),
                     label="x", src_prefix="10.0",
                     dur_dist=("weibull", 1.0), pkts_p=0.2,
                     bpp_dist=("normal", 100.0, 10.0),
                     protos=("tcp",), proto_weights=(1.0,))
    with pytest.raises(BadConfig):
        ClassProfile(n_sources=1, rate_per_s=0.1, dports=(80,),
                     label="x", src_prefix="10.0",
                     dur_dist=("exp", 5.0), pkts_p=0.0,
                     bpp_dist=("normal", 100.0, 10.0),
                     protos=("tcp",), proto_weights=(1.0,))
    with pytest.raises(BadConfig):
        ClassProfile(n_sources=1, rate_per_s=0.1, dports=(80,),
                     label="x", src_prefix="10.0",
                     active_s=(-5.0, 10.0), **PROFILE_KW)
    for rate in (math.nan, math.inf):
        with pytest.raises(BadConfig, match="finite"):
            ClassProfile(n_sources=1, rate_per_s=rate, dports=(80,),
                         label="x", src_prefix="10.0", **PROFILE_KW)
    with pytest.raises(BadConfig):
        ClassProfile(n_sources=1, rate_per_s=0.1, dports=(80,),
                     label="x", src_prefix="10.0",
                     active_s=(0.0, math.nan), **PROFILE_KW)


@pytest.mark.parametrize("prefix,n_sources,ok", [
    ("147.32.85", 250, True),
    ("147.32.85", 251, False),
    ("10.0", 250 * 256, True),
    ("10.0", 250 * 256 + 1, False),
    ("10", 1, False),
    ("10.0.0.0", 1, False),
    ("10.", 1, False),
])
def test_source_addresses_are_never_reused(prefix, n_sources, ok):
    """A profile whose prefix cannot give every source its own address is
    rejected, not generated with repeated addresses."""
    def make():
        return ClassProfile(n_sources=n_sources, rate_per_s=0.1, dports=(80,),
                            label="x", src_prefix=prefix, **PROFILE_KW)
    if ok:
        profile = make()
        addrs = {synth._source_address(profile, i) for i in range(n_sources)}
        assert len(addrs) == n_sources
    else:
        with pytest.raises(BadConfig, match="src_prefix|reuse"):
            make()


def test_config_validation():
    base = tiny_config()
    for duration in (0.0, math.nan, math.inf):
        with pytest.raises(BadConfig):
            SynthConfig(duration_s=duration, background=base.background,
                        normal=base.normal, botnet=base.botnet, cnc=base.cnc)
    empty = replace(base.background, n_sources=0)
    with pytest.raises(BadConfig):
        SynthConfig(duration_s=60.0, background=empty,
                    normal=replace(base.normal, n_sources=0),
                    botnet=replace(base.botnet, n_sources=0),
                    cnc=replace(base.cnc, n_sources=0))


def test_empty_class_allowed():
    cfg = SynthConfig(
        duration_s=300.0, background=tiny_config().background,
        normal=replace(tiny_config().normal, n_sources=0),
        botnet=tiny_config().botnet, cnc=tiny_config().cnc)
    lines = synthesize(cfg)
    records = [parse_line(line, i + 1) for i, line in enumerate(lines)]
    assert all(r.label_class != LabelClass.NORMAL for r in records)


# ------------------------------------------------- per-row reference generator
# The generator as it was written one row at a time: every row formatted
# from numpy scalars and the (time, address, index, line) tuples sorted at
# the end. The column-wise generator must give exactly its lines.

def _reference_source_rows(rng, profile, src_addr, duration):
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


def _reference_synthesize(cfg):
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for profile in cfg.profiles():
        for i in range(profile.n_sources):
            src = f"{profile.src_prefix}.{i // 250}.{i % 250 + 1}" \
                if profile.src_prefix.count(".") == 1 \
                else f"{profile.src_prefix}.{i % 250 + 1}"
            rows.extend(_reference_source_rows(rng, profile, src,
                                               cfg.duration_s))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [r[3] for r in rows]


def _shared_prefix_config():
    """Two classes under one prefix, fast enough that flows of equal
    addresses meet on the same microsecond."""
    base = tiny_config(seed=5)
    return SynthConfig(
        duration_s=100.0,
        background=replace(base.background, n_sources=0),
        normal=replace(base.normal, n_sources=2, rate_per_s=150.0,
                       src_prefix="147.32.85"),
        botnet=replace(base.botnet, n_sources=2, rate_per_s=150.0),
        cnc=replace(base.cnc, n_sources=0), seed=5)


ORACLE_CONFIGS = {
    **{f"preset-seed{seed}{'-hard' if hard else ''}":
       preset_scenario9(seed=seed, hard=hard)
       for seed in (0, 1, 42) for hard in (False, True)},
    # 450 s never reaches the C&C burst; 720 s clips it mid-way
    **{f"preset-{d:.0f}s": replace(preset_scenario9(seed=3), duration_s=d)
       for d in (450.0, 720.0, 5400.0)},
    "empty-dports": replace(tiny_config(seed=4), botnet=replace(
        tiny_config().botnet, dports=())),
    "unpopulated-class": replace(tiny_config(seed=8), normal=replace(
        tiny_config().normal, n_sources=0)),
    "tiny": tiny_config(),
    "shared-prefix": _shared_prefix_config(),
}


def force_shares(monkeypatch, shares):
    """Make write_synth cut a capture of at least 100 flows per share into
    shares row ranges, and count the children it forks; returns a reader
    of the count."""
    monkeypatch.setattr(_util, "usable_cores", lambda: shares)
    monkeypatch.setattr(synth, "_CHUNK", 100)
    real = _util.forked
    children = []

    def counting(tasks):
        children.append(len(tasks))
        return real(tasks)

    monkeypatch.setattr(_util, "forked", counting)
    return lambda: sum(children)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_matches_per_row_reference(tmp_path, monkeypatch, name):
    """synthesize gives the per-row generator's lines, and write_synth
    their bytes however many forked shares format them."""
    cfg = ORACLE_CONFIGS[name]
    lines = _reference_synthesize(cfg)
    assert synthesize(cfg) == lines
    text = ("\n".join([HEADER_LINE] + lines) + "\n").encode("utf-8")
    for shares in (1, 2, 3) if hasattr(os, "fork") else (1,):
        with monkeypatch.context() as patch:
            children = force_shares(patch, shares)
            path = tmp_path / f"flows-{shares}.csv"
            assert write_synth(str(path), cfg) == len(lines)
            assert children() == shares - 1
        assert path.read_bytes() == text


def test_shared_prefix_config_meets_on_a_microsecond():
    """The shared-prefix oracle case exercises the tie: some flows of two
    sources with one address start on the same microsecond."""
    lines = synthesize(_shared_prefix_config())
    keys = [tuple(line.split(",")[i] for i in (0, 3)) for line in lines]
    assert len(set(keys)) < len(keys)


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_write_is_the_joined_lines(tmp_path, monkeypatch, chunk):
    cfg = tiny_config(seed=11)
    lines = synthesize(cfg)
    monkeypatch.setattr(synth, "_CHUNK", chunk)
    path = tmp_path / "flows.csv"
    assert write_synth(str(path), cfg) == len(lines)
    assert path.read_bytes() == ("\n".join([HEADER_LINE] + lines)
                                 + "\n").encode("utf-8")


def test_capture_without_flows_writes_the_header_only(tmp_path):
    """The only populated class is active past the end of the capture."""
    base = tiny_config()
    cfg = SynthConfig(
        duration_s=300.0,
        background=replace(base.background, n_sources=0),
        normal=replace(base.normal, n_sources=0),
        botnet=replace(base.botnet, n_sources=0),
        cnc=replace(base.cnc, active_s=(400.0, 60.0)))
    path = tmp_path / "flows.csv"
    assert synthesize(cfg) == []
    assert write_synth(str(path), cfg) == 0
    assert path.read_text(encoding="utf-8") == HEADER_LINE + "\n"


def failing_share(monkeypatch, failures):
    """Patch the row-range formatter to raise failures[lo], an exception
    type, for the range that starts at row lo."""
    real = synth._write_lines

    def write(rows, fh, lo, hi):
        if lo in failures:
            raise failures[lo](f"rows {lo}-{hi - 1}")
        real(rows, fh, lo, hi)

    monkeypatch.setattr(synth, "_write_lines", write)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("failures,error", [
    ({2: ZeroDivisionError}, ZeroDivisionError),
    ({0: OverflowError}, OverflowError),
    ({0: OverflowError, 2: ZeroDivisionError}, OverflowError),
    ({1: KeyError, 2: ZeroDivisionError}, KeyError),
], ids=["child", "this-range", "this-range-first", "first-child-first"])
def test_failed_forked_synth_write_raises_the_earliest_range(
        tmp_path, monkeypatch, failures, error):
    """Three shares; failures maps a share's index to the exception its
    range raises. The earliest failed range in file order decides the
    error, with its own type; the previous file stays, and no temp or part
    file, and no child, is left."""
    cfg = tiny_config(seed=12)
    rows = len(synthesize(cfg))
    children = force_shares(monkeypatch, 3)
    failing_share(monkeypatch, {rows * share // 3: exc
                                for share, exc in failures.items()})
    path = tmp_path / "flows.csv"
    path.write_bytes(b"previous\n")
    with pytest.raises(error):
        write_synth(str(path), cfg)
    assert children() == 2
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["flows.csv"]
    assert_no_child_left()


@needs_fork
def test_forked_synth_writer_that_sends_nothing_is_a_child_process_error(
        tmp_path, monkeypatch):
    cfg = tiny_config(seed=12)
    rows = len(synthesize(cfg))
    force_shares(monkeypatch, 2)
    real = synth._write_lines
    monkeypatch.setattr(synth, "_write_lines", lambda r, fh, lo, hi: (
        os._exit(3) if lo else real(r, fh, lo, hi)))
    path = tmp_path / "flows.csv"
    with pytest.raises(ChildProcessError,
                       match=f"synthetic-capture writer of rows "
                             f"{rows // 2}-{rows - 1} ended"):
        write_synth(str(path), cfg)
    assert os.listdir(tmp_path) == []
    assert_no_child_left()
