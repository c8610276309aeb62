"""Synthetic capture generator: determinism, class mixture, and shape."""
from dataclasses import replace

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
from flowsift.ingest import HEADER_LINE

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
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_different_seed_different_bytes(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_synth(p1, tiny_config(seed=1))
    write_synth(p2, tiny_config(seed=2))
    assert open(p1, "rb").read() != open(p2, "rb").read()


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
    first_line = open(path).readline().rstrip("\n")
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


def test_config_validation():
    base = tiny_config()
    with pytest.raises(BadConfig):
        SynthConfig(duration_s=0.0, background=base.background,
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
