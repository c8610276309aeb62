"""Flow-file parsing, label classification, and ingest bookkeeping."""
import math

import pytest

from flowsift import (
    FlowRecord,
    IngestStats,
    LabelClass,
    MalformedRow,
    classify_label,
    label_distribution,
    parse_line,
    parse_timestamp,
    read_flows,
    render_line,
    render_timestamp,
)

BOT_ROW = ("2011/08/16 10:01:46.972101,3550.182373,udp,147.32.84.165,1025,"
           "  <->,147.32.80.9,53,CON,0,0,12,875,413,flow=From-Botnet-V42-UDP-DNS")


def test_parse_line_known_row():
    rec = parse_line(BOT_ROW, line_no=1)
    assert rec.dur == 3550.182373
    assert rec.proto == "udp"
    assert rec.src_addr == "147.32.84.165"
    assert rec.sport == 1025
    assert rec.dir == "<->", "direction padding should be trimmed"
    assert rec.dst_addr == "147.32.80.9"
    assert rec.dport == 53
    assert rec.state == "CON"
    assert rec.s_tos == 0 and rec.d_tos == 0
    assert rec.tot_pkts == 12
    assert rec.tot_bytes == 875
    assert rec.src_bytes == 413
    assert rec.label_class is LabelClass.BOTNET


def test_parse_line_hex_port():
    row = BOT_ROW.replace(",1025,", ",0x0303,")
    assert parse_line(row, 1).sport == 771


def test_parse_line_empty_optional_fields():
    fields = BOT_ROW.split(",")
    fields[4] = ""   # sport
    fields[7] = ""   # dport
    fields[9] = ""   # sTos
    fields[10] = ""  # dTos
    rec = parse_line(",".join(fields), 1)
    assert rec.sport is None and rec.dport is None
    assert rec.s_tos is None and rec.d_tos is None


def test_parse_line_tos_float_rendering():
    row = BOT_ROW.replace(",CON,0,0,", ",CON,0.0,0,")
    assert parse_line(row, 1).s_tos == 0


def test_parse_line_field_count():
    short = ",".join(BOT_ROW.split(",")[:14])
    with pytest.raises(MalformedRow) as err:
        parse_line(short, 7)
    assert err.value.line_no == 7


@pytest.mark.parametrize("mutate, what", [
    (lambda f: f.__setitem__(0, "16/08/2011 10:01:46.972101"), "timestamp"),
    (lambda f: f.__setitem__(1, "-1.0"), "negative duration"),
    (lambda f: f.__setitem__(1, "nan"), "NaN duration"),
    (lambda f: f.__setitem__(1, "inf"), "infinite duration"),
    (lambda f: f.__setitem__(1, "1e400"), "duration overflowing to inf"),
    (lambda f: f.__setitem__(4, "99999"), "port range"),
    (lambda f: f.__setitem__(7, "0xz"), "bad hex port"),
    (lambda f: f.__setitem__(9, "300"), "tos range"),
    (lambda f: f.__setitem__(11, "twelve"), "non-numeric counter"),
    (lambda f: f.__setitem__(12, "-875"), "negative counter"),
])
def test_parse_line_rejections(mutate, what):
    fields = BOT_ROW.split(",")
    mutate(fields)
    with pytest.raises(MalformedRow):
        parse_line(",".join(fields), 1)
    assert what  # parametrize label only


def test_classify_label_examples():
    assert classify_label("flow=From-Botnet-V42-TCP-CC") is LabelClass.CNC
    assert classify_label("flow=To-Normal-V42-UDP") is LabelClass.NORMAL
    assert classify_label("garbage") is LabelClass.BACKGROUND
    assert classify_label("flow=Background-TCP") is LabelClass.BACKGROUND
    assert classify_label("flow=From-Botnet-V42-UDP-DNS") is LabelClass.BOTNET


def test_classify_label_order_and_case():
    """botnet+cc wins over botnet; matching is case-insensitive."""
    assert classify_label("FLOW=FROM-BOTNET-CC") is LabelClass.CNC
    assert classify_label("Flow=From-BOTNET-attempt") is LabelClass.BOTNET
    # "cc" without "botnet" is not C&C traffic
    assert classify_label("flow=Background-cc-thing") is LabelClass.BACKGROUND


def test_classify_label_only_cc_marks_cnc():
    label = "flow=From-Botnet-V42-TCP-Custom-C2"
    assert classify_label(label) is LabelClass.BOTNET


def test_classify_is_total_over_arbitrary_strings():
    for raw in ("", " ", "1234", "flow=", "\tBotNeT\n", "normal background"):
        assert isinstance(classify_label(raw), LabelClass)


def test_timestamp_round_trip():
    token = "2011/08/16 10:01:46.972101"
    assert render_timestamp(parse_timestamp(token)) == token


def test_read_flows_skip_policy(tmp_path):
    """3-row fixture with 1 malformed row: skip parses 2, counts 1."""
    path = tmp_path / "flows.csv"
    good2 = BOT_ROW.replace("147.32.84.165", "147.32.84.166")
    path.write_text("\n".join([BOT_ROW, "not,a,flow", good2]) + "\n")
    records, stats = read_flows(path, on_error="skip")
    assert len(records) == 2
    assert stats.total_rows == 3
    assert stats.parsed == 2
    assert stats.skipped == 1


def test_read_flows_abort_policy(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(BOT_ROW + "\nnot,a,flow\n")
    with pytest.raises(MalformedRow) as err:
        read_flows(path, on_error="abort")
    assert err.value.line_no == 2


def test_read_flows_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    records, stats = read_flows(path)
    assert records == []
    assert stats.total_rows == 0 and stats.parsed == 0 and stats.skipped == 0


def test_read_flows_header_only(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,"
                    "State,sTos,dTos,TotPkts,TotBytes,SrcBytes,Label\n")
    records, stats = read_flows(path)
    assert records == []
    assert stats.total_rows == 0


def test_read_flows_header_detection_is_first_line_only(tmp_path):
    """A data row that merely starts late in the file is never header-skipped."""
    path = tmp_path / "flows.csv"
    path.write_text(BOT_ROW + "\n" + BOT_ROW + "\n")
    records, _ = read_flows(path)
    assert len(records) == 2


def test_read_flows_counts_unrecognized_and_src_bytes(tmp_path):
    fields = BOT_ROW.split(",")
    fields[14] = "mystery-label"
    unrecognized = ",".join(fields)
    fields = BOT_ROW.split(",")
    fields[13] = "9999"  # SrcBytes > TotBytes, kept but tallied
    oversize = ",".join(fields)
    path = tmp_path / "flows.csv"
    path.write_text("\n".join([BOT_ROW, unrecognized, oversize]) + "\n")
    records, stats = read_flows(path)
    assert len(records) == 3, "suspicious rows are kept"
    assert stats.unrecognized_labels == 1
    assert stats.src_bytes_over_total == 1
    assert records[1].label_class is LabelClass.BACKGROUND


def test_round_trip_canonical_rows(tmp_path):
    """Parsing a canonical row and re-rendering reproduces it token for token."""
    import random
    rng = random.Random(11)
    protos = ["tcp", "udp", "icmp"]
    labels = ["flow=Background-TCP-Established", "flow=To-Normal-V42-HTTP",
              "flow=From-Botnet-V42-TCP-Attempt", "flow=From-Botnet-V42-TCP-CC"]
    for i in range(200):
        ts = render_timestamp(1313488800000000 + rng.randrange(10**9))
        dur = f"{rng.uniform(0, 4000):.6f}"
        sport = str(rng.randrange(0, 65536))
        dport = str(rng.randrange(0, 65536))
        pkts = rng.randrange(0, 10**6)
        tot = rng.randrange(0, 10**9)
        src = rng.randrange(0, tot + 1)
        line = ",".join([
            ts, dur, rng.choice(protos), "147.32.84.165", sport, "<->",
            "147.32.80.9", dport, "CON", "0", "", str(pkts), str(tot),
            str(src), rng.choice(labels)])
        rec = parse_line(line, i + 1)
        assert render_line(rec) == line, f"round trip broke on: {line}"


def test_label_distribution_planted_mixture():
    """65 Botnet / 16 Normal / 2 CnC / 917 Background of 1000."""
    def mk(cls):
        return FlowRecord(
            start_time_us=0, dur=0.0, proto="tcp", src_addr="10.0.0.1",
            sport=1, dir="->", dst_addr="10.0.0.2", dport=2, state="S",
            s_tos=0, d_tos=0, tot_pkts=1, tot_bytes=60, src_bytes=30,
            label_raw="x", label_class=cls)

    flows = ([mk(LabelClass.BOTNET)] * 65 + [mk(LabelClass.NORMAL)] * 16
             + [mk(LabelClass.CNC)] * 2 + [mk(LabelClass.BACKGROUND)] * 917)
    dist = label_distribution(flows)
    assert dist.total == 1000
    assert dist.counts == {"background": 917, "normal": 16,
                           "botnet": 65, "cnc": 2}
    assert dist.percentages["botnet"] == pytest.approx(6.5)
    assert dist.percentages["normal"] == pytest.approx(1.6)
    assert dist.percentages["cnc"] == pytest.approx(0.2)
    assert dist.percentages["background"] == pytest.approx(91.7)
    assert math.isclose(sum(dist.percentages.values()), 100.0, abs_tol=0.01)


def test_label_distribution_empty_stream():
    dist = label_distribution([])
    assert dist.total == 0
    assert all(v == 0 for v in dist.counts.values())
    assert all(v == 0.0 for v in dist.percentages.values())


def test_ingest_stats_merge_is_associative():
    a = IngestStats(total_rows=3, parsed=2, skipped=1, unrecognized_labels=1,
                    src_bytes_over_total=0)
    b = IngestStats(total_rows=5, parsed=5, skipped=0, unrecognized_labels=0,
                    src_bytes_over_total=2)
    c = IngestStats(total_rows=1, parsed=1, skipped=0, unrecognized_labels=0,
                    src_bytes_over_total=0)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert left.total_rows == 9 and left.parsed == 8 and left.skipped == 1

