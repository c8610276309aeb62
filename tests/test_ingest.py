"""Flow-file parsing, label classification, and ingest bookkeeping."""
import io
import itertools
import math
import os
import pickle
import random
import threading
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from flowsift import (
    FlowRecord,
    FlowTable,
    IngestStats,
    LabelClass,
    MalformedRow,
    SplitSpec,
    WindowConfig,
    build_matrix,
    classify_label,
    fit,
    label_distribution,
    parse_line,
    parse_timestamp,
    predict_proba,
    preset_scenario9,
    read_flows,
    read_matrix_csv,
    render_line,
    render_timestamp,
    run_single,
    write_matrix_csv,
    write_synth,
)
from flowsift import _util, ingest, logreg
from flowsift._util import naming_undecodable
from flowsift.cli import main
from flowsift.ingest import HEADER_LINE, TIMESTAMP_FORMAT

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
    (lambda f: f.__setitem__(12, str(2 ** 64)), "counter above 64 bits"),
    (lambda f: f.__setitem__(13, "1" + "0" * 400), "counter beyond float64"),
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
    table, stats = read_flows(path, on_error="skip")
    assert len(table) == 2
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
    table, stats = read_flows(path)
    assert len(table) == 0
    assert stats.total_rows == 0 and stats.parsed == 0 and stats.skipped == 0


def test_read_flows_header_only(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,"
                    "State,sTos,dTos,TotPkts,TotBytes,SrcBytes,Label\n")
    table, stats = read_flows(path)
    assert len(table) == 0
    assert stats.total_rows == 0


def test_read_flows_header_detection_is_first_line_only(tmp_path):
    """A data row that merely starts late in the file is never header-skipped."""
    path = tmp_path / "flows.csv"
    path.write_text(BOT_ROW + "\n" + BOT_ROW + "\n")
    table, _ = read_flows(path)
    assert len(table) == 2


def test_read_flows_counts_unrecognized_and_src_bytes(tmp_path):
    fields = BOT_ROW.split(",")
    fields[14] = "mystery-label"
    unrecognized = ",".join(fields)
    fields = BOT_ROW.split(",")
    fields[13] = "9999"  # SrcBytes > TotBytes, kept but tallied
    oversize = ",".join(fields)
    path = tmp_path / "flows.csv"
    path.write_text("\n".join([BOT_ROW, unrecognized, oversize]) + "\n")
    table, stats = read_flows(path)
    assert len(table) == 3, "suspicious rows are kept"
    assert stats.unrecognized_labels == 1
    assert stats.src_bytes_over_total == 1
    assert table.label_class[1] == LabelClass.BACKGROUND


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
    dist = label_distribution(FlowTable.from_records(flows))
    assert dist.total == 1000
    assert dist.counts == {"background": 917, "normal": 16,
                           "botnet": 65, "cnc": 2}
    assert dist.percentages["botnet"] == pytest.approx(6.5)
    assert dist.percentages["normal"] == pytest.approx(1.6)
    assert dist.percentages["cnc"] == pytest.approx(0.2)
    assert dist.percentages["background"] == pytest.approx(91.7)
    assert math.isclose(sum(dist.percentages.values()), 100.0, abs_tol=0.01)


def test_label_distribution_empty_stream():
    dist = label_distribution(FlowTable.from_records([]))
    assert dist.total == 0
    assert all(v == 0 for v in dist.counts.values())
    assert all(v == 0.0 for v in dist.percentages.values())



# Tokens strptime accepts although they are not the canonical spelling, and
# tokens it rejects; parse_timestamp must agree with it on every one.
ODD_TIMESTAMPS = [
    "2011/8/6 9:05:03.5",                    # one-digit fields, short fraction
    "\u0662\u0660\u0661\u0661/08/16 10:01:46.972101",   # Arabic-Indic year
    "2011/08/16 10:01:4\u0666.972101",        # Arabic-Indic second digit
    "2011/08/16  10:01:46.972101",           # two spaces
    "2011/08/16 10:01:46.97210",             # five-digit fraction
    "2012/02/29 00:00:00.000000",            # leap day
    "1969/12/31 23:59:59.999999",            # before the epoch
    "0001/01/01 00:00:00.000000",
    "9999/12/31 23:59:59.999999",
    "2011/+8/16 10:01:46.972101",
    "2011/08/16 24:00:00.000000",
    "2011/08/16 10:60:00.000000",
    "2011/08/16 10:01:60.000000",
    "2011/08/16 10:01:61.000000",
    "2011/02/30 10:01:46.972101",
    "2011/02/29 10:01:46.972101",
    "2011/13/01 10:01:46.972101",
    "2011/00/16 10:01:46.972101",
    "2011/08/00 10:01:46.972101",
    "0000/08/16 10:01:46.972101",
    "2011/08/16 10:01:46",
    "2011/08/16 10:01:46.9721011",
    "2011-08-16 10:01:46.972101",
    "2011/08/16T10:01:46.972101",
    "",
]


def _strptime_us(token):
    dt = datetime.strptime(token, TIMESTAMP_FORMAT)
    return (dt - datetime(1970, 1, 1)) // timedelta(microseconds=1)


def _assert_matches_strptime(token):
    try:
        want = _strptime_us(token)
    except ValueError:
        for _ in range(2):      # the second call may hit a cache
            with pytest.raises(ValueError):
                parse_timestamp(token)
    else:
        assert [parse_timestamp(token) for _ in range(2)] == [want] * 2, token


def test_parse_timestamp_agrees_with_strptime():
    for token in ODD_TIMESTAMPS:
        _assert_matches_strptime(token)
    rng = random.Random(5)
    noise = "0123456789/:. +-x\u0663"
    for _ in range(3000):
        token = render_timestamp(rng.randrange(-10**16, 10**17))
        if rng.random() < 0.5:
            i = rng.randrange(len(token))
            token = token[:i] + rng.choice(noise) + token[i + 1:]
        _assert_matches_strptime(token)


def _mixed_fixture():
    """Header, canonical and odd-but-valid rows, and rows every validator
    rejects, with CRLF, LF and one lone-CR ending and blank lines between
    them."""
    def row(**change):
        fields = BOT_ROW.split(",")
        for i, value in change.items():
            fields[int(i[1:])] = value
        return ",".join(fields)

    rows = [
        BOT_ROW,
        row(f3="147.32.84.166", f6="10.0.0.10", f14="flow=To-Normal-V42-HTTP"),
        row(f4="0x0303", f7="0X1bB"),                     # hex ports
        " " + row(f2=" tcp ", f5="   ->  ", f3=" 10.0.0.1 ") + "  ",
        row(f4="", f7="", f9="", f10=""),                # empty optionals
        row(f9="0.0", f10="4.0"),                        # ToS as float
        row(f0="2011/8/6 9:05:03.5"),
        row(f0="\u0662\u0660\u0661\u0661/08/16 10:01:46.972101"),
        row(f0="2011/+8/16 10:01:46.972101"),
        row(f0="2011/08/16 24:00:00.000000"),
        row(f0="2011/08/16 10:01:60.000000"),
        row(f0="2011/02/30 10:01:46.972101"),
        row(f1="nan"),
        row(f1="inf"),
        row(f1="-0.5"),
        row(f4="65536"),
        row(f7="-1"),
        row(f9="256"),
        row(f10="1.5"),
        row(f11="12.0"),
        ",".join(BOT_ROW.split(",")[:14]),
        BOT_ROW + ",extra",
        row(f13="9999", f14="flow=From-Botnet-V42-TCP-CC"),  # SrcBytes > Tot
        row(f14="mystery-label"),
        # SrcBytes > TotBytes, though both round to one float64
        row(f12=str(2 ** 53), f13=str(2 ** 53 + 1)),
        row(f12=str(2 ** 64 - 1), f13="0"),               # largest counter
        # counters wider than 64 bits, one beyond the float64 range
        row(f12="123456789012345678900", f13="123456789012345678901"),
        row(f11=str(2 ** 64)),
        row(f12="1" + "0" * 400),
        # padded numbers, one padded with a separator strip removes and
        # int does not
        row(f1=" 2.5 ", f4="\t1025", f11=" 12", f13="\x1c413",
            f14=" flow=From-Botnet-V42-TCP-CC "),
        row(f0="1969/12/31 23:59:59.000001", f3="b", f6="a"),
    ]
    lines = ["StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,"
             "sTos,dTos,TotPkts,TotBytes,SrcBytes,Label"]
    for i, r in enumerate(rows):
        lines.append(r)
        if i % 7 == 3:
            lines.append("   ")
    return "".join(line + ("\r" if i == 2 else "\r\n" if i % 2 else "\n")
                   for i, line in enumerate(lines))


def _oracle(path):
    """Per-row parse_line over the file as read_flows sees it: accepted
    records, stats and the first failing line number."""
    records, stats, first_bad = [], IngestStats(), None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if (line_no == 1 and line.startswith("StartTime")) \
                    or not line.strip():
                continue
            stats.total_rows += 1
            try:
                rec = parse_line(line, line_no)
            except MalformedRow:
                stats.skipped += 1
                first_bad = first_bad or line_no
                continue
            stats.parsed += 1
            stats.src_bytes_over_total += rec.src_bytes > rec.tot_bytes
            records.append(rec)
    return records, stats, first_bad


def _assert_same_table(got, want):
    assert len(got) == len(want)
    for name in ("start_time_us", "magnitudes", "src_code", "dst_code",
                 "addresses", "label_class"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_read_flows_matches_parse_line_oracle(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_bytes(_mixed_fixture().encode("utf-8"))
    records, want_stats, first_bad = _oracle(path)
    assert 0 < len(records) < want_stats.total_rows, "fixture mixes both"
    want_stats.unrecognized_labels = 1          # "mystery-label"

    table, stats = read_flows(path, on_error="skip")
    assert stats == want_stats
    _assert_same_table(table, FlowTable.from_records(records))
    assert [tuple(row) for row in table] == [
        (r.start_time_us, r.dur, float(r.tot_pkts), float(r.tot_bytes),
         float(r.src_bytes), r.src_addr, r.dst_addr, r.label_class)
        for r in records]

    with pytest.raises(MalformedRow) as err:
        read_flows(path, on_error="abort")
    assert err.value.line_no == first_bad


def _force_ranges(monkeypatch, path, n):
    """Make read_flows cut path into n ranges, whatever the host's cores."""
    size = os.path.getsize(path)
    monkeypatch.setattr(_util, "usable_cores", lambda: n)
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", size // n)
    with open(path, "rb") as fh:
        assert len(ingest._range_starts(fh)) == n


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_reads_like_oracle(path, plain=None):
    """Both policies of read_flows agree with the parse_line oracle and
    leave no child process behind. The oracle reads plain instead, when
    given: path's text without its byte-order mark."""
    records, want_stats, first_bad = _oracle(plain or path)
    want_stats.unrecognized_labels = 1          # "mystery-label"
    table, stats = read_flows(path, on_error="skip")
    _assert_no_child_left()
    assert stats == want_stats
    _assert_same_table(table, FlowTable.from_records(records))
    with pytest.raises(MalformedRow) as err:
        read_flows(path, on_error="abort")
    _assert_no_child_left()
    assert err.value.line_no == first_bad


@pytest.mark.parametrize("ranges", range(1, 8))
def test_read_flows_is_the_same_at_any_range_count(tmp_path, monkeypatch,
                                                   ranges):
    path = tmp_path / "mixed.csv"
    path.write_bytes(_mixed_fixture().encode("utf-8"))
    _force_ranges(monkeypatch, path, ranges)
    _assert_reads_like_oracle(path)


@pytest.mark.parametrize("landing", [
    ("header",), ("blank",), ("malformed",), ("header", "blank", "malformed"),
    ("blank", "malformed", "last")])
def test_read_flows_cut_after_any_kind_of_line(tmp_path, monkeypatch,
                                              landing):
    """A cut target inside the header, a blank line, a malformed row or the
    last line starts the next range just after that line; the read is the
    oracle's all the same."""
    data = _mixed_fixture().encode("utf-8")
    path = tmp_path / "mixed.csv"
    path.write_bytes(data)
    lines = data.splitlines(keepends=True)
    ends = list(itertools.accumulate(map(len, lines)))
    index = {"header": 0,
             "blank": next(i for i, l in enumerate(lines) if not l.strip()),
             "malformed": next(i for i, l in enumerate(lines)
                               if b"2011/+8/16" in l),
             "last": len(lines) - 1}
    targets = [ends[index[k]] - 2 for k in landing]
    monkeypatch.setattr(ingest, "_cut_targets", lambda size: targets)
    with open(path, "rb") as fh:
        assert ingest._range_starts(fh) == [0, *sorted(
            ends[index[k]] for k in landing if k != "last")]
    _assert_reads_like_oracle(path)


BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("ranges", range(1, 8))
def test_read_flows_drops_a_leading_byte_order_mark(tmp_path, monkeypatch,
                                                    ranges):
    """A capture saved as UTF-8 with a byte-order mark reads as the same
    capture without one: its header is still a header."""
    plain = tmp_path / "mixed.csv"
    plain.write_bytes(_mixed_fixture().encode("utf-8"))
    path = tmp_path / "marked.csv"
    path.write_bytes(BOM + plain.read_bytes())
    _force_ranges(monkeypatch, path, ranges)
    _assert_reads_like_oracle(path, plain)


def test_byte_order_mark_before_a_headerless_first_row(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text(BOT_ROW + "\n" + BOT_ROW + "\n")
    path = tmp_path / "marked.csv"
    path.write_bytes(BOM + plain.read_bytes())
    table, stats = read_flows(path, on_error="abort")
    want_table, want_stats = read_flows(plain)
    assert stats == want_stats and stats.parsed == 2
    _assert_same_table(table, want_table)


@pytest.mark.parametrize("cut", [False, True], ids=["one-range", "cut-before"])
def test_byte_order_mark_on_a_later_line_is_malformed(tmp_path, monkeypatch,
                                                      cut):
    """Only line 1 may open with the mark, also when a range other than the
    first starts at the marked line."""
    data = "".join(line + "\n" for line in [
        HEADER_LINE, BOT_ROW, "\ufeff" + BOT_ROW, BOT_ROW]).encode("utf-8")
    path = tmp_path / "marked.csv"
    path.write_bytes(data)
    start = data.index(BOM)
    if cut:
        monkeypatch.setattr(ingest, "_cut_targets", lambda size: [start - 1])
        with open(path, "rb") as fh:
            assert ingest._range_starts(fh) == [0, start]
    table, stats = read_flows(path)
    assert (len(table), stats.total_rows, stats.skipped) == (2, 3, 1)
    with pytest.raises(MalformedRow) as err:
        read_flows(path, on_error="abort")
    assert err.value.line_no == 3
    _assert_no_child_left()


def _rows_file(path, n_rows, malformed=None, undecodable=None):
    """A header and n_rows flow rows, with a 14-field row and a Latin-1
    byte on the given 1-based lines."""
    lines = [HEADER_LINE.encode()]
    for line_no in range(2, n_rows + 2):
        row = BOT_ROW.replace("147.32.84.165", f"10.0.{line_no // 256}."
                              f"{line_no % 256}").encode()
        if line_no == malformed:
            row = row.rsplit(b",", 1)[0]
        if line_no == undecodable:
            row += b"\xe9"
        lines.append(row)
    path.write_bytes(b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("ranges", [1, 2, 3, 5])
def test_undecodable_line_in_any_range_names_file_and_line(
        tmp_path, monkeypatch, ranges):
    path = tmp_path / "latin1.csv"
    _rows_file(path, 60, undecodable=50)
    _force_ranges(monkeypatch, path, ranges)
    for on_error in ("skip", "abort"):
        with pytest.raises(UnicodeDecodeError) as err:
            read_flows(path, on_error=on_error)
        _assert_no_child_left()
        assert str(err.value).endswith(f"({path}, line 50)")


@pytest.mark.parametrize("ranges", [1, 3])
@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"])
def test_undecodable_line_reads_as_a_text_reader_names_it(
        tmp_path, monkeypatch, ranges, line_end):
    """read_flows numbers the line that does not decode as it reads, in
    any range; its error is the one _util.naming_undecodable gives for the
    file read whole as text."""
    path = tmp_path / "latin1.csv"
    _rows_file(path, 200, undecodable=150)
    path.write_bytes(path.read_bytes().replace(b"\n", line_end))
    _force_ranges(monkeypatch, path, ranges)
    with pytest.raises(UnicodeDecodeError) as err:
        read_flows(path)
    with pytest.raises(UnicodeDecodeError) as text:
        with naming_undecodable(str(path)), \
                open(path, "r", encoding="utf-8") as fh:
            fh.read()
    assert str(err.value) == str(text.value)
    assert str(err.value).endswith(f"({path}, line 150)")
    assert ((err.value.object, err.value.start, err.value.end)
            == (text.value.object, text.value.start, text.value.end))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_undecodable_line_on_a_pipe_keeps_its_line(tmp_path):
    """A pipe cannot be read again to find the bad line, so its error used
    to name no line and an offset within a decode block."""
    path = tmp_path / "latin1.csv"
    _rows_file(path, 200, undecodable=150)
    with pytest.raises(UnicodeDecodeError) as want:
        read_flows(path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, path.read_bytes())
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        with pytest.raises(UnicodeDecodeError) as got:
            read_flows(pipe)
    finally:
        os.close(read_end)
    assert str(got.value) == str(want.value).replace(str(path), pipe)
    assert str(got.value).endswith(f"({pipe}, line 150)")


@pytest.mark.parametrize("ranges", [1, 2, 3, 5])
@pytest.mark.parametrize("malformed, undecodable", [
    (5, 7), (7, 5), (5, 58), (58, 5), (30, 31), (31, 30)])
def test_abort_raises_whichever_bad_line_comes_first(
        tmp_path, monkeypatch, ranges, malformed, undecodable):
    """Both lines lie within the first 8 KiB, where the text reader used to
    raise the decode error for a malformed row above it."""
    path = tmp_path / "both.csv"
    _rows_file(path, 60, malformed=malformed, undecodable=undecodable)
    _force_ranges(monkeypatch, path, ranges)
    if malformed < undecodable:
        with pytest.raises(MalformedRow) as err:
            read_flows(path, on_error="abort")
        assert err.value.line_no == malformed
    else:
        with pytest.raises(UnicodeDecodeError) as err:
            read_flows(path, on_error="abort")
        assert str(err.value).endswith(f"line {undecodable})")
    _assert_no_child_left()


@pytest.mark.parametrize("sent,message", [
    ("nothing", "ended without sending its rows"),
    ("part of a column", "ended mid-column")])
def test_range_parser_that_dies_is_a_child_process_error(
        tmp_path, monkeypatch, capsys, sent, message):
    """A range parser that exits before it sends anything, or after its
    pickled header and half its first column, makes read_flows raise
    ChildProcessError and featurize exit 2 without writing its output; no
    child is left."""
    path = tmp_path / "mixed.csv"
    path.write_bytes(_mixed_fixture().encode("utf-8"))
    _force_ranges(monkeypatch, path, 2)
    real = ingest._serve_range

    def serve(path, lo, hi, abort, sink):
        if sent == "part of a column":
            reply = io.BytesIO()
            real(path, lo, hi, abort, reply)
            reply.seek(0)
            sizes = pickle.load(reply)[-1]
            sink.write(reply.getvalue()[:reply.tell() + sizes[0] // 2])
            sink.flush()
        os._exit(3)

    monkeypatch.setattr(ingest, "_serve_range", serve)
    with pytest.raises(ChildProcessError,
                       match=f"^an ingest range parser {message}$"):
        read_flows(path)
    _assert_no_child_left()
    out = tmp_path / "features.csv"
    assert main(["featurize", str(path), "--width", "60", "--stride", "60",
                 "-o", str(out)]) == 2
    assert f"an ingest range parser {message}" in capsys.readouterr().err
    assert not out.exists()
    _assert_no_child_left()


def test_read_flows_stays_in_process_without_fork_or_beside_a_thread(
        tmp_path, monkeypatch):
    path = tmp_path / "mixed.csv"
    path.write_bytes(_mixed_fixture().encode("utf-8"))
    want, want_stats = read_flows(path)
    _force_ranges(monkeypatch, path, 4)

    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        table, stats = read_flows(path)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    _assert_same_table(table, want)
    assert stats == want_stats
    monkeypatch.delattr(os, "fork")
    table, stats = read_flows(path)
    _assert_same_table(table, want)
    assert stats == want_stats


def test_flow_table_columns_are_read_only():
    table = FlowTable.from_records([parse_line(BOT_ROW, 1)])
    with pytest.raises(ValueError):
        table.magnitudes[0, 0] = 1.0
    with pytest.raises(ValueError):
        table.label_class[0] = 0


@pytest.fixture(scope="module")
def capture_700s(tmp_path_factory):
    path = tmp_path_factory.mktemp("capture") / "capture.csv"
    write_synth(str(path), replace(preset_scenario9(seed=3), duration_s=700.0))
    return path


def test_read_flows_builds_no_flow_record(capture_700s, monkeypatch):
    """The reader and build_matrix work on columns: neither constructs a
    FlowRecord, and the class counts equal a per-row count."""
    path = capture_700s

    def refuse(self, *args, **kwargs):
        raise AssertionError("FlowRecord built on the columnar path")

    with monkeypatch.context() as patch:
        patch.setattr(FlowRecord, "__init__", refuse)
        table, stats = read_flows(path)
        matrix = build_matrix(table, WindowConfig(width_s=90, stride_s=15))
    assert matrix.n_rows > 0
    assert len(table) == stats.parsed > 10_000
    assert table.start_time_us.dtype == np.int64
    assert table.magnitudes.dtype == np.float64
    assert table.magnitudes.shape == (len(table), 4)
    assert table.src_code.dtype == table.dst_code.dtype == np.int32
    assert table.addresses.dtype.kind == "U"
    assert table.label_class.dtype == np.int8

    lines = path.read_text().splitlines()[1:]
    per_row = {c.token: 0 for c in LabelClass}
    for i, line in enumerate(lines):
        per_row[parse_line(line, i + 2).label_class.token] += 1
    assert label_distribution(table).counts == per_row


def _traced_peak(build):
    """build()'s result and the tracemalloc peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_builders_hold_their_output_once(capture_700s, monkeypatch):
    """read_flows and build_matrix append straight into typed buffers that
    become their output arrays: neither stages rows in Python lists or
    copies its output at the end, so each peaks near the size of what it
    returns (4.2x and 2.3x when they did). A multi-range read appends each
    child's columns to the first range's buffers a block at a time. The
    matrix holds each row's key as an int32 code into one table of the
    distinct keys (1.46x of that output measured; 1.37x of an output that
    held a 48-byte key string per row)."""
    for ranges in (1, 4):
        _force_ranges(monkeypatch, capture_700s, ranges)
        (table, _), peak = _traced_peak(lambda: read_flows(capture_700s))
        assert peak <= 3 * sum(col.nbytes for col in vars(table).values()), \
            ranges

    m, peak = _traced_peak(lambda: build_matrix(
        table, WindowConfig(width_s=600, stride_s=15)))
    assert m.n_rows > 10_000
    assert peak <= 1.5 * sum(a.nbytes for a in (
        m.X, m.y, m.window_index, m.window_start_us, m.key_code, m.keys))


def test_fit_holds_one_working_copy_of_x(capture_700s):
    """fit standardizes into one (n, F+1) array and keeps one parameter
    vector; the rest of its peak is n-length vectors. It peaked at 3.39x X
    when it held the standardized X, its augmented copy and a full-size
    Hessian temporary."""
    table, _ = read_flows(capture_700s)
    m = build_matrix(table, WindowConfig(width_s=90, stride_s=15))
    (model, report), peak = _traced_peak(lambda: fit(m))
    assert m.n_rows > 10_000 and report.converged
    assert peak <= 1.6 * m.X.nbytes


def test_read_matrix_csv_holds_the_matrix_once(capture_700s, tmp_path):
    """The bulk reader keeps X and the row identities, key codes included,
    as views of the one table np.loadtxt parses, and codes each row's key
    as it is parsed. It peaked at 2.93x X when it copied X and both
    identity columns out, and at 1.84x when it held a key string per
    row."""
    table, _ = read_flows(capture_700s)
    path = str(tmp_path / "features.csv")
    write_matrix_csv(path, build_matrix(table, WindowConfig(width_s=90,
                                                            stride_s=15)))
    m, peak = _traced_peak(lambda: read_matrix_csv(path))
    assert m.n_rows > 10_000
    assert peak <= 1.5 * m.X.nbytes
    assert not m.X.flags.c_contiguous
    contiguous = replace(m, X=np.ascontiguousarray(m.X))
    assert fit(m) == fit(contiguous), "the view fits to the same bits"


def test_predict_proba_standardizes_one_block_at_a_time(capture_700s):
    """predict_proba standardizes _SCORE_BLOCK_ROWS rows at a time and
    writes their margins into one n-length vector; the rest of its peak is
    the sigmoid's n-length temporaries. It peaked at 1.05x X (here more than
    twice the bound) when it standardized every row into one new array."""
    table, _ = read_flows(capture_700s)
    m = build_matrix(table, WindowConfig(width_s=90, stride_s=15))
    model, _ = fit(m)
    proba, peak = _traced_peak(lambda: predict_proba(model, m))
    assert len(proba) == m.n_rows > 10_000
    block = logreg._SCORE_BLOCK_ROWS * m.n_features * m.X.itemsize
    assert peak <= block + 8 * proba.nbytes


def test_run_single_holds_no_copy_of_its_matrix(capture_700s):
    """A chronological split of a built matrix is two views of it, and
    scoring takes a block at a time, so a cell's peak is the fit's working
    copy of the train side (0.3 x 22/21 of X here) and n-length vectors. It
    peaked at 1.86x X when the split copied both sides and predict_proba
    standardized the whole test side."""
    table, _ = read_flows(capture_700s)
    m = build_matrix(table, WindowConfig(width_s=90, stride_s=15))
    (train, test), peak = _traced_peak(
        lambda: run_single(m, SplitSpec(train_fraction=0.3)))
    assert train.confusion.total + test.confusion.total > 10_000
    assert peak <= 0.6 * m.X.nbytes
