"""Parsing of binetflow-style CSV into validated flow records.

The input format is the CTU-13 text rendering of bidirectional NetFlow: UTF-8
CSV, an optional header line beginning with "StartTime", then 15 comma-separated
fields per row in this order:

    StartTime, Dur, Proto, SrcAddr, Sport, Dir, DstAddr, Dport, State,
    sTos, dTos, TotPkts, TotBytes, SrcBytes, Label

Fields are never quoted, may be empty (Sport/Dport/sTos/dTos), and may carry
stray whitespace (the direction column is usually space-padded, e.g. "  <->").
Timestamps look like "2011/08/16 10:01:46.972101"; ports are decimal or, for
ICMP rows, hexadecimal with an 0x prefix.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable

from .errors import MalformedRow

TIMESTAMP_FORMAT = "%Y/%m/%d %H:%M:%S.%f"
HEADER_PREFIX = "StartTime"
N_FIELDS = 15
# a botnet label containing this substring is C&C traffic
CNC_TOKEN = "cc"

# All timestamps are naive; they are anchored to a fixed epoch so parsing never
# depends on the host timezone.
_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)


class LabelClass(enum.IntEnum):
    """The four traffic classes every raw label maps onto."""

    BACKGROUND = 0
    NORMAL = 1
    BOTNET = 2
    CNC = 3

    @property
    def token(self) -> str:
        """Lowercase name used in CLI flags and report files."""
        return _CLASS_TOKENS[self]


_CLASS_TOKENS = {
    LabelClass.BACKGROUND: "background",
    LabelClass.NORMAL: "normal",
    LabelClass.BOTNET: "botnet",
    LabelClass.CNC: "cnc",
}
_TOKEN_CLASSES = {v: k for k, v in _CLASS_TOKENS.items()}


def class_from_token(token: str) -> LabelClass:
    try:
        return _TOKEN_CLASSES[token.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown label class {token!r}; expected one of "
                         f"{sorted(_TOKEN_CLASSES)}") from None


@dataclass(frozen=True)
class FlowRecord:
    """One parsed flow row.

    start_time_us is microseconds since 1970-01-01 (naive). Counters are kept
    as plain ints; optional fields (sport, dport, s_tos, d_tos) are None when
    the source field was empty.
    """

    start_time_us: int
    dur: float
    proto: str
    src_addr: str
    sport: int | None
    dir: str
    dst_addr: str
    dport: int | None
    state: str
    s_tos: int | None
    d_tos: int | None
    tot_pkts: int
    tot_bytes: int
    src_bytes: int
    label_raw: str
    label_class: LabelClass


def classify_label(label_raw: str) -> LabelClass:
    """Map a raw label string onto one of the four classes.

    Case-insensitive substring rules, checked in order: a label containing
    "botnet" and "cc" is CnC; containing "botnet" is Botnet; "normal" is
    Normal; "background" is Background. Anything else falls back to
    Background (callers that care track the fallback via IngestStats).
    """
    cls, _ = _classify(label_raw)
    return cls


def _classify(label_raw: str) -> tuple[LabelClass, bool]:
    low = label_raw.lower()
    if "botnet" in low:
        if CNC_TOKEN in low:
            return LabelClass.CNC, True
        return LabelClass.BOTNET, True
    if "normal" in low:
        return LabelClass.NORMAL, True
    if "background" in low:
        return LabelClass.BACKGROUND, True
    return LabelClass.BACKGROUND, False


def parse_timestamp(token: str) -> int:
    """Parse "YYYY/MM/DD HH:MM:SS.ffffff" to microseconds since the epoch."""
    dt = datetime.strptime(token, TIMESTAMP_FORMAT)
    return (dt - _EPOCH) // _US


def render_timestamp(start_time_us: int) -> str:
    return (_EPOCH + start_time_us * _US).strftime(TIMESTAMP_FORMAT)


def _parse_port(token: str, line_no: int, name: str) -> int | None:
    if token == "":
        return None
    try:
        value = int(token, 16) if token.lower().startswith("0x") else int(token)
    except ValueError:
        raise MalformedRow(line_no, f"unparseable {name} {token!r}") from None
    if not 0 <= value <= 65535:
        raise MalformedRow(line_no, f"{name} {value} outside 0..65535")
    return value


def _parse_tos(token: str, line_no: int, name: str) -> int | None:
    if token == "":
        return None
    try:
        value = int(token)
    except ValueError:
        # some Argus exports render ToS as "0.0"
        try:
            as_float = float(token)
        except ValueError:
            raise MalformedRow(line_no, f"unparseable {name} {token!r}") from None
        if not as_float.is_integer():
            raise MalformedRow(line_no, f"non-integer {name} {token!r}")
        value = int(as_float)
    if not 0 <= value <= 255:
        raise MalformedRow(line_no, f"{name} {value} outside 0..255")
    return value


def _parse_counter(token: str, line_no: int, name: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise MalformedRow(line_no, f"non-numeric counter {name} {token!r}") from None
    if value < 0:
        raise MalformedRow(line_no, f"negative counter {name} {value}")
    return value


def parse_line(line: str, line_no: int) -> FlowRecord:
    """Parse one data row. Raises MalformedRow with the offending line number."""
    fields = [f.strip() for f in line.rstrip("\r\n").split(",")]
    if len(fields) != N_FIELDS:
        raise MalformedRow(line_no, f"expected {N_FIELDS} fields, got {len(fields)}")
    try:
        start_time_us = parse_timestamp(fields[0])
    except ValueError:
        raise MalformedRow(line_no, f"unparseable timestamp {fields[0]!r}") from None
    try:
        dur = float(fields[1])
    except ValueError:
        raise MalformedRow(line_no, f"unparseable duration {fields[1]!r}") from None
    if not 0.0 <= dur < math.inf:  # also rejects NaN
        raise MalformedRow(line_no, f"negative or non-finite duration "
                                    f"{fields[1]!r}")
    label_raw = fields[14]
    return FlowRecord(
        start_time_us=start_time_us,
        dur=dur,
        proto=fields[2].lower(),
        src_addr=fields[3],
        sport=_parse_port(fields[4], line_no, "sport"),
        dir=fields[5],
        dst_addr=fields[6],
        dport=_parse_port(fields[7], line_no, "dport"),
        state=fields[8],
        s_tos=_parse_tos(fields[9], line_no, "sTos"),
        d_tos=_parse_tos(fields[10], line_no, "dTos"),
        tot_pkts=_parse_counter(fields[11], line_no, "TotPkts"),
        tot_bytes=_parse_counter(fields[12], line_no, "TotBytes"),
        src_bytes=_parse_counter(fields[13], line_no, "SrcBytes"),
        label_raw=label_raw,
        label_class=classify_label(label_raw),
    )


def render_line(rec: FlowRecord) -> str:
    """Serialize a record back to canonical row form.

    Canonical means: duration with 6 decimal places (the Argus rendering),
    decimal ports, no token padding. Rows parsed from canonical input
    round-trip token-for-token; hex ports and padded direction fields parse
    fine but re-render normalized.
    """
    opt = lambda v: "" if v is None else str(v)
    return ",".join([
        render_timestamp(rec.start_time_us),
        f"{rec.dur:.6f}",
        rec.proto,
        rec.src_addr,
        opt(rec.sport),
        rec.dir,
        rec.dst_addr,
        opt(rec.dport),
        rec.state,
        opt(rec.s_tos),
        opt(rec.d_tos),
        str(rec.tot_pkts),
        str(rec.tot_bytes),
        str(rec.src_bytes),
        rec.label_raw,
    ])


HEADER_LINE = ("StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,"
               "sTos,dTos,TotPkts,TotBytes,SrcBytes,Label")


@dataclass
class IngestStats:
    """Counters accumulated while reading a flow file.

    total_rows counts data rows seen (header excluded); parsed + skipped ==
    total_rows. unrecognized_labels counts fallback-to-Background labels;
    src_bytes_over_total counts rows where SrcBytes exceeds TotBytes (kept,
    but suspicious).
    """

    total_rows: int = 0
    parsed: int = 0
    skipped: int = 0
    unrecognized_labels: int = 0
    src_bytes_over_total: int = 0

    def merge(self, other: "IngestStats") -> "IngestStats":
        """Associative combination of two partial tallies."""
        return IngestStats(
            total_rows=self.total_rows + other.total_rows,
            parsed=self.parsed + other.parsed,
            skipped=self.skipped + other.skipped,
            unrecognized_labels=self.unrecognized_labels + other.unrecognized_labels,
            src_bytes_over_total=self.src_bytes_over_total + other.src_bytes_over_total,
        )


def read_flows(path: str, on_error: str = "skip"
               ) -> tuple[list[FlowRecord], IngestStats]:
    """Read a whole flow file in order; returns (records, stats).

    on_error: "skip" counts malformed rows and moves on; "abort" re-raises the
    first MalformedRow.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    stats = IngestStats()
    records: list[FlowRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 and line.startswith(HEADER_PREFIX):
                continue
            if line.strip() == "":
                continue
            stats.total_rows += 1
            try:
                rec = parse_line(line, line_no)
            except MalformedRow:
                if on_error == "abort":
                    raise
                stats.skipped += 1
                continue
            stats.parsed += 1
            if not _classify(rec.label_raw)[1]:
                stats.unrecognized_labels += 1
            if rec.src_bytes > rec.tot_bytes:
                stats.src_bytes_over_total += 1
            records.append(rec)
    return records, stats


@dataclass(frozen=True)
class LabelDistribution:
    total: int
    counts: dict[str, int]
    percentages: dict[str, float]


def label_distribution(flows: Iterable[FlowRecord]) -> LabelDistribution:
    """Per-class counts and percentages, keyed by class token."""
    counts = {c.token: 0 for c in LabelClass}
    for rec in flows:
        counts[rec.label_class.token] += 1
    total = sum(counts.values())
    if total == 0:
        pct = {tok: 0.0 for tok in counts}
    else:
        pct = {tok: 100.0 * n / total for tok, n in counts.items()}
    return LabelDistribution(total=total, counts=counts, percentages=pct)
