"""Parsing of binetflow-style CSV into validated flow records and columns.

The input format is the CTU-13 text rendering of bidirectional NetFlow: UTF-8
CSV, an optional header line beginning with "StartTime", then 15 comma-separated
fields per row in this order:

    StartTime, Dur, Proto, SrcAddr, Sport, Dir, DstAddr, Dport, State,
    sTos, dTos, TotPkts, TotBytes, SrcBytes, Label

Fields are never quoted, may be empty (Sport/Dport/sTos/dTos), and may carry
stray whitespace (the direction column is usually space-padded, e.g. "  <->").
Timestamps look like "2011/08/16 10:01:46.972101"; ports are decimal or, for
ICMP rows, hexadecimal with an 0x prefix.

read_flows returns the accepted rows as a FlowTable of numpy columns holding
only what the pipeline reads. parse_line and FlowRecord are the row-level
form of the same validation: a row is accepted by one exactly when it is
accepted by the other.
"""
from __future__ import annotations

import enum
import functools
import math
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ._util import naming_undecodable
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
# TIMESTAMP_FORMAT in its canonical spelling; any other token strptime accepts
# (one-digit fields, short fractions, non-ASCII digits) takes the slow path
_CANONICAL_TIMESTAMP = re.compile(
    r"\d{4}/\d\d/\d\d \d\d:\d\d:\d\d\.\d{6}", re.ASCII)


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
    """Parse "YYYY/MM/DD HH:MM:SS.ffffff" to microseconds since the epoch.

    Accepts and rejects exactly the tokens datetime.strptime does with
    TIMESTAMP_FORMAT; the canonical spelling skips strptime, and a bad
    token raises ValueError.
    """
    if _CANONICAL_TIMESTAMP.fullmatch(token):
        try:
            return _second_us(token[:19]) + int(token[20:])
        except ValueError:
            pass        # no such date or time: strptime raises the error
    dt = datetime.strptime(token, TIMESTAMP_FORMAT)
    return (dt - _EPOCH) // _US


@functools.lru_cache(maxsize=4096)
def _second_us(stamp: str) -> int:
    """Microseconds from the epoch to an ASCII "YYYY/MM/DD HH:MM:SS"; flows
    come in time order, so consecutive rows mostly share the second."""
    second = datetime(int(stamp[:4]), int(stamp[5:7]), int(stamp[8:10]),
                      int(stamp[11:13]), int(stamp[14:16]), int(stamp[17:19]))
    return (second - _EPOCH) // _US


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
    # binetflow counters are unsigned 64-bit; the bound also keeps every
    # counter finite in the float64 magnitudes column
    if not 0 <= value < 1 << 64:
        raise MalformedRow(line_no, f"counter {name} {value} outside 0..2**64-1")
    return value


def _split_fields(line: str, line_no: int) -> list[str]:
    fields = list(map(str.strip, line.split(",")))
    if len(fields) != N_FIELDS:
        raise MalformedRow(line_no, f"expected {N_FIELDS} fields, got {len(fields)}")
    return fields


def _typed_fields(fields: list[str], line_no: int) -> tuple:
    """Validate a row's typed fields in column order; returns (start_time_us,
    dur, sport, dport, s_tos, d_tos, tot_pkts, tot_bytes, src_bytes)."""
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
    return (start_time_us, dur,
            _parse_port(fields[4], line_no, "sport"),
            _parse_port(fields[7], line_no, "dport"),
            _parse_tos(fields[9], line_no, "sTos"),
            _parse_tos(fields[10], line_no, "dTos"),
            _parse_counter(fields[11], line_no, "TotPkts"),
            _parse_counter(fields[12], line_no, "TotBytes"),
            _parse_counter(fields[13], line_no, "SrcBytes"))


def parse_line(line: str, line_no: int) -> FlowRecord:
    """Parse one data row. Raises MalformedRow with the offending line number."""
    fields = _split_fields(line, line_no)
    (start_time_us, dur, sport, dport, s_tos, d_tos,
     tot_pkts, tot_bytes, src_bytes) = _typed_fields(fields, line_no)
    label_raw = fields[14]
    return FlowRecord(
        start_time_us=start_time_us,
        dur=dur,
        proto=fields[2].lower(),
        src_addr=fields[3],
        sport=sport,
        dir=fields[5],
        dst_addr=fields[6],
        dport=dport,
        state=fields[8],
        s_tos=s_tos,
        d_tos=d_tos,
        tot_pkts=tot_pkts,
        tot_bytes=tot_bytes,
        src_bytes=src_bytes,
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


class FlowRow(NamedTuple):
    """One flow of a FlowTable, as iterating the table yields it."""

    start_time_us: int
    dur: float
    tot_pkts: float
    tot_bytes: float
    src_bytes: float
    src_addr: str
    dst_addr: str
    label_class: LabelClass


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Flows as numpy columns, one entry per flow in input order; read_flows
    and from_records return them read-only.

    start_time_us      int64 (n,): microseconds since 1970-01-01 (naive)
    magnitudes         float64 (n, 4): dur, tot_pkts, tot_bytes, src_bytes,
                       the features.BASE_ATTRS order
    src_code, dst_code int32 (n,): each flow's addresses, as indices into
                       addresses
    addresses          str (m,): every distinct address, first seen first
    label_class        int8 (n,): LabelClass values
    """

    start_time_us: np.ndarray
    magnitudes: np.ndarray
    src_code: np.ndarray
    dst_code: np.ndarray
    addresses: np.ndarray
    label_class: np.ndarray

    def __post_init__(self):
        n = len(self.start_time_us)
        if (self.magnitudes.shape != (n, 4)
                or any(len(c) != n for c in (self.src_code, self.dst_code,
                                              self.label_class))):
            raise ValueError("FlowTable columns disagree in length")

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowTable":
        """The table read_flows would return for these records."""
        return _build_table((r.start_time_us, r.dur, r.tot_pkts, r.tot_bytes,
                             r.src_bytes, r.src_addr, r.dst_addr,
                             int(r.label_class)) for r in records)

    def __len__(self) -> int:
        return len(self.start_time_us)

    def __iter__(self) -> Iterator[FlowRow]:
        """One Python-valued row per flow; the pipeline reads the columns."""
        addrs = self.addresses.tolist()
        classes = list(LabelClass)
        for t, mags, src, dst, c in zip(
                self.start_time_us.tolist(), self.magnitudes.tolist(),
                self.src_code.tolist(), self.dst_code.tolist(),
                self.label_class.tolist()):
            yield FlowRow(t, *mags, addrs[src], addrs[dst], classes[c])


def _build_table(rows: Iterable[tuple]) -> FlowTable:
    """Collect (start_time_us, dur, tot_pkts, tot_bytes, src_bytes, src_addr,
    dst_addr, class code) tuples into a FlowTable.

    Each value goes straight into a typed array.array buffer, and each
    column is a zero-copy view of its buffer: no per-row Python object is
    kept, and no column is copied.
    """
    codes: dict[str, int] = {}
    t, mags, src, dst, cls = (array("q"), array("d"), array("i"), array("i"),
                              array("b"))
    for start_us, dur, pkts, tot_bytes, src_bytes, s, d, c in rows:
        t.append(start_us)
        # fromlist converts a list in one call; extend would iterate
        mags.fromlist([dur, pkts, tot_bytes, src_bytes])
        src.append(codes.setdefault(s, len(codes)))
        dst.append(codes.setdefault(d, len(codes)))
        cls.append(c)
    table = FlowTable(start_time_us=np.asarray(t),
                      magnitudes=np.asarray(mags).reshape(-1, 4),
                      src_code=np.asarray(src), dst_code=np.asarray(dst),
                      addresses=np.array(list(codes), dtype=str),
                      label_class=np.asarray(cls))
    # one table serves every cell of a sweep: no caller may change it
    for col in vars(table).values():
        col.flags.writeable = False
    return table


def _accepted_rows(lines: Iterable[str], on_error: str, stats: IngestStats
                   ) -> Iterator[tuple]:
    """The _build_table tuple of every row parse_line accepts, tallied in
    stats; on_error="abort" re-raises the first MalformedRow."""
    # each distinct label is classified once
    classes: dict[str, tuple[int, bool]] = {}
    for line_no, line in enumerate(lines, start=1):
        if line_no == 1 and line.startswith(HEADER_PREFIX):
            continue
        if line.strip() == "":
            continue
        stats.total_rows += 1
        try:
            fields = _split_fields(line, line_no)
            (start_time_us, dur, _, _, _, _,
             tot_pkts, tot_bytes, src_bytes) = _typed_fields(fields, line_no)
        except MalformedRow:
            if on_error == "abort":
                raise
            stats.skipped += 1
            continue
        stats.parsed += 1
        label = fields[14]
        cls = classes.get(label)
        if cls is None:
            code, known = _classify(label)
            cls = classes[label] = (int(code), known)
        if not cls[1]:
            stats.unrecognized_labels += 1
        # on the parsed ints: the float64 column can round both to one value
        if src_bytes > tot_bytes:
            stats.src_bytes_over_total += 1
        yield (start_time_us, dur, tot_pkts, tot_bytes, src_bytes,
               fields[3], fields[6], cls[0])


def read_flows(path: str, on_error: str = "skip"
               ) -> tuple[FlowTable, IngestStats]:
    """Read a whole flow file in order; returns (table, stats).

    The table holds exactly the rows parse_line accepts. on_error: "skip"
    counts malformed rows and moves on; "abort" re-raises the first
    MalformedRow.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    stats = IngestStats()
    with naming_undecodable(path), open(path, "r", encoding="utf-8") as fh:
        table = _build_table(_accepted_rows(fh, on_error, stats))
    return table, stats


@dataclass(frozen=True)
class LabelDistribution:
    total: int
    counts: dict[str, int]
    percentages: dict[str, float]


def label_distribution(flows: FlowTable) -> LabelDistribution:
    """Per-class counts and percentages, keyed by class token."""
    per_class = np.bincount(flows.label_class, minlength=len(LabelClass))
    counts = {c.token: int(per_class[c]) for c in LabelClass}
    total = sum(counts.values())
    if total == 0:
        pct = {tok: 0.0 for tok in counts}
    else:
        pct = {tok: 100.0 * n / total for tok, n in counts.items()}
    return LabelDistribution(total=total, counts=counts, percentages=pct)
