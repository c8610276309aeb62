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
import os
import pickle
from array import array
from dataclasses import astuple, dataclass
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

# HEADER_LINE, TIMESTAMP_FORMAT, parse_timestamp and render_timestamp are
# this module's names too, defined where synth can import them without it
from ._timestamps import (HEADER_LINE, TIMESTAMP_FORMAT, canonical_us,
                          parse_timestamp, render_timestamp)
from ._util import forked, naming_undecodable, shares
from .errors import MalformedRow

HEADER_PREFIX = "StartTime"
N_FIELDS = 15
# a botnet label containing this substring is C&C traffic
CNC_TOKEN = "cc"

class LabelClass(enum.IntEnum):
    """The four traffic classes every raw label maps onto."""

    BACKGROUND = 0
    NORMAL = 1
    BOTNET = 2
    CNC = 3

    @property
    def token(self) -> str:
        """Lowercase name used in CLI flags and report files."""
        return self.name.lower()


_TOKEN_CLASSES = {c.token: c for c in LabelClass}


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


_COUNTER_END = 1 << 64


def _parse_counter(token: str, line_no: int, name: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise MalformedRow(line_no, f"non-numeric counter {name} {token!r}") from None
    # binetflow counters are unsigned 64-bit; the bound also keeps every
    # counter finite in the float64 magnitudes column
    if not 0 <= value < _COUNTER_END:
        raise MalformedRow(line_no, f"counter {name} {value} outside 0..2**64-1")
    return value


def _split_fields(line: str, line_no: int) -> list[str]:
    """A row's fields as they stand, stray whitespace and all."""
    fields = line.split(",")
    if len(fields) != N_FIELDS:
        raise MalformedRow(line_no, f"expected {N_FIELDS} fields, got {len(fields)}")
    return fields


def _typed_fields(fields: list[str], line_no: int) -> tuple:
    """Validate a row's typed fields; returns (start_time_us, dur, sport,
    dport, s_tos, d_tos, tot_pkts, tot_bytes, src_bytes).

    Tokens come as split, unstripped. Canonical tokens convert inline: int
    and float accept a padded token only where the per-field parsers below
    accept its stripped form, and give the same value. A row with any other
    token (hex ports, float ToS, empty optional fields) or a value out of
    range goes through those parsers, which raise the MalformedRow of the
    first bad field in column order.
    """
    try:
        dur = float(fields[1])
        sport, dport = int(fields[4]), int(fields[7])
        s_tos, d_tos = int(fields[9]), int(fields[10])
        tot_pkts, tot_bytes = int(fields[11]), int(fields[12])
        src_bytes = int(fields[13])
        start_time_us = canonical_us(fields[0])
    except ValueError:
        pass
    else:
        if (0.0 <= dur < math.inf and 0 <= sport <= 65535
                and 0 <= dport <= 65535 and 0 <= s_tos <= 255
                and 0 <= d_tos <= 255 and 0 <= tot_pkts < _COUNTER_END
                and 0 <= tot_bytes < _COUNTER_END
                and 0 <= src_bytes < _COUNTER_END):
            return (start_time_us, dur, sport, dport, s_tos, d_tos,
                    tot_pkts, tot_bytes, src_bytes)
    return _checked_fields([f.strip() for f in fields], line_no)


def _checked_fields(fields: list[str], line_no: int) -> tuple:
    """_typed_fields of stripped tokens, one parser per field in column
    order."""
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
    fields = [f.strip() for f in _split_fields(line, line_no)]
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
        columns = t, mags, src, dst, classes = _new_columns()
        codes: dict[str, int] = {}
        for r in records:
            t.append(r.start_time_us)
            mags.fromlist([r.dur, r.tot_pkts, r.tot_bytes, r.src_bytes])
            src.append(codes.setdefault(r.src_addr, len(codes)))
            dst.append(codes.setdefault(r.dst_addr, len(codes)))
            classes.append(r.label_class)
        return _table(columns, codes)

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


def _new_columns() -> tuple[array, array, array, array, array]:
    """Empty typed buffers for start_time_us, magnitudes, src_code,
    dst_code and label_class, in FlowTable field order."""
    return array("q"), array("d"), array("i"), array("i"), array("b")


def _table(columns: tuple, addresses: Iterable[str]) -> FlowTable:
    """The read-only FlowTable over filled buffers.

    Each column is a zero-copy view of its buffer: no per-row Python
    object is kept, and no column is copied.
    """
    t, mags, src, dst, classes = columns
    table = FlowTable(start_time_us=np.asarray(t),
                      magnitudes=np.asarray(mags).reshape(-1, 4),
                      src_code=np.asarray(src), dst_code=np.asarray(dst),
                      addresses=np.array(list(addresses), dtype=str),
                      label_class=np.asarray(classes))
    # one table serves every cell of a sweep: no caller may change it
    for col in vars(table).values():
        col.flags.writeable = False
    return table


# read_flows cuts a capture into byte ranges, one per share, and parses
# every range but the first in a forked child. No range is shorter than
# this, since a fork and the transfer of its columns cost a few
# milliseconds; two ranges still beat one on a 0.6-MB capture (26 against
# 30 ms on a 2-core x86-64 host).
_MIN_RANGE_BYTES = 256 << 10
# ranges are read, decoded and sent between processes in blocks of this
# size, so no range is held whole as bytes or text; larger blocks parse no
# faster and leave more heap behind
_BLOCK_BYTES = 8 << 10


class _Range(NamedTuple):
    """One byte range's parse. columns are typed buffers in FlowTable field
    order; their address codes index addresses, the range's own first-seen
    order. error is the range's first MalformedRow (numbered within the
    range) or UnicodeDecodeError; the range stops there."""

    columns: tuple
    addresses: dict[str, int]
    stats: IngestStats
    lines: int
    error: Exception | None


def _parse_range(fh: BinaryIO, budget: int | None, abort: bool,
                 header: bool) -> _Range:
    """Parse the rows of the next budget bytes of fh (up to EOF when None);
    header says the range starts the file, whose line 1 may be a header.

    The row loop appends each accepted row's values straight into typed
    buffers, validating through _split_fields and _typed_fields like
    parse_line.
    """
    columns = t, mags, src, dst, classes = _new_columns()
    codes: dict[str, int] = {}
    # each distinct raw label is classified once: (class code, recognized)
    label_classes: dict[str, tuple[int, bool]] = {}
    total = parsed = unrecognized = src_over = line_no = 0
    error = None
    try:
        for lines in _text_blocks(fh, budget):
            for line in lines:
                line_no += 1
                if not line.strip() or (line_no == 1 and header and
                                        line.startswith(HEADER_PREFIX)):
                    continue
                total += 1
                try:
                    fields = _split_fields(line, line_no)
                    (start_time_us, dur, _, _, _, _, tot_pkts, tot_bytes,
                     src_bytes) = _typed_fields(fields, line_no)
                except MalformedRow:
                    if abort:
                        raise
                    continue
                parsed += 1
                label = fields[14]
                cls = label_classes.get(label)
                if cls is None:
                    code, known = _classify(label.strip())
                    cls = label_classes[label] = (int(code), known)
                if not cls[1]:
                    unrecognized += 1
                # on the parsed ints: the float64 column can round both to
                # one value
                if src_bytes > tot_bytes:
                    src_over += 1
                t.append(start_time_us)
                # fromlist converts a list in one call; extend would iterate
                mags.fromlist([dur, tot_pkts, tot_bytes, src_bytes])
                src.append(codes.setdefault(fields[3].strip(), len(codes)))
                dst.append(codes.setdefault(fields[6].strip(), len(codes)))
                classes.append(cls[0])
    except (MalformedRow, UnicodeDecodeError) as exc:
        error = exc
    stats = IngestStats(total_rows=total, parsed=parsed,
                        skipped=total - parsed,
                        unrecognized_labels=unrecognized,
                        src_bytes_over_total=src_over)
    return _Range(columns, codes, stats, line_no, error)


def _text_blocks(fh: BinaryIO, budget: int | None) -> Iterator[list[str]]:
    """The lines of the next budget bytes of fh (up to EOF when None), one
    list per block, without their line ends.

    Blocks are cut after a b"\\n" and decoded as text mode decodes a file:
    UTF-8, with "\\r\\n" and a lone "\\r" ending a line as "\\n" does. A block
    that does not decode yields its lines before the first bad one and then
    raises the UnicodeDecodeError, so a malformed row above a bad byte is
    still found first.
    """
    carry = b""
    while True:
        block = fh.read(_BLOCK_BYTES if budget is None
                        else min(_BLOCK_BYTES, budget))
        if budget is not None:
            budget -= len(block)
        if block:
            data = carry + block
            end = data.rfind(b"\n") + 1
        elif carry:                     # the last line has no line end
            data, end = carry, len(carry)
        else:
            return
        carry = data[end:]
        try:
            text = str(memoryview(data)[:end], "utf-8")
        except UnicodeDecodeError as exc:
            good = data.rfind(b"\n", 0, exc.start) + 1
            yield _split_lines(str(memoryview(data)[:good], "utf-8"))
            raise
        yield _split_lines(text)


def _split_lines(text: str) -> list[str]:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()     # what follows the last line end is no line
    return lines


def _cut_targets(size: int) -> list[int]:
    """Offsets near which to cut a size-byte capture: one range per share
    (_util.shares), none shorter than _MIN_RANGE_BYTES."""
    n = shares(size, _MIN_RANGE_BYTES)
    return [size * i // n for i in range(1, n)]


def _range_starts(fh: BinaryIO) -> list[int]:
    """Where each range begins: 0, then just after the b"\\n" that ends the
    line holding each cut target."""
    size = os.fstat(fh.fileno()).st_size     # 0 for a pipe: one range
    cuts = set()
    for target in _cut_targets(size):
        fh.seek(target - 1)
        fh.readline()
        cuts.add(fh.tell())
    if cuts:
        fh.seek(0)
    return [0, *sorted(c for c in cuts if c < size)]


def _serve_range(path: str, lo: int, hi: int | None, abort: bool,
                 sink: BinaryIO) -> None:
    """A forked child's task: parse bytes [lo, hi) of path (up to EOF when
    hi is None) and send the result to sink. The result is a pickled
    (addresses, stats, lines, error, column byte counts), then the raw
    bytes of each column unless error is set."""
    with open(path, "rb") as fh:
        fh.seek(lo)
        part = _parse_range(fh, None if hi is None else hi - lo, abort,
                            header=False)
    columns = part.columns if part.error is None else ()
    pickle.dump((list(part.addresses), part.stats, part.lines, part.error,
                 [len(c) * c.itemsize for c in columns]),
                sink, pickle.HIGHEST_PROTOCOL)
    for column in columns:
        sink.write(column)


def _receive(source: BinaryIO, columns: tuple, codes: dict[str, int]
             ) -> tuple[IngestStats, int, Exception | None]:
    """Read a child's result from source: append its columns to columns,
    its address codes remapped into codes, which takes its new addresses in
    their first-seen order. Returns its stats, line count and error."""
    try:
        addresses, stats, lines, error, sizes = pickle.load(source)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError("an ingest range parser ended without "
                                "sending its rows") from None
    remap = np.array([codes.setdefault(a, len(codes)) for a in addresses],
                     dtype=np.int32)
    for column, size, recode in zip(columns, sizes,
                                    (None, None, remap, remap, None)):
        while size:
            block = source.read(min(size, _BLOCK_BYTES))
            if len(block) != min(size, _BLOCK_BYTES):
                raise ChildProcessError("an ingest range parser ended "
                                        "mid-column")
            size -= len(block)
            if recode is not None:
                block = memoryview(
                    recode[np.frombuffer(block, dtype=np.int32)]).cast("B")
            column.frombytes(block)
    return stats, lines, error


def _raise_error(error: Exception | None, line_offset: int) -> None:
    """Raise a range's error, if any, numbered within the file."""
    if isinstance(error, MalformedRow) and line_offset:
        raise MalformedRow(error.line_no + line_offset, error.reason)
    if error is not None:
        raise error


def _read_ranges(path: str, fh: BinaryIO, starts: list[int], abort: bool
                 ) -> tuple[FlowTable, IngestStats]:
    """Parse the range at each start, the first in this process and each
    other in a forked child, and stitch them in file order."""
    ends = [*starts[1:], None]
    with forked([functools.partial(_serve_range, path, lo, hi, abort)
                 for lo, hi in zip(starts[1:], ends[1:])]) as sources:
        first = _parse_range(fh, ends[0], abort, header=True)
        columns, codes = first.columns, first.addresses
        stats, lines, error = first.stats, first.lines, first.error
        line_offset = 0
        for source in sources:
            _raise_error(error, line_offset)
            line_offset += lines
            more, lines, error = _receive(source, columns, codes)
            stats = IngestStats(*(a + b for a, b in zip(astuple(stats),
                                                        astuple(more))))
        _raise_error(error, line_offset)
    return _table(columns, codes), stats


def read_flows(path: str, on_error: str = "skip"
               ) -> tuple[FlowTable, IngestStats]:
    """Read a whole flow file in order; returns (table, stats).

    The table holds exactly the rows parse_line accepts. on_error: "skip"
    counts malformed rows and moves on; "abort" re-raises the first
    MalformedRow. In either mode the first line that is not UTF-8 raises
    UnicodeDecodeError, unless abort mode meets a malformed row above it.

    The file is parsed in byte ranges, one per usable core, each but the
    first in a forked child process (see _cut_targets); the table, the
    stats and the error raised are the same at any number of ranges.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    with naming_undecodable(path), open(path, "rb") as fh:
        return _read_ranges(path, fh, _range_starts(fh), on_error == "abort")


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
