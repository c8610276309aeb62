"""The binetflow timestamp and header line, shared by ingest, which reads
captures, and synth, which writes them, so that importing synth does not
import the parser.

flowsift.ingest exports TIMESTAMP_FORMAT, HEADER_LINE, parse_timestamp and
render_timestamp as its own names, and the two functions name it as their
module.
"""
from __future__ import annotations

import functools
import re
from datetime import datetime, timedelta

TIMESTAMP_FORMAT = "%Y/%m/%d %H:%M:%S.%f"

HEADER_LINE = ("StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,"
               "sTos,dTos,TotPkts,TotBytes,SrcBytes,Label")

# All timestamps are naive; they are anchored to a fixed epoch so parsing never
# depends on the host timezone.
_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)
# TIMESTAMP_FORMAT's canonical spelling up to the dot of its six-digit
# fraction; any other token strptime accepts (one-digit fields, short
# fractions, non-ASCII digits) takes the slow path
_CANONICAL_SECOND = re.compile(r"\d{4}/\d\d/\d\d \d\d:\d\d:\d\d\.", re.ASCII)


def parse_timestamp(token: str) -> int:
    """Parse "YYYY/MM/DD HH:MM:SS.ffffff" to microseconds since the epoch.

    Accepts and rejects exactly the tokens datetime.strptime does with
    TIMESTAMP_FORMAT; the canonical spelling skips strptime, and a bad
    token raises ValueError.
    """
    try:
        return canonical_us(token)
    except ValueError:
        pass        # not canonical, or no such date or time: strptime decides
    dt = datetime.strptime(token, TIMESTAMP_FORMAT)
    return (dt - _EPOCH) // _US


def canonical_us(token: str) -> int:
    """parse_timestamp of a token in the canonical spelling; ValueError for
    any other token and for a date or time that does not exist."""
    fraction = token[20:]
    if not (len(token) == 26 and token.isascii() and fraction.isdigit()):
        raise ValueError(f"not a canonical timestamp: {token!r}")
    return _second_us(token[:20]) + int(fraction)


@functools.lru_cache(maxsize=4096)
def _second_us(stamp: str) -> int:
    """Microseconds from the epoch to a canonical "YYYY/MM/DD HH:MM:SS.";
    ValueError for any other string. Flows come in time order, so
    consecutive rows mostly share the second."""
    if not _CANONICAL_SECOND.fullmatch(stamp):
        raise ValueError(f"not a canonical timestamp: {stamp!r}")
    second = datetime(int(stamp[:4]), int(stamp[5:7]), int(stamp[8:10]),
                      int(stamp[11:13]), int(stamp[14:16]), int(stamp[17:19]))
    return (second - _EPOCH) // _US


def render_timestamp(start_time_us: int) -> str:
    return (_EPOCH + start_time_us * _US).strftime(TIMESTAMP_FORMAT)


parse_timestamp.__module__ = render_timestamp.__module__ = "flowsift.ingest"
