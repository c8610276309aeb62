"""Small shared helpers: atomic file writes, number formatting and the
count of usable cores."""
from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Iterator, TextIO


@contextmanager
def atomic_open(path: str) -> Iterator[TextIO]:
    """Yield a text handle on a temp file beside path, renamed over path when
    the block succeeds and unlinked when it raises, so readers never see a
    partial file and a failed run never clobbers a previous output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path atomically (see atomic_open)."""
    with atomic_open(path) as fh:
        fh.write(text)


@contextmanager
def naming_undecodable(path: str) -> Iterator[None]:
    """Re-raise a UnicodeDecodeError from reading path as UTF-8 text with
    the path and the 1-based line of the file's first byte that is not
    UTF-8. The text reader reports an offset within its decode chunk; the
    line is found by reading the file again as bytes, on this error path
    only. The error keeps its type, so callers that record it by name see no
    change."""
    try:
        yield
    except UnicodeDecodeError as exc:
        where = path
        with open(path, "rb") as fh:
            # no multi-byte UTF-8 sequence contains b"\n": line by line is
            # the same decode as the whole file
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as first:
                    exc, where = first, f"{path}, line {line_no}"
                    break
        raise UnicodeDecodeError(exc.encoding, exc.object, exc.start,
                                 exc.end, f"{exc.reason} ({where})") from None


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (taskset, cgroup cpusets), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fmt_g9(value: float) -> str:
    """Render a real with 9 significant digits ("%.9g")."""
    return f"{float(value):.9g}"
