"""Small shared helpers: atomic file writes, number formatting, the count
of usable cores and the one way work runs in parallel, in forked children."""
from __future__ import annotations

import os
import signal
import tempfile
import threading
import traceback
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator, Sequence, TextIO


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


def can_fork() -> bool:
    """Whether work may go to forked children: os.fork exists (looked up
    now, not at import) and no other Python thread is alive, whose locks a
    child would inherit in whatever state they were."""
    return hasattr(os, "fork") and threading.active_count() == 1


@contextmanager
def forked(tasks: Sequence[Callable[[BinaryIO], None]]
           ) -> Iterator[list[BinaryIO]]:
    """Run each task in an os.fork'ed child of its own; yield the read ends
    of their pipes, in task order.

    A child calls task(sink) with the write end of its pipe, flushes it and
    leaves through os._exit, so it never returns into the caller's stack nor
    runs its exit handlers. A task that raises prints its traceback and
    exits 1, so the reader meets the end of the pipe early. However the
    block is left, every child is killed, its pipe closed and the child
    reaped. Callers check can_fork first.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for task in tasks:
            read_end, write_end = os.pipe()
            # the parent closes each write end before the next fork, so no
            # child holds another's pipe open past that child's exit
            with open(write_end, "wb") as sink:
                source = open(read_end, "rb")
                try:
                    pid = os.fork()
                except OSError:
                    source.close()
                    raise
                if pid == 0:
                    _child(task, sink)
            children.append((pid, source))
        yield [source for _, source in children]
    finally:
        for pid, source in children:
            # killed before its pipe closes, a child never reports the
            # broken pipe; the kill is a no-op on one that has exited
            os.kill(pid, signal.SIGKILL)
            source.close()
            os.waitpid(pid, 0)


def _child(task: Callable[[BinaryIO], None], sink: BinaryIO) -> None:
    """A forked child's whole life: run task on sink, then exit."""
    status = 1
    try:
        task(sink)
        sink.flush()
        status = 0
    except BaseException:
        traceback.print_exc()
        raise
    finally:
        os._exit(status)


def fmt_g9(value: float) -> str:
    """Render a real with 9 significant digits ("%.9g")."""
    return f"{float(value):.9g}"
