"""Small shared helpers: atomic file writes, number formatting, and every
decision about parallel work: how many shares to deal it into, running them
in forked children, and whether those children may call numpy's BLAS.
write_ranges, the text writer of the feature CSV and the synthetic capture,
formats its rows in forked row ranges through them."""
from __future__ import annotations

import ctypes
import functools
import os
import pickle
import shutil
import signal
import tempfile
import threading
import traceback
from contextlib import contextmanager
from typing import Any, BinaryIO, Callable, Iterator, Sequence, TextIO


@contextmanager
def atomic_open(path: str) -> Iterator[TextIO]:
    """Yield a text handle on a temp file beside path, renamed over path when
    the block succeeds and unlinked when it raises, so readers never see a
    partial file and a failed run never clobbers a previous output."""
    fd, tmp = temp_beside(path)
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


def temp_beside(path: str) -> tuple[int, str]:
    """Create a temp file in path's directory, named ".tmp-…~" so that a
    leftover is known for what it is; returns its descriptor and path."""
    return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                            prefix=".tmp-", suffix="~")


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
        raise undecodable(exc, where) from None


def undecodable(exc: UnicodeDecodeError, where: str) -> UnicodeDecodeError:
    """exc with where, a path and maybe its line, appended to its reason."""
    return UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end,
                              f"{exc.reason} ({where})")


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (taskset, cgroup cpusets), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shares(units: int, smallest: int = 1) -> int:
    """How many shares to deal units of work into: one per usable core,
    none of fewer than smallest units. One where the process may not fork:
    os.fork is missing (looked up now, not at import) or another Python
    thread is alive, whose locks a child would inherit in whatever state
    they were."""
    n = min(usable_cores(), units // smallest)
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return n


def in_shares(work: Callable[[int], Any], n: int,
              sender: Callable[[int], str]) -> list:
    """[work(0), ..., work(n - 1)]: work(0) runs in this process and each
    other share in a forked child (forked) that sends its result back
    (send_result). n comes from shares. A share's exception is raised here
    with its own type, the earliest share's where several fail; a child
    that ends without sending its result raises ChildProcessError naming
    sender(i), the work it was given."""
    with forked([functools.partial(send_result, functools.partial(work, i))
                 for i in range(1, n)]) as sources:
        results = [work(0)]
        for i, source in enumerate(sources, start=1):
            results.append(receive_result(source, sender(i)))
    return results


def write_ranges(path: str, head: str, rows: int, smallest: int,
                 write: Callable[[TextIO, int, int], None],
                 what: str) -> None:
    """Write head, then rows [0, rows) to path atomically (atomic_open);
    write(fh, lo, hi) formats rows [lo, hi) to fh.

    The rows are cut into one contiguous range per share (shares), none
    shorter than smallest. This process writes the first range to the
    temp file; a forked child writes each other range to a part file beside
    path (in_shares), which this process then appends in order and unlinks,
    however the write ends. The error raised is that of the earliest range
    in file order that failed; a child that sends nothing raises
    ChildProcessError naming "<what> of rows <first>-<last>"."""
    n = shares(rows, smallest)
    bounds = [rows * i // n for i in range(n + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    with atomic_open(path) as fh:
        fh.write(head)
        parts: list[str] = []
        try:
            for _ in ranges[1:]:
                fd, part = temp_beside(path)
                os.close(fd)
                parts.append(part)

            def share(i: int) -> None:
                if i:
                    _write_part(parts[i - 1], write, *ranges[i])
                else:
                    write(fh, *ranges[0])

            in_shares(share, n, lambda i: f"{what} of rows "
                                          f"{ranges[i][0]}-{ranges[i][1] - 1}")
            for part in parts:
                _append(fh, part)
        finally:
            for part in parts:
                os.unlink(part)


def _write_part(part: str, write: Callable[[TextIO, int, int], None],
                lo: int, hi: int) -> None:
    """A forked child's share of write_ranges: rows [lo, hi) into the file
    part."""
    with open(part, "w", encoding="utf-8", newline="") as fh:
        write(fh, lo, hi)


def _append(fh: TextIO, part: str) -> None:
    """Copy the bytes of the file part to the end of fh."""
    fh.flush()
    with open(part, "rb") as source:
        shutil.copyfileobj(source, fh.buffer)


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
    reaped. Callers size tasks with shares.

    Every process runs on the whole affinity mask. A forked task must not
    fork again: shares already gave the block one process per usable core.
    OpenBLAS restarts its pool, shut down by the fork, at its next parallel
    call. A caller that calls BLAS in the block keeps every call too small
    for OpenBLAS to thread, since a threaded call there would only
    oversubscribe the cores.
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


def send_result(work: Callable[[], Any], sink: BinaryIO) -> None:
    """A forked task that replies: pickle work()'s result to sink, or the
    exception that stopped it, for receive_result to raise. The exception's
    traceback does not pickle, so the child prints it."""
    try:
        result = work()
    except Exception as exc:
        traceback.print_exc()
        result = exc
    pickle.dump(result, sink, pickle.HIGHEST_PROTOCOL)


def receive_result(source: BinaryIO, sender: str) -> Any:
    """What send_result sent through source: the result, or its exception
    raised again with its own type. A child that sent nothing raises
    ChildProcessError naming sender, the work it was given."""
    try:
        result = pickle.load(source)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"{sender} ended without sending its "
                                "result") from None
    if isinstance(result, Exception):
        raise result
    return result


@functools.cache
def _blas_parallel() -> int | None:
    """openblas_get_parallel() of the OpenBLAS numpy loaded: 0 sequential,
    1 pthreads, 2 OpenMP; None where numpy's BLAS exports no such call. It
    is looked up through numpy's linalg extension, whose dependencies
    include its BLAS: scipy_openblas_*64_ in the wheel's scipy-openblas."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            try:
                get_parallel = lib[f"{prefix}openblas_get_parallel{suffix}"]
            except AttributeError:
                continue
            get_parallel.argtypes, get_parallel.restype = [], ctypes.c_int
            return get_parallel()
    return None


def blas_survives_fork() -> bool:
    """Whether a forked child may call numpy's BLAS: OpenBLAS, sequential
    or on its own pthreads pool, whose fork handler shuts the pool down
    before a fork. On OpenMP, or a BLAS that the probe does not find, a
    child that enters a parallel region after the parent's pool has started
    may hang. The probe asks the library loaded at run time, not numpy's
    build metadata."""
    return _blas_parallel() in (0, 1)


def fmt_g9(value: float) -> str:
    """Render a real with 9 significant digits ("%.9g")."""
    return f"{float(value):.9g}"
