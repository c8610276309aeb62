"""Atomic writes (a failed write leaves the previous file and no temp
file), the path:line restatement of undecodable input, how work is dealt
into shares, how forked children end and report, and the BLAS probe that
lets a sweep fork."""
import os
import pickle
import signal
import threading

import numpy as np
import pytest

import flowsift._util
from flowsift import FeatureMatrix, FlowTable, run_grid, write_matrix_csv
from flowsift._util import (atomic_open, atomic_write_text, forked,
                            in_shares, naming_undecodable, shares)


def leftovers(directory):
    return sorted(n for n in os.listdir(directory) if n.startswith(".tmp-"))


def test_atomic_open_publishes_on_success(tmp_path):
    path = str(tmp_path / "out.txt")
    with atomic_open(path) as fh:
        fh.write("a\n")
        assert not os.path.exists(path), "nothing is published mid-write"
        fh.write("b\r\n")
    with open(path, "rb") as fh:
        assert fh.read() == b"a\nb\r\n", "text is written untranslated"
    assert leftovers(tmp_path) == []


def test_row_iterator_raising_mid_write_keeps_previous_file(tmp_path):
    path = str(tmp_path / "out.csv")
    atomic_write_text(path, "previous\n")

    def rows():
        yield "first\n"
        yield "second\n"
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        with atomic_open(path) as fh:
            for row in rows():
                fh.write(row)
    with open(path, "rb") as fh:
        assert fh.read() == b"previous\n"
    assert leftovers(tmp_path) == []


def test_failed_matrix_write_keeps_previous_file(tmp_path):
    """A cell that cannot be formatted past the first streamed chunk aborts
    the write after text has reached the temp file."""
    path = str(tmp_path / "m.csv")
    atomic_write_text(path, "previous\n")
    n = 10_000
    window_index = np.arange(n, dtype=np.float64)
    window_index[-1] = np.nan          # "%d" % nan raises
    m = FeatureMatrix(feature_names=("a",), X=np.zeros((n, 1)),
                      y=np.zeros(n, dtype=np.int8), window_index=window_index,
                      window_start_us=np.zeros(n, dtype=np.int64),
                      key_code=np.zeros(n, dtype=np.int32),
                      keys=np.array(["h"]))
    with pytest.raises(ValueError):
        write_matrix_csv(path, m)
    with open(path, "rb") as fh:
        assert fh.read() == b"previous\n"
    assert leftovers(tmp_path) == []


def test_undecodable_error_names_the_line_past_the_first_chunk(tmp_path):
    """A bad byte on line 5,000, far past the text reader's first decode
    chunk, is reported at its line and its offset in that line; the error
    keeps its type."""
    path = tmp_path / "big.csv"
    lines = [b"0123456789,abcdef,\xc3\xa9" for _ in range(6000)]
    lines[4999] = b"01234\xe9"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(UnicodeDecodeError) as info:
        with naming_undecodable(str(path)), \
                open(path, "r", encoding="utf-8") as fh:
            fh.read()
    assert info.value.start == 5
    assert str(info.value).endswith(
        f"invalid continuation byte ({path}, line 5000)")


# --- the forked block's lifecycle -------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


def _send_pid_and_wait(sink):
    """A forked task that sends its pid and never ends on its own."""
    sink.write(b"%d\n" % os.getpid())
    sink.flush()
    signal.pause()


@needs_fork
def test_forked_block_kills_and_reaps_every_child_on_interrupt():
    """An interrupt in the block kills every child, though its task would
    never end, and reaps it before the interrupt reaches the caller."""
    with pytest.raises(KeyboardInterrupt):
        with forked([_send_pid_and_wait] * 2) as sources:
            pids = [int(source.readline()) for source in sources]
            raise KeyboardInterrupt
    assert len(set(pids)) == 2 and os.getpid() not in pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# --- dealing work into shares ------------------------------------------------

@pytest.mark.parametrize("cores,units,smallest,forkable,want", [
    (1, 100, 1, "yes", 1),
    (2, 100, 1, "yes", 2),
    (8, 3, 1, "yes", 3),        # at most one share per unit
    (2, 0, 1, "yes", 1),
    (2, 8191, 4096, "yes", 1),  # no share below smallest
    (2, 8192, 4096, "yes", 2),
    (8, 5 * 4096 + 1, 4096, "yes", 5),
    (4, 100, 1, "no fork", 1),
    (4, 100, 1, "beside a thread", 1),
])
def test_shares(monkeypatch, cores, units, smallest, forkable, want):
    monkeypatch.setattr(flowsift._util, "usable_cores", lambda: cores)
    if forkable == "no fork":
        monkeypatch.delattr(os, "fork", raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if forkable == "beside a thread":
        thread.start()
    try:
        assert shares(units, smallest) == want
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)


def _share_work(i):
    """Share i's result: its index and the pid of the process that ran it."""
    return i, os.getpid()


@needs_fork
def test_in_shares_returns_results_in_share_order():
    results = in_shares(_share_work, 3, str)
    assert [i for i, _ in results] == [0, 1, 2]
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3


@needs_fork
def test_in_shares_raises_a_childs_exception_with_its_type():
    def work(i):
        if i == 2:
            raise LookupError(f"raised in share {i}")
        return i

    with pytest.raises(LookupError, match="raised in share 2"):
        in_shares(work, 3, str)


def _send_half_and_exit(work, sink):
    """A child's reply (send_result) cut short: the first half of its
    pickled result, then an exit."""
    data = pickle.dumps(work(), pickle.HIGHEST_PROTOCOL)
    sink.write(data[:len(data) // 2])
    sink.flush()
    os._exit(3)


@needs_fork
def test_in_shares_names_the_sender_of_a_child_that_sends_nothing():
    def work(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(ChildProcessError,
                       match="^the writer of share 1 ended without"):
        in_shares(work, 2, lambda i: f"the writer of share {i}")


@needs_fork
def test_in_shares_names_the_sender_of_a_child_that_sends_part_of_its_result(
        monkeypatch):
    """A reply cut off mid-pickle (UnpicklingError or EOFError on the
    reading side) is a child that ended without sending its result."""
    monkeypatch.setattr(flowsift._util, "send_result", _send_half_and_exit)
    with pytest.raises(ChildProcessError,
                       match="^the writer of share 1 ended without"):
        in_shares(lambda i: list(range(i * 1000)), 2,
                  lambda i: f"the writer of share {i}")


# --- the BLAS probe ----------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("parallel,children", [
    (0, 1), (1, 1), (2, 0), (None, 0)],
    ids=["sequential", "pthreads", "openmp", "no-probe"])
def test_blas_probe_decides_whether_a_sweep_forks(monkeypatch, parallel,
                                                  children):
    """OpenBLAS's parallel mode (openblas_get_parallel) 0 or 1 lets a
    two-build grid fork a worker on two cores; OpenMP, or no probe, keeps it
    in one process. Both builds of an empty capture fail, so no share calls
    BLAS."""
    monkeypatch.setattr(flowsift._util, "_blas_parallel", lambda: parallel)
    monkeypatch.setattr(flowsift._util, "usable_cores", lambda: 2)
    real = flowsift._util.forked
    forks = []

    def counting(tasks):
        forks.append(len(tasks))
        return real(tasks)

    monkeypatch.setattr(flowsift._util, "forked", counting)
    result = run_grid(FlowTable.from_records([]), widths=[90, 60],
                      strides=[15])
    assert [c.status for c in result.cells] == ["error:EmptyInput"] * 2
    assert sum(forks) == children


def test_blas_probe_reads_the_loaded_library():
    """numpy's bundled OpenBLAS reports its parallel mode: 0, 1 or 2."""
    parallel = flowsift._util._blas_parallel()
    if parallel is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS calls")
    assert parallel in (0, 1, 2)
