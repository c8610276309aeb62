"""Checks shared by every test module."""
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or not yet
    reaped: a forked ingest range parser or sweep worker, or a subprocess."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (pid {pid or '?'}, "
                f"{'exited' if pid else 'still running'})")


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """Fail a test that leaves a ".tmp-...~" file (_util.temp_beside)
    anywhere under its tmp_path: the temp file of an atomic write, or a part
    file of a forked row-range writer, that was neither renamed nor
    unlinked."""
    tmp_path = (request.getfixturevalue("tmp_path")
                if "tmp_path" in request.fixturenames else None)
    yield
    if tmp_path is None:
        return
    left = sorted(str(p.relative_to(tmp_path))
                  for p in tmp_path.rglob(".tmp-*~"))
    if left:
        pytest.fail(f"the test left temp files behind: {left}")
