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
