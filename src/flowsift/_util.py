"""Small shared helpers: atomic file writes and number formatting."""
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


def fmt_g9(value: float) -> str:
    """Render a real with 9 significant digits ("%.9g")."""
    return f"{float(value):.9g}"
