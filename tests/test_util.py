"""Atomic writes (a failed write leaves the previous file and no temp
file) and the path:line restatement of undecodable input."""
import os

import numpy as np
import pytest

from flowsift import FeatureMatrix, write_matrix_csv
from flowsift._util import atomic_open, atomic_write_text, naming_undecodable


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
                      src_addr=np.array(["h"] * n))
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
