"""binfile.Reader's positioned reads: several buffers filled by one read,
a read cut short by the operating system continued where it stopped, a
file that shrank under the reader failed with the loader's error, and the
read-ahead run that fields are served from."""

import os

import numpy as np
import pytest

from cosd.binfile import Reader

PAYLOAD = bytes(range(4, 60))  # 56 bytes after the magic


class Bad(Exception):
    pass


@pytest.fixture
def path(tmp_path):
    path = tmp_path / "file.bin"
    path.write_bytes(b"TEST" + PAYLOAD)
    return path


def _buffers():
    return (bytearray(5), np.empty((3, 2), dtype="<f4"),
            np.empty(0, dtype="<f8"), bytearray(27))


def test_read_into_fills_every_buffer_in_order_with_one_read(path,
                                                             monkeypatch):
    calls = []
    preadv = os.preadv

    def counting(fd, buffers, offset):
        calls.append(offset)
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", counting)
    outs = _buffers()
    with Reader(path, Bad, b"TEST") as src:
        src.read_into(*outs)
        assert src.off == 4 + 56
    assert calls == [4]
    assert b"".join(map(bytes, outs)) == PAYLOAD


@pytest.mark.parametrize("cap", [1, 3, 5, 24, 30])
def test_read_into_reads_on_past_a_short_return(path, monkeypatch, cap):
    # one read returns at most about 2 GiB; stand that limit in with cap
    preadv = os.preadv

    def capped(fd, buffers, offset):
        got = preadv(fd, buffers, offset)
        return min(got, cap)

    monkeypatch.setattr(os, "preadv", capped)
    outs = _buffers()
    with Reader(path, Bad, b"TEST") as src:
        src.read_into(*outs)
        assert src.off == 4 + 56
    assert b"".join(map(bytes, outs)) == PAYLOAD


def test_read_into_fails_a_file_that_shrank_under_it(path):
    with Reader(path, Bad, b"TEST") as src:
        src.skip(6)
        path.write_bytes(b"TEST" + PAYLOAD[:20])
        with pytest.raises(Bad, match="file.bin: short read, 14 of 50 "
                                      "bytes at byte 10$"):
            src.read_into(bytearray(50))


def test_ahead_reads_up_to_256_bytes_and_leaves_the_cursor(tmp_path):
    path = tmp_path / "long.bin"
    body = bytes(range(256)) * 2
    path.write_bytes(b"TEST" + body)
    with Reader(path, Bad, b"TEST") as src:
        assert src.ahead() == body[:256]
        assert src.off == 4
        src.seek(4 + 400)
        assert src.ahead() == body[400:]
        assert src.unpack("<4B") == tuple(body[400:404])
        src.seek(4 + len(body))
        assert src.ahead() == b""
