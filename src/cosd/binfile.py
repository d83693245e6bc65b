"""Bounds-checked reads of the little-endian artifact files (LDA3, EMB1, CPA2).

A loader opens its file through a Reader that carries the loader's own error
class. A wrong magic, a read past the end, an undecodable string or trailing
bytes raise that error naming the file and the byte offset, never a bare
struct.error or ValueError. The Reader streams the file: every read is
checked against the file's size before it is made, and no copy of the whole
file is held. Every read is positioned (os.pread, os.preadv), so none costs
a seek of the file.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

_U32 = struct.Struct("<I")
# bytes read at once for fields: an EMB1 record's header (its id length, an
# id of up to 248 bytes and its row count) comes in one read of the file
_AHEAD = 256
F32 = np.dtype("<f4")
F64 = np.dtype("<f8")


class Reader:
    """Reads from one open file, in order from a cursor that seek() and
    skip() move without touching the file; use it as a context manager.

    Fields are served from a run of bytes read ahead of the cursor: a
    field the run does not hold refills it with one read of 256 bytes at
    the cursor (more for a longer field, fewer at the end of the file), so
    a small header read after a seek costs one small read of the file.

    Arrays are read only by read_into, into buffers the loader allocates,
    straight from the file; a loader checks a table's size with need()
    before it allocates it, so a header that claims more data than the
    file holds fails first.
    """

    def __init__(self, path: str | Path, error: type[Exception],
                 magic: bytes):
        self.path = Path(path)
        self.error = error
        self.off = 0
        self._run, self._run_at = b"", 0  # bytes read ahead, from _run_at
        self._fh = open(self.path, "rb", buffering=0)
        try:
            self._fd = self._fh.fileno()
            self.size = os.fstat(self._fd).st_size
            if os.pread(self._fd, len(magic), 0) != magic:
                raise error(f"{self.path}: bad magic, not a "
                            f"{magic.decode('ascii')} file")
        except BaseException:
            self._fh.close()
            raise
        self.off = len(magic)

    def __enter__(self) -> Reader:
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def fail(self, what: str, off: int | None = None) -> Exception:
        """The loader's error for a problem at `off` (default: the cursor)."""
        off = self.off if off is None else off
        return self.error(f"{self.path}: {what} at byte {off}")

    def left(self) -> int:
        """Bytes between the cursor and the end of the file."""
        return self.size - self.off

    def need(self, n: int) -> None:
        """Raise the loader's error unless n more bytes lie in the file."""
        if n > self.left():
            raise self.fail(f"truncated, {n} bytes needed but "
                            f"{self.left()} left")

    def ahead(self) -> bytes:
        """Up to 256 bytes from the cursor (fewer at the end of the file),
        from one read; the cursor stays, and fields read next are served
        from these bytes while they hold them."""
        self._run = os.pread(self._fd, min(_AHEAD, self.size - self.off),
                             self.off)
        self._run_at = self.off
        return self._run

    def _take(self, n: int) -> int:
        """Where the next n bytes start in the run, which is refilled when
        it does not hold them all; the cursor moves past them."""
        at = self.off - self._run_at
        if not 0 <= at <= len(self._run) - n:
            self.need(n)
            self._run, self._run_at, at = (
                os.pread(self._fd, min(max(n, _AHEAD), self.left()),
                         self.off),
                self.off, 0)
            if len(self._run) < n:
                raise self.fail(f"short read, {len(self._run)} of {n} bytes")
        self.off += n
        return at

    def read_into(self, *outs: np.ndarray | bytearray) -> None:
        """Fill the C-contiguous buffers `outs` from the file, in order and
        byte for byte, with one read and no intermediate copy."""
        views = [memoryview(out) for out in outs]
        want = sum(view.nbytes for view in views)
        self.need(want)
        got = 0
        while True:
            step = os.preadv(self._fd, views, self.off + got)
            got += step
            if got == want:
                break
            if not step:
                raise self.fail(f"short read, {got} of {want} bytes")
            # one read returns at most about 2 GiB: read on past its end
            views = [view.cast("B") for view in views if view.nbytes]
            while step >= len(views[0]):
                step -= len(views.pop(0))
            views[0] = views[0][step:]
        self.off += got

    def seek(self, off: int) -> None:
        """Move the cursor to byte `off`, which must lie in the file."""
        if off > self.size:
            raise self.fail(f"truncated, byte {off} is past the end",
                            self.size)
        self.off = off

    def skip(self, n: int) -> None:
        """Move the cursor n bytes on, unread; they must lie in the file."""
        self.need(n)
        self.off += n

    def unpack(self, fmt: str) -> tuple:
        at = self._take(struct.calcsize(fmt))
        return struct.unpack_from(fmt, self._run, at)

    def u32(self) -> int:
        at = self._take(4)
        return _U32.unpack_from(self._run, at)[0]

    def text(self, n: int) -> str:
        at = self._take(n)
        try:
            return self._run[at:at + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail("invalid UTF-8", self.off - n) from exc

    def finish(self) -> None:
        if self.off != self.size:
            raise self.fail("trailing bytes, file corrupt")
