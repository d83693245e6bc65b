"""Bounds-checked reads of the little-endian artifact files (LDA3, EMB1, CPA2).

A loader opens its file through a Reader that carries the loader's own error
class. A wrong magic, a read past the end, an undecodable string or trailing
bytes raise that error naming the file and the byte offset, never a bare
struct.error or ValueError. The Reader streams the file: every read is
checked against the file's size before it is made, and no copy of the whole
file is held.
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

    Arrays are read only by read_into, into arrays the loader allocates,
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
            self.size = os.fstat(self._fh.fileno()).st_size
            if self._fh.read(len(magic)) != magic:
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

    def _take(self, n: int) -> int:
        """Where the next n bytes start in the run, which is refilled when
        it does not hold them all; the cursor moves past them."""
        at = self.off - self._run_at
        if not 0 <= at <= len(self._run) - n:
            self.need(n)
            self._fh.seek(self.off)
            self._run, self._run_at, at = (
                self._fh.read(min(max(n, _AHEAD), self.left())),
                self.off, 0)
            if len(self._run) < n:
                raise self.fail(f"short read, {len(self._run)} of {n} bytes")
        self.off += n
        return at

    def read_into(self, out: np.ndarray) -> None:
        """Fill the C-contiguous array `out` from the file, byte for byte,
        with no intermediate copy."""
        if not out.nbytes:
            return  # a zero-length view cannot be cast to bytes
        view = memoryview(out).cast("B")
        self.need(len(view))
        self._fh.seek(self.off)
        got = 0
        while got < len(view):  # one read returns at most about 2 GiB
            step = self._fh.readinto(view[got:])
            if not step:
                raise self.fail(f"short read, {got} of {len(view)} bytes")
            got += step
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
