"""Bounds-checked reads of the little-endian artifact files (LDA2, EMB1, CPA2).

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
F32 = np.dtype("<f4")
F64 = np.dtype("<f8")
I64 = np.dtype("<i8")


class Reader:
    """Reads from one open file, in order from a cursor that seek() may
    move; use it as a context manager.

    Arrays are read only by read_into, into arrays the loader allocates;
    a loader checks a table's size with need() before it allocates it, so a
    header that claims more data than the file holds fails first.
    """

    def __init__(self, path: str | Path, error: type[Exception],
                 magic: bytes):
        self.path = Path(path)
        self.error = error
        self.off = 0
        self._fh = open(self.path, "rb")
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

    def _read(self, n: int) -> bytes:
        self.need(n)
        data = self._fh.read(n)
        if len(data) != n:
            raise self.fail(f"short read, {len(data)} of {n} bytes")
        self.off += n
        return data

    def read_into(self, out: np.ndarray) -> None:
        """Fill the C-contiguous array `out` from the file, byte for byte,
        with no intermediate copy."""
        if not out.nbytes:
            return  # a zero-length view cannot be cast to bytes
        view = memoryview(out).cast("B")
        self.need(len(view))
        got = self._fh.readinto(view)
        if got != len(view):
            raise self.fail(f"short read, {got} of {len(view)} bytes")
        self.off += got

    def seek(self, off: int) -> None:
        """Move the cursor to byte `off`, which must lie in the file."""
        if off > self.size:
            raise self.fail(f"truncated, byte {off} is past the end",
                            self.size)
        self._fh.seek(off)
        self.off = off

    def skip(self, n: int) -> None:
        """Move the cursor n bytes on, unread; they must lie in the file."""
        self.need(n)
        self._fh.seek(n, os.SEEK_CUR)
        self.off += n

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._read(struct.calcsize(fmt)))

    def u32(self) -> int:
        return _U32.unpack(self._read(4))[0]

    def text(self, n: int) -> str:
        start = self.off
        try:
            return self._read(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail("invalid UTF-8", start) from exc

    def finish(self) -> None:
        if self.off != self.size:
            raise self.fail("trailing bytes, file corrupt")
