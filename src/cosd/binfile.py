"""Bounds-checked reads of the little-endian artifact files (LDA1, EMB1, CPA1).

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
    """Sequential reads from one open file; use it as a context manager."""

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

    def _read(self, n: int) -> bytes:
        if n > self.left():
            raise self.fail(f"truncated, {n} bytes needed but "
                            f"{self.left()} left")
        data = self._fh.read(n)
        if len(data) != n:
            raise self.fail(f"short read, {len(data)} of {n} bytes")
        self.off += n
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self._read(struct.calcsize(fmt)))

    def u32(self) -> int:
        return _U32.unpack(self._read(4))[0]

    def array(self, dtype: np.dtype, count: int) -> np.ndarray:
        """`count` values of `dtype`, read-only."""
        return np.frombuffer(self._read(dtype.itemsize * count), dtype=dtype)

    def text(self, n: int) -> str:
        start = self.off
        try:
            return self._read(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail("invalid UTF-8", start) from exc

    def finish(self) -> None:
        if self.off != self.size:
            raise self.fail("trailing bytes, file corrupt")
