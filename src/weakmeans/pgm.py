"""PGM grayscale image reader (P2 and P5) and writer (P5).

Intensities are stored internally as floats in [0, 1] (level / maxval) and
written back as round(v * maxval), so a read/write round trip is lossless at
the source maxval.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class PgmError(ValueError):
    pass


@dataclass
class GrayImage:
    pixels: np.ndarray  # (height, width) float64 in [0, 1]
    maxval: int = 255

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-d array")
        if not 1 <= self.maxval <= 65535:
            raise ValueError("maxval must be in 1..65535")
        if not np.all((self.pixels >= 0) & (self.pixels <= 1)):  # NaN fails both
            raise ValueError("intensities must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


# The magic, then width, height and maxval, each after whitespace or # comments
# (to the end of the line), then the single whitespace byte ending the header.
_HEADER = re.compile(rb"P[25]" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_pgm(data: bytes) -> GrayImage:
    if data[:2] not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic {data[:2]!r}")
    header = _HEADER.match(data)
    if header is None:
        raise PgmError("truncated or malformed header")
    width, height, maxval = map(int, header.groups())
    offset = header.end()
    if width <= 0 or height <= 0:
        raise PgmError("non-positive image dimensions")
    if not 1 <= maxval <= 65535:
        raise PgmError(f"maxval {maxval} out of range 1..65535")
    count = width * height
    if data[:2] == b"P2":
        fields = data[offset:].split()
        if len(fields) < count:
            raise PgmError("truncated P2 payload")
        try:
            levels = np.array([int(f) for f in fields[:count]], dtype=np.int64)
        except ValueError as exc:
            raise PgmError("non-integer P2 sample") from exc
    else:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        nbytes = count * dtype.itemsize
        payload = data[offset : offset + nbytes]
        if len(payload) < nbytes:
            raise PgmError("truncated P5 payload")
        levels = np.frombuffer(payload, dtype=dtype).astype(np.int64)
    if np.any(levels < 0) or np.any(levels > maxval):
        raise PgmError("sample value exceeds maxval")
    pixels = levels.reshape(height, width) / maxval
    return GrayImage(pixels=pixels, maxval=maxval)


def write_pgm(img: GrayImage) -> bytes:
    """The image as P5, with 16-bit big-endian samples when maxval > 255."""
    levels = np.rint(img.pixels * img.maxval).astype(np.int64)
    levels = np.clip(levels, 0, img.maxval)
    header = f"P5\n{img.width} {img.height}\n{img.maxval}\n"
    dtype = np.dtype(">u2") if img.maxval > 255 else np.dtype("u1")
    return header.encode("ascii") + levels.astype(dtype).tobytes()
