"""Grayscale image file I/O: binary PGM (P5) files and IDX image files.

IDX follows the classic big-endian layout: images carry magic 0x00000803
then count / rows / cols as unsigned 32-bit integers and one byte per
pixel. Pixel bytes map linearly onto [0, 1] (value / 255).
"""

import struct

import numpy as np

from .errors import DataFormatError

__all__ = [
    "read_pgm",
    "write_pgm",
    "read_idx_images",
]

IDX_IMAGES_MAGIC = 0x00000803


def write_pgm(path, pixels):
    """Write a float image in [0, 1] as binary PGM with maxval 255."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2:
        raise DataFormatError("PGM output needs a 2-D array")
    data = np.rint(np.clip(pixels, 0.0, 1.0) * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _read_pgm_token(data, pos):
    # skip whitespace and '#' comment lines between header tokens
    while pos < len(data):
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DataFormatError("truncated PGM header", offset=start)
    return data[start:pos], pos


def read_pgm(path):
    """Read a binary PGM into a float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise DataFormatError(f"bad PGM magic {data[:2]!r}", offset=0)
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_pgm_token(data, pos)
        try:
            fields.append(int(token))
        except ValueError:
            raise DataFormatError(f"bad PGM header token {token!r}", offset=pos) from None
        if name != "maxval" and fields[-1] < 1:
            raise DataFormatError(f"PGM {name} {fields[-1]} is below 1", offset=pos - len(token))
    width, height, maxval = fields
    if maxval != 255:
        raise DataFormatError(f"unsupported PGM maxval {maxval}", offset=pos)
    pos = min(pos + 1, len(data))  # single whitespace byte after maxval
    expected = width * height
    if len(data) - pos < expected:
        raise DataFormatError(
            f"PGM payload has {len(data) - pos} bytes, expected {expected}", offset=len(data)
        )
    raw = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    return raw.reshape(height, width).astype(np.float64) / 255.0


def read_idx_images(path):
    """Read an IDX image file into (n, rows, cols) floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise DataFormatError("truncated IDX image header", offset=len(data))
    magic, n, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError(f"bad IDX image magic 0x{magic:08x}", offset=0)
    expected = n * rows * cols
    if len(data) - 16 != expected:
        raise DataFormatError(
            f"IDX payload has {len(data) - 16} bytes, expected {expected}",
            offset=min(len(data), 16 + expected),
        )
    raw = np.frombuffer(data, dtype=np.uint8, offset=16)
    try:
        return raw.reshape(n, rows, cols).astype(np.float64) / 255.0
    except ValueError:  # no images, but rows x cols past numpy's array size
        raise DataFormatError(f"IDX image size {rows}x{cols} is too large", offset=8) from None
