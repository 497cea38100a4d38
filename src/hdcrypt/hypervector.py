"""Binary hypervectors: the D bits of one thresholded crossbar read.

A hypervector stores its bits packed LSB-first in ceil(D / 8) uint8
bytes: bit i lives in byte i // 8 at bit position i % 8, and the padding
bits past D are zero. That is exactly one block of an HLCT ciphertext
(see textcrypto): `CipherText.packed` holds one such row per character,
`CipherText.blocks` views each row as a hypervector without a copy, and a
hypervector's file is a one-block HLCT file. Zero padding makes equality,
hashing and popcounts safe on the raw bytes.
"""

import numpy as np

from .errors import DataFormatError, DimensionError

__all__ = ["BinaryHypervector"]


def _first_bad_padding(dim, packed):
    """Index of the first row of the (n, ceil(dim / 8)) uint8 matrix
    `packed` with a set bit past `dim`, or None."""
    used = dim % 8
    if not used:
        return None
    bad = np.flatnonzero(packed[:, -1] >> used)
    return int(bad[0]) if bad.size else None


class BinaryHypervector:
    """Immutable D-dimensional binary vector: one packed HLCT block."""

    __slots__ = ("dim", "packed")

    def __init__(self, dim, packed):
        dim = int(dim)
        if dim <= 0:
            raise DimensionError("hypervector dim must be positive")
        packed = np.ascontiguousarray(packed)
        if packed.dtype != np.uint8:
            raise TypeError(f"packed bits must be uint8, got {packed.dtype}")
        if packed.shape != ((dim + 7) // 8,):
            raise DimensionError(
                f"expected {(dim + 7) // 8} bytes for dim {dim}, got shape {packed.shape}")
        if _first_bad_padding(dim, packed[None]) is not None:
            raise DataFormatError("padding bits beyond dim must be zero")
        packed.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "packed", packed)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryHypervector is immutable")

    @classmethod
    def from_bits(cls, bits):
        bits = np.asarray(bits)
        if bits.ndim != 1 or bits.size == 0:
            raise DimensionError("bits must be a nonempty 1-D array")
        return cls(bits.size, np.packbits(bits.astype(np.uint8), bitorder="little"))

    def to_bits(self):
        """Unpacked uint8 array of length dim, entries in {0, 1}."""
        return np.unpackbits(self.packed, count=self.dim, bitorder="little")

    def popcount(self):
        return int(np.bitwise_count(self.packed).sum())

    def __eq__(self, other):
        if not isinstance(other, BinaryHypervector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.packed, other.packed))

    def __hash__(self):
        return hash((self.dim, self.packed.tobytes()))

    def __len__(self):
        return self.dim

    def __repr__(self):
        return f"BinaryHypervector(dim={self.dim}, popcount={self.popcount()})"
