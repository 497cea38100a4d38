"""Bit-packed binary hypervectors.

Storage is little-endian throughout: bit i lives in packed byte i // 8 at
bit position i % 8, and bytes are grouped into 64-bit words in memory
order. Padding bits past `dim` are always zero, which makes equality,
hashing and popcounts safe on the raw words.

Wire format (HBV1): 4-byte magic b"HBV1", unsigned 64-bit little-endian
dimension, then ceil(dim / 8) payload bytes, LSB-first within each byte.
"""

import numpy as np

from .errors import DataFormatError, DimensionError

__all__ = ["BinaryHypervector", "hamming"]

MAGIC = b"HBV1"
_HEADER_LEN = 12


class BinaryHypervector:
    """Immutable D-dimensional binary vector packed into uint64 words."""

    __slots__ = ("dim", "words")

    def __init__(self, dim, words):
        dim = int(dim)
        if dim <= 0:
            raise DimensionError("hypervector dim must be positive")
        words = np.ascontiguousarray(words, dtype=np.uint64)
        n_words = (dim + 63) // 64
        if words.shape != (n_words,):
            raise DimensionError(
                f"expected {n_words} words for dim {dim}, got shape {words.shape}"
            )
        pad = n_words * 64 - dim
        if pad and int(words[-1]) >> (64 - pad):
            raise DataFormatError("padding bits beyond dim must be zero")
        words.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "words", words)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryHypervector is immutable")

    @classmethod
    def from_bits(cls, bits):
        bits = np.asarray(bits)
        if bits.ndim != 1 or bits.size == 0:
            raise DimensionError("bits must be a nonempty 1-D array")
        packed = np.packbits(bits.astype(np.uint8), bitorder="little")
        return cls._from_packed_bytes(bits.size, packed.tobytes())

    @classmethod
    def _from_packed_bytes(cls, dim, payload):
        n_words = (dim + 63) // 64
        buf = payload.ljust(n_words * 8, b"\x00")
        return cls(dim, np.frombuffer(buf, dtype="<u8").copy())

    def to_bits(self):
        """Unpacked uint8 array of length dim, entries in {0, 1}."""
        as_bytes = self.words.view(np.uint8)
        return np.unpackbits(as_bytes, bitorder="little")[: self.dim]

    def popcount(self):
        return int(np.bitwise_count(self.words).sum())

    def packed_payload(self):
        """The ceil(dim / 8) payload bytes (no header)."""
        return self.words.tobytes()[: (self.dim + 7) // 8]

    def to_bytes(self):
        return MAGIC + self.dim.to_bytes(8, "little") + self.packed_payload()

    @classmethod
    def from_bytes(cls, data):
        if data[:4] != MAGIC:
            raise DataFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
        if len(data) < _HEADER_LEN:
            raise DataFormatError("truncated header", offset=len(data))
        dim = int.from_bytes(data[4:12], "little")
        if dim == 0:
            raise DataFormatError("dim must be positive", offset=4)
        payload_len = (dim + 7) // 8
        if len(data) != _HEADER_LEN + payload_len:
            raise DataFormatError(
                f"payload length {len(data) - _HEADER_LEN}, expected {payload_len}",
                offset=min(len(data), _HEADER_LEN + payload_len),
            )
        # bits past dim can only be set in the payload's last byte
        if dim % 8 and data[-1] >> (dim % 8):
            raise DataFormatError("padding bits beyond dim must be zero",
                                  offset=_HEADER_LEN + payload_len - 1)
        return cls._from_packed_bytes(dim, data[_HEADER_LEN:])

    def __eq__(self, other):
        if not isinstance(other, BinaryHypervector):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.words, other.words))

    def __hash__(self):
        return hash((self.dim, self.words.tobytes()))

    def __len__(self):
        return self.dim

    def __repr__(self):
        return f"BinaryHypervector(dim={self.dim}, popcount={self.popcount()})"


def hamming(a, b):
    """Number of differing bits between two hypervectors of equal dim."""
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    return int(np.bitwise_count(a.words ^ b.words).sum())
