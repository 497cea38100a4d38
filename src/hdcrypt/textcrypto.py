"""Character-level encryption through a crossbar encoder.

Each supported character owns a secret low-dimensional vector; encryption
maps a character to its vector, pushes it through one noisy crossbar read
and thresholds the result into a block of ciphertext bits. Decryption
feeds each block to a trained softmax decoder and takes the argmax class.

Both directions work on the whole text at once, and a single character
is a text of length one.

The charset is the 94 printable ASCII code points 32..125. Code point 126
('~') is deliberately excluded to keep the class count at exactly 94; see
the README's charset note.

Ciphertext wire format (HLCT): 4-byte magic b"HLCT", unsigned 64-bit
little-endian block count, 64-bit dim, then one ceil(dim / 8)-byte packed
payload per block (LSB-first bytes, zero padding bits past dim, no
per-block header). These rows, `CipherText.packed`, are the only packed
bits the package uses; everywhere else bits are uint8 arrays of 0s and 1s.
"""

from dataclasses import dataclass

import numpy as np

from . import jsondoc
from .blocks import GEMM_ROWS, block_size, block_slices
from .decoder import HEAD_SOFTMAX, _check_set
from .encoder import encode_crossbar_batch
from .errors import CharsetError, DataFormatError, DimensionError, require_int
from .rng import spawn_rng

__all__ = [
    "CHARSET",
    "NUM_CLASSES",
    "text_to_classes",
    "SecretKeyTable",
    "CipherText",
    "encrypt_text",
    "decrypt_text",
    "build_dataset",
    "uniqueness_stats",
    "UniquenessStats",
    "evaluate_accuracy",
]

CHARSET = "".join(chr(c) for c in range(32, 126))
NUM_CLASSES = len(CHARSET)
_CHARSET_KEYS = frozenset(CHARSET)
_CT_MAGIC = b"HLCT"
_CT_HEADER_LEN = 20


def text_to_classes(text):
    """Class index of every character of `text`, as one int64 array;
    CharsetError names the first character outside the charset."""
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    bad = np.flatnonzero((codes < 32) | (codes >= 32 + NUM_CLASSES))
    if bad.size:
        raise CharsetError(text[bad[0]], int(bad[0]))
    return codes.astype(np.int64) - 32


class SecretKeyTable:
    """One secret vector of length key_dim per supported character."""

    __slots__ = ("key_dim", "seed", "vectors")

    def __init__(self, key_dim, seed, vectors):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.shape != (NUM_CLASSES, key_dim):
            raise DimensionError(
                f"vectors shape {vectors.shape}, expected ({NUM_CLASSES}, {key_dim})"
            )
        if not np.all(np.abs(vectors) <= 1):
            raise DataFormatError("secret 'vectors' entries must lie in [-1, 1]")
        if len(np.unique(vectors, axis=0)) != NUM_CLASSES:
            raise DataFormatError("secret 'vectors' must be pairwise distinct")
        vectors.setflags(write=False)
        object.__setattr__(self, "key_dim", int(key_dim))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "vectors", vectors)

    def __setattr__(self, name, value):
        raise AttributeError("SecretKeyTable is immutable")

    def vectors_for(self, xbar):
        """The key vectors, checked to drive the crossbar: one entry per row."""
        if self.key_dim != xbar.rows:
            raise DimensionError(f"key_dim {self.key_dim} != crossbar rows {xbar.rows}")
        return self.vectors

    @classmethod
    def new_random(cls, key_dim, seed):
        """Entries i.i.d. uniform in [-1, 1]. A new seed is a new cryptosystem
        on the same crossbar."""
        require_int("key_dim", key_dim, low=1)
        rng = spawn_rng(seed, "secret-keys")
        vectors = rng.uniform(-1.0, 1.0, size=(NUM_CLASSES, key_dim))
        return cls(key_dim, seed, vectors)

    def save(self, path):
        jsondoc.save(path, "secret-keys", {
            "key_dim": self.key_dim,
            "seed": self.seed,
            "vectors": {ch: self.vectors[i].tolist() for i, ch in enumerate(CHARSET)},
        })

    @classmethod
    def load(cls, path):
        doc = jsondoc.load(path, "secret-keys", ("key_dim", "seed", "vectors"))
        key_dim = jsondoc.integer(doc, "key_dim", "secret-keys", low=1)
        table = doc["vectors"]
        if not isinstance(table, dict) or not table.keys() >= _CHARSET_KEYS:
            raise DataFormatError("secret-keys field 'vectors' needs one vector per character")
        if len(table) > NUM_CLASSES:
            unknown = next(key for key in table if key not in _CHARSET_KEYS)
            raise DataFormatError(f"secret-keys field 'vectors' has a vector for "
                                  f"unknown character {unknown!r}")
        vectors = jsondoc.numbers([table[ch] for ch in CHARSET], "vectors", "secret-keys",
                                  (NUM_CLASSES, key_dim))
        return cls(key_dim, jsondoc.integer(doc, "seed", "secret-keys"), vectors)


def _first_bad_padding(dim, packed):
    """Index of the first row of the (n, ceil(dim / 8)) uint8 matrix
    `packed` with a set bit past `dim`, or None."""
    used = dim % 8
    if not used:
        return None
    bad = np.flatnonzero(packed[:, -1] >> used)
    return int(bad[0]) if bad.size else None


class CipherText:
    """Ordered ciphertext blocks, one per plaintext character.

    `packed` is one read-only (n, ceil(dim / 8)) uint8 matrix, row i the
    LSB-first packed bits of block i with zero padding bits past `dim`:
    exactly the HLCT payload.
    """

    __slots__ = ("dim", "packed")

    def __init__(self, dim, packed):
        require_int("dim", dim, low=0)
        dim = int(dim)
        packed = np.ascontiguousarray(packed)
        if packed.dtype != np.uint8:
            raise DimensionError(f"packed blocks must be uint8, got {packed.dtype}")
        if packed.ndim != 2 or packed.shape[1] != (dim + 7) // 8:
            raise DimensionError(
                f"packed blocks shape {packed.shape}, expected (n, {(dim + 7) // 8})")
        if dim == 0 and len(packed):
            raise DimensionError("dim must be positive for nonempty ciphertext")
        bad = _first_bad_padding(dim, packed)
        if bad is not None:     # offset: the block's last byte in the HLCT bytes
            raise DataFormatError(f"padding bits beyond dim must be zero in block {bad}",
                                  offset=_CT_HEADER_LEN + (bad + 1) * packed.shape[1] - 1)
        packed.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "packed", packed)

    def __setattr__(self, name, value):
        raise AttributeError("CipherText is immutable")

    def __len__(self):
        return len(self.packed)

    def __eq__(self, other):
        if not isinstance(other, CipherText):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.packed, other.packed))

    def __hash__(self):
        return hash((self.dim, self.packed.tobytes()))

    def __repr__(self):
        return f"CipherText(dim={self.dim}, blocks={len(self)})"

    def bit_matrix(self):
        """Unpacked (n, dim) uint8 array of the blocks' bits."""
        return np.unpackbits(self.packed, axis=1, count=self.dim, bitorder="little")

    def to_bytes(self):
        header = _CT_MAGIC + len(self).to_bytes(8, "little") + self.dim.to_bytes(8, "little")
        return header + self.packed.tobytes()

    @classmethod
    def from_bytes(cls, data):
        data = bytes(data)  # `packed` views these bytes, so they must not change
        if data[:4] != _CT_MAGIC:
            raise DataFormatError(f"bad magic {data[:4]!r}, expected {_CT_MAGIC!r}", offset=0)
        if len(data) < _CT_HEADER_LEN:
            raise DataFormatError("truncated header", offset=len(data))
        count = int.from_bytes(data[4:12], "little")
        dim = int.from_bytes(data[12:20], "little")
        if count and dim == 0:
            raise DataFormatError("dim must be positive for nonempty ciphertext", offset=12)
        block_len = (dim + 7) // 8
        expected = _CT_HEADER_LEN + count * block_len
        if len(data) != expected:
            whole = 0 if block_len == 0 else (len(data) - _CT_HEADER_LEN) // block_len
            raise DataFormatError(
                f"expected {count} blocks of {block_len} bytes, data ends inside block {whole}",
                offset=_CT_HEADER_LEN + min(whole, count) * block_len,
            )
        packed = np.frombuffer(data, dtype=np.uint8, offset=_CT_HEADER_LEN)
        return cls(dim, packed.reshape(count, block_len))

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def encrypt_text(text, keys, xbar, epsilon, rng):
    """Encrypt a string block by block; each block gets fresh read noise."""
    bits = encode_crossbar_batch(xbar, keys.vectors_for(xbar)[text_to_classes(text)], epsilon, rng)
    return CipherText(xbar.cols, np.packbits(bits, axis=1, bitorder="little"))


def decrypt_text(ct, model):
    """Argmax class per block, mapped back to characters.

    The blocks are unpacked a GEMM-aligned chunk at a time (512 at
    D = 500), the rows `predict_classes` itself scores at a time, so no
    array of every block's bits is made and the text is that of
    `predict_classes(ct.bit_matrix())`.
    """
    if model.out_dim != NUM_CLASSES:
        raise DimensionError(f"decoder emits {model.out_dim} classes, expected {NUM_CLASSES}")
    if len(ct) == 0:
        return ""
    if ct.dim != model.in_dim:
        raise DimensionError(f"ciphertext dim {ct.dim}, decoder expects {model.in_dim}")
    codes = np.empty(len(ct), dtype=np.uint8)
    for chunk in block_slices(len(ct), block_size(ct.dim, GEMM_ROWS)):
        bits = np.unpackbits(ct.packed[chunk], axis=1, count=ct.dim, bitorder="little")
        codes[chunk] = model.predict_classes(bits) + 32
    return codes.tobytes().decode("ascii")


def build_dataset(n, keys, xbar, epsilon, rng):
    """n uniformly random characters, each encrypted once.

    Returns (features, labels): one row of uint8 ciphertext bits and the
    class index of each character.
    """
    require_int("n", n, low=1)
    vectors = keys.vectors_for(xbar)
    labels = rng.integers(0, NUM_CLASSES, size=n)
    features = encode_crossbar_batch(xbar, vectors[labels], epsilon, rng)
    return features, labels


@dataclass(frozen=True)
class UniquenessStats:
    distinct_fraction: float
    mean_pairwise_hamming: float


def uniqueness_stats(char, n_passes, keys, xbar, epsilon, rng):
    """Re-encode one character n_passes times and measure ciphertext spread.

    distinct_fraction is (# distinct blocks) / n_passes;
    mean_pairwise_hamming is averaged over all unordered pairs and
    normalized by the block dimension.
    """
    require_int("n_passes", n_passes, low=2)
    vecs = keys.vectors_for(xbar)[text_to_classes(char)]
    if len(vecs) != 1:
        raise DimensionError(f"expected one character, got {char!r}")
    bits = encode_crossbar_batch(xbar, np.repeat(vecs, n_passes, axis=0), epsilon, rng)
    distinct = len({row.tobytes() for row in bits})
    ones = bits.sum(axis=0, dtype=np.int64)
    differing_pairs = float(np.sum(ones * (n_passes - ones)))
    n_pairs = n_passes * (n_passes - 1) / 2
    return UniquenessStats(
        distinct_fraction=distinct / n_passes,
        mean_pairwise_hamming=differing_pairs / n_pairs / xbar.cols,
    )


def evaluate_accuracy(model, test_set):
    """Fraction of blocks whose argmax class matches the label. The set
    must hold blocks of the model's width and one integer class index in
    [0, model.out_dim) per block; anything else raises DimensionError."""
    features, labels = _check_set("test", test_set, HEAD_SOFTMAX, model.in_dim, model.out_dim)
    return float(np.mean(model.predict_classes(features) == labels))
