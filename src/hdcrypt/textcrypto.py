"""Character-level encryption through a crossbar encoder.

Each supported character owns a secret low-dimensional vector; encryption
maps a character to its vector, pushes it through one noisy crossbar read
and thresholds the result into a binary hypervector block. Decryption
feeds each block to a trained softmax decoder and takes the argmax class.

Both directions work on the whole text at once, and a single character
is a text of length one.

The charset is the 94 printable ASCII code points 32..125. Code point 126
('~') is deliberately excluded to keep the class count at exactly 94; see
the README's charset note.

Ciphertext wire format (HLCT): 4-byte magic b"HLCT", unsigned 64-bit
little-endian block count, 64-bit dim, then one ceil(dim / 8)-byte packed
payload per block (LSB-first bytes, no per-block header).
"""

from dataclasses import dataclass

import numpy as np

from . import jsondoc
from .encoder import encode_crossbar_batch
from .errors import CharsetError, DataFormatError, DimensionError
from .hypervector import BinaryHypervector, _first_bad_padding
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

    @classmethod
    def new_random(cls, key_dim, seed):
        """Entries i.i.d. uniform in [-1, 1]. A new seed is a new cryptosystem
        on the same crossbar."""
        if key_dim < 1:
            raise DimensionError("key_dim must be >= 1")
        rng = spawn_rng(seed, "secret-keys")
        vectors = rng.uniform(-1.0, 1.0, size=(NUM_CLASSES, key_dim))
        return cls(key_dim, seed, vectors)

    def to_json_dict(self):
        return jsondoc.envelope("secret-keys", {
            "key_dim": self.key_dim,
            "seed": self.seed,
            "vectors": {ch: self.vectors[i].tolist() for i, ch in enumerate(CHARSET)},
        })

    @classmethod
    def from_json_dict(cls, doc):
        jsondoc.check(doc, "secret-keys", ("key_dim", "seed", "vectors"))
        key_dim = jsondoc.integer(doc, "key_dim", "secret-keys", low=1)
        table = doc["vectors"]
        if not isinstance(table, dict) or not table.keys() >= set(CHARSET):
            raise DataFormatError("secret-keys field 'vectors' needs one vector per character")
        vectors = jsondoc.numbers([table[ch] for ch in CHARSET], "vectors", "secret-keys",
                                  (NUM_CLASSES, key_dim))
        return cls(key_dim, jsondoc.integer(doc, "seed", "secret-keys"), vectors)

    def save(self, path):
        jsondoc.save(path, self.to_json_dict())

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(jsondoc.load(path))


class CipherText:
    """Ordered ciphertext blocks, one per plaintext character.

    `packed` is one read-only (n, ceil(dim / 8)) uint8 matrix, row i the
    LSB-first packed bits of block i with zero padding bits past `dim`:
    exactly the HLCT payload.
    """

    __slots__ = ("dim", "packed")

    def __init__(self, dim, packed):
        dim = int(dim)
        if dim < 0:
            raise DimensionError(f"ciphertext dim must be >= 0, got {dim}")
        packed = np.ascontiguousarray(packed)
        if packed.dtype != np.uint8:
            raise TypeError(f"packed blocks must be uint8, got {packed.dtype}")
        if packed.ndim != 2 or packed.shape[1] != (dim + 7) // 8:
            raise DimensionError(
                f"packed blocks shape {packed.shape}, expected (n, {(dim + 7) // 8})")
        if dim == 0 and len(packed):
            raise DimensionError("dim must be positive for nonempty ciphertext")
        bad = _first_bad_padding(dim, packed)
        if bad is not None:
            raise DataFormatError(f"padding bits beyond dim must be zero in block {bad}")
        packed.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "packed", packed)

    def __setattr__(self, name, value):
        raise AttributeError("CipherText is immutable")

    @property
    def blocks(self):
        """The blocks as a tuple of BinaryHypervector views of the rows of
        `packed`, built on each access."""
        return tuple(BinaryHypervector(self.dim, row) for row in self.packed)

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
        packed = packed.reshape(count, block_len)
        bad = _first_bad_padding(dim, packed)
        if bad is not None:
            raise DataFormatError("padding bits beyond dim must be zero",
                                  offset=_CT_HEADER_LEN + (bad + 1) * block_len - 1)
        return cls(dim, packed)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def encrypt_text(text, keys, xbar, epsilon, rng):
    """Encrypt a string block by block; each block gets fresh read noise."""
    if keys.key_dim != xbar.rows:
        raise DimensionError(f"key_dim {keys.key_dim} != crossbar rows {xbar.rows}")
    bits = encode_crossbar_batch(xbar, keys.vectors[text_to_classes(text)], epsilon, rng)
    return CipherText(xbar.cols, np.packbits(bits, axis=1, bitorder="little"))


def decrypt_text(ct, model):
    """Argmax class per block, mapped back to characters."""
    if model.out_dim != NUM_CLASSES:
        raise DimensionError(f"decoder emits {model.out_dim} classes, expected {NUM_CLASSES}")
    if len(ct) == 0:
        return ""
    if ct.dim != model.in_dim:
        raise DimensionError(f"ciphertext dim {ct.dim}, decoder expects {model.in_dim}")
    return (model.predict_classes(ct.bit_matrix()) + 32).astype(np.uint8).tobytes().decode("ascii")


def build_dataset(n, keys, xbar, epsilon, rng):
    """n uniformly random characters, each encrypted once.

    Returns (features, labels): packed rows of ciphertext bits as uint8
    and the class index of each character.
    """
    if n < 1:
        raise DimensionError("dataset size must be >= 1")
    if keys.key_dim != xbar.rows:
        raise DimensionError(f"key_dim {keys.key_dim} != crossbar rows {xbar.rows}")
    labels = rng.integers(0, NUM_CLASSES, size=n)
    features = encode_crossbar_batch(xbar, keys.vectors[labels], epsilon, rng)
    return features, labels


@dataclass(frozen=True)
class UniquenessStats:
    distinct_fraction: float
    mean_pairwise_hamming: float


def uniqueness_stats(char, n_passes, keys, xbar, epsilon, rng):
    """Re-encode one character n_passes times and measure ciphertext spread.

    distinct_fraction is (# distinct hypervectors) / n_passes;
    mean_pairwise_hamming is averaged over all unordered pairs and
    normalized by the hypervector dimension.
    """
    if n_passes < 2:
        raise DimensionError("need at least 2 passes")
    vecs = keys.vectors[text_to_classes(char)]
    if len(vecs) != 1:
        raise DimensionError(f"expected one character, got {char!r}")
    bits = encode_crossbar_batch(xbar, np.repeat(vecs, n_passes, axis=0), epsilon, rng)
    packed = np.packbits(bits, axis=1, bitorder="little")
    distinct = len({row.tobytes() for row in packed})
    ones = bits.sum(axis=0, dtype=np.int64)
    differing_pairs = float(np.sum(ones * (n_passes - ones)))
    n_pairs = n_passes * (n_passes - 1) / 2
    return UniquenessStats(
        distinct_fraction=distinct / n_passes,
        mean_pairwise_hamming=differing_pairs / n_pairs / xbar.cols,
    )


def evaluate_accuracy(model, test_set):
    """Fraction of blocks whose argmax class matches the label."""
    features, labels = test_set
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.shape[0] == 0:
        raise DimensionError("test set must be nonempty")
    preds = model.predict_classes(features)
    return float(np.mean(preds == labels))
