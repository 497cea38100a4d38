"""Character-level encryption through a crossbar encoder.

Each supported character owns a secret low-dimensional vector; encryption
maps a character to its vector, pushes it through one noisy crossbar read
and thresholds the result into a binary hypervector block. Decryption
feeds each block to a trained softmax decoder and takes the argmax class.

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
from .hypervector import BinaryHypervector
from .rng import spawn_rng

__all__ = [
    "CHARSET",
    "NUM_CLASSES",
    "char_to_class",
    "class_to_char",
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


def char_to_class(char, index=0):
    code = ord(char)
    if not 32 <= code < 126:
        raise CharsetError(char, index)
    return code - 32


def class_to_char(cls):
    if not 0 <= cls < NUM_CLASSES:
        raise DimensionError(f"class {cls} out of range [0, {NUM_CLASSES})")
    return chr(cls + 32)


class SecretKeyTable:
    """One secret vector of length key_dim per supported character."""

    __slots__ = ("key_dim", "seed", "vectors")

    def __init__(self, key_dim, seed, vectors):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.shape != (NUM_CLASSES, key_dim):
            raise DimensionError(
                f"vectors shape {vectors.shape}, expected ({NUM_CLASSES}, {key_dim})"
            )
        if vectors.min() < -1 or vectors.max() > 1:
            raise ValueError("secret vector entries must lie in [-1, 1]")
        if len(np.unique(vectors, axis=0)) != NUM_CLASSES:
            raise ValueError("secret vectors must be pairwise distinct")
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

    def vector_for(self, char, index=0):
        return self.vectors[char_to_class(char, index)]

    def to_json_dict(self):
        return jsondoc.envelope("secret-keys", {
            "key_dim": self.key_dim,
            "seed": self.seed,
            "vectors": {ch: self.vectors[i].tolist() for i, ch in enumerate(CHARSET)},
        })

    @classmethod
    def from_json_dict(cls, doc):
        jsondoc.check(doc, "secret-keys", ("key_dim", "seed", "vectors"))
        table = doc["vectors"]
        missing = [ch for ch in CHARSET if ch not in table]
        if missing:
            raise DataFormatError(f"missing vectors for {len(missing)} characters")
        vectors = np.array([table[ch] for ch in CHARSET], dtype=np.float64)
        return cls(doc["key_dim"], doc["seed"], vectors)

    def save(self, path):
        jsondoc.save(path, self.to_json_dict())

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(jsondoc.load(path))


@dataclass(frozen=True)
class CipherText:
    """Ordered hypervector blocks, one per plaintext character."""

    dim: int
    blocks: tuple

    def __post_init__(self):
        for b in self.blocks:
            if b.dim != self.dim:
                raise DimensionError(f"block dim {b.dim}, ciphertext dim {self.dim}")

    def __len__(self):
        return len(self.blocks)

    def bit_matrix(self):
        if not self.blocks:
            return np.zeros((0, self.dim), dtype=np.uint8)
        return np.stack([b.to_bits() for b in self.blocks])

    def to_bytes(self):
        out = bytearray(_CT_MAGIC)
        out += len(self.blocks).to_bytes(8, "little")
        out += self.dim.to_bytes(8, "little")
        for b in self.blocks:
            out += b.packed_payload()
        return bytes(out)

    @classmethod
    def from_bytes(cls, data):
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
        blocks = []
        for i in range(count):
            start = _CT_HEADER_LEN + i * block_len
            blocks.append(BinaryHypervector._from_packed_bytes(dim, data[start:start + block_len]))
        return cls(dim, tuple(blocks))

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _classes_for_text(text):
    return np.array([char_to_class(ch, i) for i, ch in enumerate(text)], dtype=np.int64)


def encrypt_text(text, keys, xbar, epsilon, rng):
    """Encrypt a string block by block; each block gets fresh read noise."""
    if keys.key_dim != xbar.rows:
        raise DimensionError(f"key_dim {keys.key_dim} != crossbar rows {xbar.rows}")
    classes = _classes_for_text(text)
    if classes.size == 0:
        return CipherText(xbar.cols, ())
    bits = encode_crossbar_batch(xbar, keys.vectors[classes], epsilon, rng)
    return CipherText(xbar.cols, tuple(BinaryHypervector.from_bits(row) for row in bits))


def decrypt_text(ct, model):
    """Argmax class per block, mapped back to characters."""
    if model.out_dim != NUM_CLASSES:
        raise DimensionError(f"decoder emits {model.out_dim} classes, expected {NUM_CLASSES}")
    if len(ct) == 0:
        return ""
    if ct.dim != model.in_dim:
        raise DimensionError(f"ciphertext dim {ct.dim}, decoder expects {model.in_dim}")
    classes = model.predict_classes(ct.bit_matrix())
    return "".join(class_to_char(int(c)) for c in classes)


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
    vec = keys.vector_for(char)
    bits = encode_crossbar_batch(xbar, np.tile(vec, (n_passes, 1)), epsilon, rng)
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
