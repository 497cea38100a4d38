"""Image encryption through the ideal stochastic encoder, plus the
no-expansion benchmark pipeline and the pixel statistics used to judge
ciphertext quality (histograms and adjacent-pixel correlation).
"""

from dataclasses import dataclass

import numpy as np

from .decoder import HEAD_REGRESSION
from .encoder import IdealEncoder, _weight_blocks
from .errors import ConfigError, DegenerateStatisticError, DimensionError
from .hypervector import BinaryHypervector

__all__ = [
    "GrayImage",
    "BenchmarkEncoder",
    "encrypt_image",
    "decrypt_image",
    "benchmark_roundtrip",
    "pixel_histogram",
    "adjacent_pixel_correlation",
    "binary_pair_counts",
    "adjacency_stats",
    "AdjacencyStats",
    "bits_to_plane",
    "image_rmse",
]


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image with row-major pixels in [0, 1]."""

    width: int
    height: int
    pixels: np.ndarray  # shape (height, width)

    def __post_init__(self):
        pixels = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if pixels.shape != (self.height, self.width):
            raise DimensionError(
                f"pixel shape {pixels.shape}, expected ({self.height}, {self.width})"
            )
        if self.width < 1 or self.height < 1:
            raise DimensionError("image dimensions must be positive")
        if pixels.min() < 0.0 or pixels.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    @classmethod
    def from_array(cls, pixels):
        pixels = np.asarray(pixels)
        return cls(pixels.shape[1], pixels.shape[0], pixels)

    @classmethod
    def from_flat(cls, flat, width, height):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.size != width * height:
            raise DimensionError(f"{flat.size} pixels cannot fill {width}x{height}")
        return cls(width, height, flat.reshape(height, width))

    def flatten(self):
        return self.pixels.ravel()


class BenchmarkEncoder(IdealEncoder):
    """Square projection with per-pass Gaussian noise and no threshold.

    The control pipeline: same noise injection as the hypervector encoder
    but without dimension expansion or binarization, so the decoder sees
    the raw noisy projection. Its weights are drawn from their own seeded
    stream, "benchmark-encoder-init", not the IdealEncoder's.
    """

    __slots__ = ()

    def __init__(self, weights, sigma, seed=0):
        shape = np.shape(weights)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionError("benchmark weights must be square")
        # epsilon is never read: the benchmark pipeline does not threshold
        super().__init__(weights, sigma, 0.0, seed)

    @classmethod
    def new_random(cls, dim, sigma, seed, init_low=-2.0, init_high=2.0):
        _, w = next(_weight_blocks("benchmark-encoder-init", seed, dim, dim,
                                   init_low, init_high, block_rows=dim))
        return cls(w, sigma, seed)

    @property
    def dim(self):
        return self.weights.shape[0]

    # own entry, so the traced span imagecrypto.BenchmarkEncoder.project_batch resolves
    project_batch = IdealEncoder.project_batch


def encrypt_image(img, enc, rng):
    """Flatten row-major, project with fresh noise, binarize."""
    flat = img.flatten()
    if flat.size != enc.input_dim:
        raise DimensionError(
            f"image has {flat.size} pixels, encoder expects {enc.input_dim}"
        )
    return enc.encode(flat, rng)


def decrypt_image(bhv, model, width, height):
    """Regression forward pass, clamped to [0, 1], reshaped row-major."""
    if model.head != HEAD_REGRESSION:
        raise ConfigError("head", "image decryption needs a regression decoder")
    if model.out_dim != width * height:
        raise DimensionError(
            f"decoder emits {model.out_dim} values, image needs {width * height}"
        )
    pred = model.forward(bhv)
    return GrayImage.from_flat(np.clip(pred, 0.0, 1.0), width, height)


def benchmark_roundtrip(img, benc, model, rng):
    """Encrypt with the no-expansion benchmark and reconstruct."""
    flat = img.flatten()
    if flat.size != benc.dim:
        raise DimensionError(f"image has {flat.size} pixels, benchmark expects {benc.dim}")
    if model.out_dim != flat.size:
        raise DimensionError("decoder output does not match image size")
    pred = model.forward(benc.project(flat, rng))
    return GrayImage.from_flat(np.clip(pred, 0.0, 1.0), img.width, img.height)


# --- pixel statistics ------------------------------------------------------


def _is_binary(values):
    return bool(np.isin(values, (0, 1)).all())


def pixel_histogram(values, binary=None):
    """Histogram counts at one pipeline stage.

    Binary data (auto-detected unless `binary` is given) gets 2 bins.
    Real data gets 256 uniform bins over [0, 1] when the values fit that
    range, else over [min, max]; a constant input lands in bin 0. Counts
    always sum to the number of values.
    """
    values = np.asarray(values).ravel()
    if values.size == 0:
        raise DimensionError("histogram input must be nonempty")
    if values.dtype == bool:
        values = values.astype(np.uint8)
    if binary is None:
        binary = _is_binary(values)
    if binary:
        if not _is_binary(values):
            raise ValueError("binary histogram requested on non-binary data")
        ones = int(values.astype(np.int64).sum())
        return np.array([values.size - ones, ones], dtype=np.int64)
    values = values.astype(np.float64)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        counts = np.zeros(256, dtype=np.int64)
        counts[0] = values.size
        return counts
    if 0.0 <= lo and hi <= 1.0:
        lo, hi = 0.0, 1.0
    counts, _ = np.histogram(values, bins=256, range=(lo, hi))
    return counts.astype(np.int64)


_DIRECTIONS = ("horizontal", "vertical", "diagonal")


def _adjacent_pairs(arr, direction):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError("adjacency statistics need a 2-D array")
    if direction == "horizontal":
        if arr.shape[1] < 2:
            raise DimensionError("need at least 2 columns for horizontal pairs")
        return arr[:, :-1].ravel(), arr[:, 1:].ravel()
    if direction == "vertical":
        if arr.shape[0] < 2:
            raise DimensionError("need at least 2 rows for vertical pairs")
        return arr[:-1, :].ravel(), arr[1:, :].ravel()
    if direction == "diagonal":
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise DimensionError("need a 2x2 area for diagonal pairs")
        return arr[:-1, :-1].ravel(), arr[1:, 1:].ravel()
    raise ConfigError("direction", f"must be one of {_DIRECTIONS}, got {direction!r}")


def adjacent_pixel_correlation(arr, direction):
    """Pearson correlation over all adjacent pixel pairs in a direction."""
    first, second = _adjacent_pairs(arr, direction)
    if first.min() == first.max() or second.min() == second.max():
        raise DegenerateStatisticError(
            f"{direction} adjacent pairs have zero variance, correlation undefined"
        )
    fc = first - first.mean()
    sc = second - second.mean()
    return float(np.dot(fc, sc) / np.sqrt(np.dot(fc, fc) * np.dot(sc, sc)))


def binary_pair_counts(arr, direction):
    """Counts of the four adjacent-bit combinations (0,0) (0,1) (1,0) (1,1)."""
    first, second = _adjacent_pairs(arr, direction)
    if not (_is_binary(first) and _is_binary(second)):
        raise ValueError("pair counts are defined for binary data only")
    combo = first.astype(np.int64) * 2 + second.astype(np.int64)
    counts = np.bincount(combo, minlength=4)
    return {(0, 0): int(counts[0]), (0, 1): int(counts[1]),
            (1, 0): int(counts[2]), (1, 1): int(counts[3])}


@dataclass(frozen=True)
class AdjacencyStats:
    direction: str
    correlation: float
    pair_counts: dict | None  # populated for binary stages


def adjacency_stats(arr, direction):
    """Correlation plus, for binary stages, the four pair counts."""
    r = adjacent_pixel_correlation(arr, direction)
    counts = binary_pair_counts(arr, direction) if _is_binary(np.asarray(arr)) else None
    return AdjacencyStats(direction, r, counts)


def bits_to_plane(bhv, height, width, multiplier):
    """Lay a D = height*width*multiplier hypervector out as a 2-D bit plane.

    The expansion factor is split into the most square factor pair (a, b),
    a <= b, giving a (height*a, width*b) plane for spatial statistics.
    """
    if isinstance(bhv, BinaryHypervector):
        bits = bhv.to_bits()
    else:
        bits = np.asarray(bhv).ravel()
    if bits.size != height * width * multiplier:
        raise DimensionError(
            f"{bits.size} bits cannot fill {height}x{width} at multiplier {multiplier}"
        )
    a = max(d for d in range(1, int(np.sqrt(multiplier)) + 1) if multiplier % d == 0)
    return bits.reshape(height * a, width * (multiplier // a))


def image_rmse(a, b):
    """Root mean square pixel difference between two images."""
    if a.width != b.width or a.height != b.height:
        raise DimensionError("images differ in size")
    diff = a.pixels - b.pixels
    return float(np.sqrt(np.mean(diff * diff)))
