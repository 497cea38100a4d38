"""Image types for the ideal stochastic encoder: the grayscale image,
the no-expansion benchmark encoder, and the pixel statistics used to
judge ciphertext quality: `pixel_histogram`, and `adjacency_stats`,
which gives the adjacent-pixel correlation in one direction and, for a
binary plane, the counts of the four adjacent-bit pairs.

One image is encrypted by `encoder.project_streamed` plus
`encoder.threshold_binarize` into uint8 bits; `experiments.run_image_cell`
fits a decoder and reconstructs a held-out batch.
"""

from dataclasses import dataclass

import numpy as np

from .encoder import IdealEncoder
from .errors import ConfigError, DegenerateStatisticError, DimensionError, require_int

__all__ = [
    "GrayImage",
    "BenchmarkEncoder",
    "pixel_histogram",
    "adjacency_stats",
    "AdjacencyStats",
    "bits_to_plane",
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
        # min and max are NaN if any pixel is, and NaN fails both tests
        if not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)

    @classmethod
    def from_array(cls, pixels):
        pixels = np.asarray(pixels)
        return cls(pixels.shape[1], pixels.shape[0], pixels)

    def flatten(self):
        return self.pixels.ravel()


class BenchmarkEncoder(IdealEncoder):
    """Square projection with per-pass Gaussian noise and no threshold.

    The control pipeline: same noise injection as the thresholding encoder
    but without dimension expansion or binarization, so the decoder sees
    the raw noisy projection, from weights of its own seeded stream.
    """

    __slots__ = ()
    _INIT_LABEL = "benchmark-encoder-init"

    def __init__(self, weights, sigma):
        shape = np.shape(weights)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionError("benchmark weights must be square")
        super().__init__(weights, sigma)

    @classmethod
    def new_random(cls, dim, sigma, seed):
        require_int("dim", dim, low=1)
        return cls(cls._seeded_weights(seed, dim, dim), sigma)

    # own entry, so the traced span imagecrypto.BenchmarkEncoder.project_batch resolves
    project_batch = IdealEncoder.project_batch


# --- pixel statistics ------------------------------------------------------


def _is_binary(values):
    return bool(np.isin(values, (0, 1)).all())


def pixel_histogram(values):
    """Histogram counts at one pipeline stage.

    Binary data (every value 0 or 1) gets 2 bins. Real data gets 256
    uniform bins over [0, 1] when the values fit that range, else over
    [min, max]; a constant input lands in bin 0. Counts always sum to the
    number of values.
    """
    values = np.asarray(values).ravel()
    if values.size == 0:
        raise DimensionError("histogram input must be nonempty")
    if _is_binary(values):
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


@dataclass(frozen=True)
class AdjacencyStats:
    direction: str
    correlation: float
    pair_counts: dict | None  # populated for binary stages


def adjacency_stats(arr, direction):
    """Pearson correlation over all adjacent pixel pairs in a direction
    plus, for binary data (every value 0 or 1), the counts of the four
    adjacent-bit pairs (0,0) (0,1) (1,0) (1,1)."""
    arr = np.asarray(arr)
    first, second = _adjacent_pairs(arr, direction)
    if first.min() == first.max() or second.min() == second.max():
        raise DegenerateStatisticError(
            f"{direction} adjacent pairs have zero variance, correlation undefined"
        )
    fc = first - first.mean()
    sc = second - second.mean()
    r = float(np.dot(fc, sc) / np.sqrt(np.dot(fc, fc) * np.dot(sc, sc)))
    counts = None
    if _is_binary(arr):
        n = np.bincount(first.astype(np.int64) * 2 + second.astype(np.int64), minlength=4)
        counts = {(0, 0): int(n[0]), (0, 1): int(n[1]), (1, 0): int(n[2]), (1, 1): int(n[3])}
    return AdjacencyStats(direction, r, counts)


def bits_to_plane(bits, height, width, multiplier):
    """Lay the D = height*width*multiplier entries of one encoding out in 2-D.

    The expansion factor is split into the most square factor pair (a, b),
    a <= b, giving a (height*a, width*b) plane for spatial statistics.
    """
    for name, value in (("height", height), ("width", width), ("multiplier", multiplier)):
        require_int(name, value, low=1)
    bits = np.asarray(bits).ravel()
    if bits.size != height * width * multiplier:
        raise DimensionError(
            f"{bits.size} bits cannot fill {height}x{width} at multiplier {multiplier}"
        )
    a = max(d for d in range(1, int(np.sqrt(multiplier)) + 1) if multiplier % d == 0)
    return bits.reshape(height * a, width * (multiplier // a))

