"""Desk-scale image corpora for the reconstruction experiments.

`synthetic_digits` renders 28x28 grayscale handwritten-style digits from
built-in glyph bitmaps with random placement, stroke intensity, blur and
sensor noise. Each glyph is scaled up once, at import, into one stamp per
(digit, scale); an image is that stamp times its intensity, written into
the output array and blurred and noised there. It exists so the image
pipeline runs out of the box in offline environments; pass a real IDX
image file to `load_digits` to use an actual handwriting corpus instead.
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from .imagecrypto import GrayImage
from .errors import DataFormatError, DimensionError
from .imageio import read_idx_images
from .rng import spawn_rng

__all__ = ["synthetic_digits", "load_digits", "synthetic_natural_image"]

_GLYPHS = {
    0: ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00110", "01000", "10000", "11111"],
    3: ["11110", "00001", "00001", "01110", "00001", "00001", "11110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}

_GLYPH_ARRAYS = {
    d: np.array([[int(c) for c in row] for row in rows], dtype=np.float64)
    for d, rows in _GLYPHS.items()
}


# each glyph pixel blown up to a scale x scale block, for both scales drawn
_STAMPS = {
    (d, s): glyph.repeat(s, 0).repeat(s, 1)
    for d, glyph in _GLYPH_ARRAYS.items() for s in (2, 3)
}


def synthetic_digits(n, seed, size=28):
    """Render n digit images; returns (images (n, size, size) in [0, 1], labels)."""
    if n < 0:
        raise DimensionError(f"n must be >= 0, got {n}")
    if size < 24:
        raise DimensionError(f"size must be at least 24, got {size}")
    rng = spawn_rng(seed, "synthetic-digits")
    images = np.zeros((n, size, size))
    labels = rng.integers(0, 10, size=n)
    for canvas, label in zip(images, labels.tolist()):
        stamp = _STAMPS[label, int(rng.integers(2, 4))]
        h, w = stamp.shape
        top = int(rng.integers(1, size - h))
        left = int(rng.integers(1, size - w))
        np.multiply(stamp, rng.uniform(0.7, 1.0), out=canvas[top:top + h, left:left + w])
        # in place is safe: each 1-D pass reads a whole line before writing it
        gaussian_filter(canvas, sigma=rng.uniform(0.4, 1.0), output=canvas)
        # keep backgrounds near-black: heavy pixel noise would put
        # reconstruction-relevant energy into every principal direction
        canvas += rng.normal(0.0, 0.005, size=canvas.shape)
    np.clip(images, 0.0, 1.0, out=images)
    return images, labels


def synthetic_natural_image(size, seed):
    """A smooth random field with the strong adjacent-pixel correlation
    of natural photographs; stands in for one when none is supplied."""
    rng = spawn_rng(seed, "natural-image")
    field = gaussian_filter(rng.normal(size=(size, size)), sigma=size / 18)
    field += 0.35 * gaussian_filter(rng.normal(size=(size, size)), sigma=size / 60)
    lo, hi = field.min(), field.max()
    return GrayImage.from_array((field - lo) / (hi - lo))


def load_digits(n, seed, idx_images_path=None):
    """The first n images of an IDX corpus, or n synthetic digits when no
    path is given. A corpus of fewer than n images raises DataFormatError."""
    if n < 0:
        raise DimensionError(f"n must be >= 0, got {n}")
    if idx_images_path is None:
        return synthetic_digits(n, seed)[0]
    images = read_idx_images(idx_images_path)
    if len(images) < n:
        raise DataFormatError(f"{idx_images_path}: corpus holds {len(images)} images, need {n}")
    return images[:n]
