"""Desk-scale image corpora for the reconstruction experiments.

`synthetic_digits` renders 28x28 grayscale handwritten-style digits from
built-in glyph bitmaps with random placement, stroke intensity, blur and
sensor noise. It exists so the image pipeline runs out of the box in
offline environments; pass a real IDX image file to `load_digits` to use
an actual handwriting corpus instead.
"""

import numpy as np
from scipy.ndimage import gaussian_filter

from .imagecrypto import GrayImage
from .errors import DataFormatError
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


def synthetic_digits(n, seed, size=28):
    """Render n digit images; returns (images (n, size, size) in [0, 1], labels)."""
    if size < 24:
        raise ValueError("size must be at least 24")
    rng = spawn_rng(seed, "synthetic-digits")
    images = np.zeros((n, size, size))
    labels = rng.integers(0, 10, size=n)
    for i in range(n):
        glyph = _GLYPH_ARRAYS[int(labels[i])]
        scale = int(rng.integers(2, 4))
        stamp = np.kron(glyph, np.ones((scale, scale)))
        h, w = stamp.shape
        top = int(rng.integers(1, size - h))
        left = int(rng.integers(1, size - w))
        canvas = np.zeros((size, size))
        canvas[top:top + h, left:left + w] = stamp * rng.uniform(0.7, 1.0)
        canvas = gaussian_filter(canvas, sigma=rng.uniform(0.4, 1.0))
        # keep backgrounds near-black: heavy pixel noise would put
        # reconstruction-relevant energy into every principal direction
        canvas += rng.normal(0.0, 0.005, size=canvas.shape)
        images[i] = np.clip(canvas, 0.0, 1.0)
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
    if idx_images_path is None:
        return synthetic_digits(n, seed)[0]
    images = read_idx_images(idx_images_path)
    if len(images) < n:
        raise DataFormatError(f"{idx_images_path}: corpus holds {len(images)} images, need {n}")
    return images[:n]
