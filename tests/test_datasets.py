import hashlib
import struct

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from hdcrypt import datasets
from hdcrypt.datasets import _GLYPH_ARRAYS, _STAMPS, load_digits, synthetic_digits
from hdcrypt.errors import DimensionError
from hdcrypt.imageio import IDX_IMAGES_MAGIC
from hdcrypt.rng import spawn_rng


def kron_digits(n, seed, size=28):
    """The per-image renderer the stamps replaced, kept as the oracle."""
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
        canvas += rng.normal(0.0, 0.005, size=canvas.shape)
        images[i] = np.clip(canvas, 0.0, 1.0)
    return images, labels


def test_stamps_are_the_kron_products():
    assert sorted(_STAMPS) == [(d, s) for d in range(10) for s in (2, 3)]
    for (digit, scale), stamp in _STAMPS.items():
        expected = np.kron(_GLYPH_ARRAYS[digit], np.ones((scale, scale)))
        assert stamp.dtype == expected.dtype
        assert np.array_equal(stamp, expected)


@pytest.mark.parametrize("n, seed, size", [
    (0, 1, 28), (1, 2, 28), (37, 3, 24), (25, 4, 40), (300, 5, 28),
])
def test_digits_match_the_kron_renderer_bitwise(n, seed, size):
    images, labels = synthetic_digits(n, seed, size)
    expected_images, expected_labels = kron_digits(n, seed, size)
    assert images.shape == (n, size, size) and images.dtype == np.float64
    assert np.array_equal(images, expected_images)
    assert np.array_equal(labels, expected_labels)


def test_digit_corpus_is_pinned():
    # sha256 of the corpus as the per-image kron renderer made it
    images, labels = synthetic_digits(64, seed=0)
    assert hashlib.sha256(images.tobytes()).hexdigest() == (
        "3c5db064cde44bbab36b52d53abd51f967d179523069610eaddf835222c9689c")
    assert hashlib.sha256(labels.tobytes()).hexdigest() == (
        "99ac1153d39774407f5ef750a4b17715b19890dde01d46283be7e7ca0f979a39")


@pytest.mark.parametrize("n, size, name", [(-1, 28, "n"), (3, 23, "size"), (-5, 10, "n")])
def test_bad_arguments_raise_before_any_draw(monkeypatch, n, size, name):
    def no_draws(*args):
        raise AssertionError("drew from the generator")
    monkeypatch.setattr(datasets, "spawn_rng", no_draws)
    with pytest.raises(DimensionError, match=rf"^{name} "):
        synthetic_digits(n, seed=1, size=size)


def test_idx_corpus_rejects_a_negative_count_before_reading(tmp_path, monkeypatch):
    path = tmp_path / "digits.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 10, 28, 28) + bytes(10 * 28 * 28))
    assert load_digits(10, 0, path).shape == (10, 28, 28)
    assert load_digits(0, 0, path).shape == (0, 28, 28)

    def no_reads(*args):
        raise AssertionError("read the corpus")
    monkeypatch.setattr(datasets, "read_idx_images", no_reads)
    for n in (-3, -1):
        with pytest.raises(DimensionError, match=r"^n "):
            load_digits(n, 0, path)
