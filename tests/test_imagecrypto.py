import numpy as np
import pytest

from hdcrypt.datasets import synthetic_digits, synthetic_natural_image
from hdcrypt.decoder import HEAD_REGRESSION, LinearDecoder
from hdcrypt.encoder import IdealEncoder
from hdcrypt.errors import (ConfigError, DataFormatError,
                            DegenerateStatisticError, DimensionError)
from hdcrypt.imagecrypto import (AdjacencyStats, BenchmarkEncoder, GrayImage,
                                 adjacency_stats, adjacent_pixel_correlation,
                                 binary_pair_counts, bits_to_plane,
                                 pixel_histogram)
from hdcrypt.imageio import (read_idx_images, read_idx_labels, read_pgm,
                             write_idx_images, write_idx_labels, write_pgm)
from hdcrypt.rng import spawn_rng


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage.from_array(np.array([[0.5, 1.2]]))
    with pytest.raises(ValueError):
        GrayImage.from_array(np.array([[0.5, np.nan]]))
    with pytest.raises(DimensionError):
        GrayImage(3, 2, np.zeros((3, 3)))
    img = GrayImage(3, 2, np.linspace(0, 1, 6).reshape(2, 3))
    assert img.pixels.shape == (2, 3)
    assert np.array_equal(img.flatten(), np.linspace(0, 1, 6))


# --- file formats ------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    rng = spawn_rng(0, "pgm")
    pixels = np.rint(rng.random((9, 7)) * 255) / 255
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels)
    back = read_pgm(path)
    assert back.shape == (9, 7)
    assert np.allclose(back, pixels, atol=1e-12)


def test_pgm_reads_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([0, 128, 255, 64, 32, 16])
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert np.isclose(img[0, 1], 128 / 255)


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(DataFormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(DataFormatError):
        read_pgm(path)


def test_idx_roundtrip(tmp_path):
    images, labels = synthetic_digits(12, seed=1)
    img_path, lab_path = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    back = read_idx_images(img_path)
    assert back.shape == (12, 28, 28)
    assert np.max(np.abs(back - images)) <= 0.5 / 255 + 1e-12
    assert np.array_equal(read_idx_labels(lab_path), labels)
    assert img_path.read_bytes()[:4] == bytes.fromhex("00000803")
    assert lab_path.read_bytes()[:4] == bytes.fromhex("00000801")


def test_idx_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
    with pytest.raises(DataFormatError) as excinfo:
        read_idx_images(path)
    assert excinfo.value.offset == 0
    images, _ = synthetic_digits(2, seed=2)
    good = tmp_path / "good.idx"
    write_idx_images(good, images)
    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(DataFormatError):
        read_idx_images(truncated)


# --- encryption ----------------------------------------------------------------


def test_encrypt_all_zero_image(rng):
    enc = IdealEncoder.new_random(16, 4, sigma=2.0, seed=3).with_epsilon(0.1)
    img = GrayImage.from_array(np.zeros((4, 4)))
    hv = enc.encode(img.flatten(), rng)
    assert hv.popcount() == 0          # 0 < epsilon everywhere
    enc2 = enc.with_epsilon(-0.1)
    assert enc2.encode(img.flatten(), rng).popcount() == 64


def test_encrypt_dimension_is_pixels_times_multiplier(rng):
    images, _ = synthetic_digits(1, seed=4)
    for m in (1, 4):
        enc = IdealEncoder.new_random(784, m, sigma=0.5, seed=5)
        hv = enc.encode(GrayImage.from_array(images[0]).flatten(), rng)
        assert hv.dim == 784 * m


def test_encrypt_hand_computed_two_by_two(rng):
    w = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 2.0],
        [0.5, 0.5, -0.5, -0.5],
        [2.0, 0.0, -2.0, 0.0],
        [0.0, 2.0, 0.0, -2.0],
        [1.0, -1.0, 1.0, -1.0],
    ])
    enc = IdealEncoder(w, sigma=0.0, epsilon=0.25)
    img = GrayImage.from_array(np.array([[1.0, 0.5], [0.0, 1.0]]))
    # oracle: y = w @ (1, 0.5, 0, 1) computed row by row; row 4 lands
    # exactly on the threshold and must map to 1
    y = np.array([1.0, -0.5, 2.5, 2.0, 0.25, 2.0, -1.0, -0.5])
    hv = enc.encode(img.flatten(), rng)
    assert np.array_equal(hv.to_bits(), (y >= 0.25).astype(np.uint8))


def test_encrypt_size_mismatch(rng):
    enc = IdealEncoder.new_random(10, 2, sigma=0.0, seed=6)
    with pytest.raises(DimensionError):
        enc.encode(GrayImage.from_array(np.zeros((3, 3))).flatten(), rng)


def test_benchmark_exact_inverse_roundtrip(rng):
    # at sigma 0 the regression decoder with the inverse weights recovers
    # the pixels through the batch paths the image cell runs
    benc = BenchmarkEncoder.new_random(16, sigma=0.0, seed=7)
    inverse = LinearDecoder(np.linalg.inv(benc.weights), np.zeros(16),
                            HEAD_REGRESSION)
    flats = spawn_rng(8, "img").random((3, 16))
    back = inverse.forward_batch(benc.project_batch(flats, rng))
    assert np.sqrt(np.mean((back - flats) ** 2)) < 1e-6


def test_benchmark_hand_noise_matrix_oracle(project_with_noise_matrix):
    rng = spawn_rng(9, "w")
    benc = BenchmarkEncoder(rng.uniform(-2, 2, (4, 4)), sigma=0.5)
    x = np.array([0.1, 0.9, 0.3, 0.0])
    noise = spawn_rng(10, "n").normal(size=(4, 4)) * 0.5
    # oracle: direct arithmetic on (w + N) x
    expected = (benc.weights + noise) @ x
    assert np.allclose(project_with_noise_matrix(benc, x, noise), expected,
                       atol=1e-15)


def test_benchmark_noise_stream_form(rng):
    benc = BenchmarkEncoder.new_random(5, sigma=0.8, seed=11)
    x = np.array([0.2, 0.4, 0.0, -0.3, 0.9])
    y = benc.project(x, spawn_rng(12, "s"))
    z = spawn_rng(12, "s").standard_normal(5)
    assert np.array_equal(y, benc.weights @ x + 0.8 * np.linalg.norm(x) * z)


def test_benchmark_weights_come_from_their_own_stream():
    benc = BenchmarkEncoder.new_random(6, sigma=0.3, seed=13)
    expected = spawn_rng(13, "benchmark-encoder-init").uniform(-2.0, 2.0, size=(6, 6))
    assert isinstance(benc, IdealEncoder)
    assert np.array_equal(benc.weights, expected)
    assert benc.sigma == 0.3


def test_benchmark_is_square_only():
    with pytest.raises(DimensionError):
        BenchmarkEncoder(np.zeros((3, 4)), sigma=0.0)


# --- pixel statistics ----------------------------------------------------------


def test_histogram_all_zero_image():
    counts = pixel_histogram(np.zeros((5, 5)))
    assert counts[0] == 25 and counts.sum() == 25


def test_histogram_binary_stage_two_bins():
    bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    counts = pixel_histogram(bits)
    assert counts.tolist() == [2, 3]


def test_histogram_real_stage_256_bins():
    img = np.linspace(0, 1, 64).reshape(8, 8)
    counts = pixel_histogram(img)
    assert counts.size == 256 and counts.sum() == 64


def test_histogram_matches_naive_counts():
    rng = spawn_rng(13, "h")
    img = rng.random((16, 16))
    counts = pixel_histogram(img)
    # oracle: per-pixel bin arithmetic over [0, 1]
    naive = np.zeros(256, dtype=int)
    for v in img.ravel():
        naive[min(int(v * 256), 255)] += 1
    assert np.array_equal(counts, naive)


def test_histogram_conservation_across_stages(rng):
    img = synthetic_natural_image(30, seed=14)
    enc = IdealEncoder.new_random(900, 4, sigma=1.0, seed=15)
    pre = enc.project(img.flatten(), rng)
    hv = enc.with_epsilon(float(np.median(pre))).encode(img.flatten(), rng)
    assert pixel_histogram(img.pixels).sum() == 900
    assert pixel_histogram(pre).sum() == 3600
    assert pixel_histogram(hv.to_bits()).sum() == 3600


def test_correlation_repeated_columns_is_one():
    column = np.array([0.1, 0.5, 0.9, 0.3])
    img = np.tile(column[:, None], (1, 6))
    assert adjacent_pixel_correlation(img, "horizontal") == pytest.approx(1.0)


def test_correlation_checkerboard_is_minus_one():
    img = np.indices((6, 6)).sum(axis=0) % 2
    assert adjacent_pixel_correlation(img, "horizontal") == pytest.approx(-1.0)
    assert adjacent_pixel_correlation(img, "vertical") == pytest.approx(-1.0)
    assert adjacent_pixel_correlation(img, "diagonal") == pytest.approx(1.0)


def test_correlation_matches_direct_formula():
    rng = spawn_rng(16, "c")
    img = rng.random((3, 3))
    for direction, (first, second) in {
        "horizontal": (img[:, :-1].ravel(), img[:, 1:].ravel()),
        "vertical": (img[:-1, :].ravel(), img[1:, :].ravel()),
        "diagonal": (img[:-1, :-1].ravel(), img[1:, 1:].ravel()),
    }.items():
        # oracle: direct Pearson formula
        fm, sm = first.mean(), second.mean()
        num = ((first - fm) * (second - sm)).sum()
        den = np.sqrt(((first - fm) ** 2).sum() * ((second - sm) ** 2).sum())
        assert abs(adjacent_pixel_correlation(img, direction) - num / den) < 1e-12


def test_correlation_zero_variance_raises():
    with pytest.raises(DegenerateStatisticError):
        adjacent_pixel_correlation(np.full((4, 4), 0.7), "horizontal")


def test_correlation_unknown_direction():
    with pytest.raises(ConfigError):
        adjacent_pixel_correlation(np.zeros((3, 3)), "antidiagonal")


def test_binary_pair_counts_match_loops():
    rng = spawn_rng(17, "p")
    bits = rng.integers(0, 2, size=(9, 11))
    counts = binary_pair_counts(bits, "horizontal")
    # oracle: nested loops
    naive = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for r in range(9):
        for c in range(10):
            naive[(bits[r, c], bits[r, c + 1])] += 1
    assert counts == naive
    assert sum(counts.values()) == 9 * 10


def test_adjacency_stats_bundles_counts_for_binary():
    bits = spawn_rng(18, "b").integers(0, 2, size=(8, 8))
    st = adjacency_stats(bits, "vertical")
    assert isinstance(st, AdjacencyStats)
    assert st.pair_counts is not None
    real = adjacency_stats(spawn_rng(19, "r").random((8, 8)), "vertical")
    assert real.pair_counts is None


def test_bits_to_plane_shapes():
    from hdcrypt.hypervector import BinaryHypervector
    bits = np.arange(4 * 6 * 4) % 2
    hv = BinaryHypervector.from_bits(bits)
    plane = bits_to_plane(hv, height=4, width=6, multiplier=4)
    assert plane.shape == (8, 12)       # 4 = 2 x 2
    plane = bits_to_plane(bits, height=4, width=6, multiplier=4)
    assert plane.shape == (8, 12)
    with pytest.raises(DimensionError):
        bits_to_plane(bits, height=4, width=6, multiplier=2)


def test_encrypted_stage_decorrelates_natural_image(rng):
    img = synthetic_natural_image(60, seed=20)
    assert adjacent_pixel_correlation(img.pixels, "horizontal") > 0.7
    enc = IdealEncoder.new_random(3600, 4, sigma=1.0, seed=21)
    pre = enc.project(img.flatten(), rng)
    hv = enc.with_epsilon(float(np.median(pre))).encode(img.flatten(), rng)
    plane = bits_to_plane(hv, 60, 60, 4)
    for direction in ("horizontal", "vertical", "diagonal"):
        assert abs(adjacent_pixel_correlation(plane, direction)) < 0.05
