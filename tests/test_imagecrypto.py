import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt.datasets import synthetic_digits, synthetic_natural_image
from hdcrypt.decoder import HEAD_REGRESSION, LinearDecoder
from hdcrypt.encoder import IdealEncoder
from hdcrypt.errors import (ConfigError, DataFormatError,
                            DegenerateStatisticError, DimensionError)
from hdcrypt.imagecrypto import (AdjacencyStats, BenchmarkEncoder, GrayImage,
                                 adjacency_stats, bits_to_plane, pixel_histogram)
from hdcrypt.imageio import IDX_IMAGES_MAGIC, read_idx_images, read_pgm, write_pgm
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
    path.write_bytes(b"P5 2 2 255")   # the file ends at maxval
    with pytest.raises(DataFormatError, match="has 0 bytes, expected 4"):
        read_pgm(path)
    # a width or height below 1 is named at its token, whatever the payload
    for header, field, offset in [(b"P5\n-2 3", "width", 3), (b"P5\n2 -3", "height", 5),
                                  (b"P5\n-2 -3", "width", 3), (b"P5\n0 4", "width", 3),
                                  (b"P5\n4 0", "height", 5)]:
        path.write_bytes(header + b"\n255\n" + bytes(12))
        with pytest.raises(DataFormatError, match=f"PGM {field} -?[0-9]+ is below 1") as excinfo:
            read_pgm(path)
        assert excinfo.value.offset == offset


def write_idx_images(path, images):
    """Write (n, rows, cols) pixels in [0, 1] as an IDX image file."""
    n, rows, cols = images.shape
    data = np.rint(np.clip(images, 0.0, 1.0) * 255).astype(np.uint8)
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols) + data.tobytes())


def test_idx_roundtrip(tmp_path):
    images, _ = synthetic_digits(12, seed=1)
    img_path = tmp_path / "img.idx"
    write_idx_images(img_path, images)
    back = read_idx_images(img_path)
    assert back.shape == (12, 28, 28)
    assert np.max(np.abs(back - images)) <= 0.5 / 255 + 1e-12
    assert img_path.read_bytes()[:4] == bytes.fromhex("00000803")


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


def test_idx_empty_corpus_of_oversized_images_is_a_format_error(tmp_path):
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 2**30, 2**30))
    with pytest.raises(DataFormatError, match="too large") as excinfo:
        read_idx_images(path)
    assert excinfo.value.offset == 8
    path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 28, 28))
    assert read_idx_images(path).shape == (0, 28, 28)


# header separators: whitespace runs and comment lines
_PGM_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b" \n",
                                   b"\n# comment 7 7\n"])


@st.composite
def pgm_files(draw):
    """(file bytes, width, height): a P5 header with small dimensions, some
    below 1, and a maxval that is usually 255, then arbitrary payload."""
    width, height = draw(st.integers(-3, 6)), draw(st.integers(-3, 6))
    maxval = draw(st.sampled_from([255, 255, 255, 0, 1, 65535]))
    data = b"P5"
    for value in (width, height, maxval):
        data += draw(_PGM_SEPARATORS) + str(value).encode()
    data += draw(st.sampled_from([b"\n", b" ", b""])) + draw(st.binary(max_size=48))
    return data, width, height


def _read_fuzzed(reader, tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    path.write_bytes(data)
    try:
        return reader(path)
    except DataFormatError:
        return None


@given(pgm_files())
@settings(max_examples=300, deadline=None)
def test_fuzzed_pgm_headers_parse_to_their_shape_or_raise(tmp_path_factory, case):
    data, width, height = case
    pixels = _read_fuzzed(read_pgm, tmp_path_factory, data)
    if pixels is not None:
        assert width >= 1 and height >= 1
        assert pixels.shape == (height, width)
        assert 0.0 <= pixels.min() and pixels.max() <= 1.0


@given(st.binary(max_size=64) | st.binary(max_size=64).map(lambda tail: b"P5" + tail))
@settings(max_examples=300, deadline=None)
def test_fuzzed_pgm_bytes_parse_or_raise_data_format_error(tmp_path_factory, data):
    pixels = _read_fuzzed(read_pgm, tmp_path_factory, data)
    if pixels is not None:
        assert pixels.ndim == 2 and min(pixels.shape) >= 1


@st.composite
def idx_files(draw):
    """(file bytes, header dimensions): an IDX header, usually with the
    image magic, a payload whose length is mostly right for small
    dimensions, and the whole file sometimes cut short."""
    magic = draw(st.sampled_from([IDX_IMAGES_MAGIC] * 3 + [0x00000801, 0x03080000]))
    dims = draw(st.tuples(*[st.integers(0, 4) | st.integers(0, 2**32 - 1)] * 3))
    size = dims[0] * dims[1] * dims[2]
    if size <= 64:
        size = draw(st.sampled_from([size, size, size + 1, max(0, size - 1)]))
    else:
        size = draw(st.integers(0, 64))
    data = struct.pack(">IIII", magic, *dims) + draw(st.binary(min_size=size, max_size=size))
    return data[:draw(st.integers(0, len(data)) | st.just(len(data)))], dims


@given(idx_files())
@settings(max_examples=300, deadline=None)
def test_fuzzed_idx_files_parse_to_their_shape_or_raise(tmp_path_factory, case):
    data, dims = case
    images = _read_fuzzed(read_idx_images, tmp_path_factory, data)
    if images is not None:
        assert images.shape == dims
        assert images.size == 0 or (0.0 <= images.min() and images.max() <= 1.0)


@given(st.binary(max_size=64))
@settings(max_examples=200, deadline=None)
def test_fuzzed_idx_bytes_parse_or_raise_data_format_error(tmp_path_factory, data):
    images = _read_fuzzed(read_idx_images, tmp_path_factory, data)
    if images is not None:
        assert images.ndim == 3


# --- encryption ----------------------------------------------------------------


def test_encrypt_all_zero_image(rng):
    enc = IdealEncoder.new_random(16, 4, sigma=2.0, seed=3)
    img = GrayImage.from_array(np.zeros((4, 4)))
    bits = enc.encode_batch(img.flatten()[None], 0.1, rng)
    assert bits.sum() == 0             # 0 < epsilon everywhere
    assert enc.encode_batch(img.flatten()[None], -0.1, rng).sum() == 64


def test_encrypt_dimension_is_pixels_times_multiplier(rng):
    images, _ = synthetic_digits(1, seed=4)
    for m in (1, 4):
        enc = IdealEncoder.new_random(784, m, sigma=0.5, seed=5)
        bits = enc.encode_batch(GrayImage.from_array(images[0]).flatten()[None], 0.0, rng)
        assert bits.shape == (1, 784 * m)


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
    enc = IdealEncoder(w, sigma=0.0)
    img = GrayImage.from_array(np.array([[1.0, 0.5], [0.0, 1.0]]))
    # oracle: y = w @ (1, 0.5, 0, 1) computed row by row; row 4 lands
    # exactly on the threshold and must map to 1
    y = np.array([1.0, -0.5, 2.5, 2.0, 0.25, 2.0, -1.0, -0.5])
    bits = enc.encode_batch(img.flatten()[None], 0.25, rng)
    assert np.array_equal(bits[0], (y >= 0.25).astype(np.uint8))


def test_encrypt_size_mismatch(rng):
    enc = IdealEncoder.new_random(10, 2, sigma=0.0, seed=6)
    with pytest.raises(DimensionError):
        enc.encode_batch(GrayImage.from_array(np.zeros((3, 3))).flatten()[None], 0.0, rng)


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
    y = benc.project_batch(x[None], spawn_rng(12, "s"))[0]
    z = spawn_rng(12, "s").standard_normal(5)
    assert np.array_equal(y, benc.weights @ x + 0.8 * np.linalg.norm(x) * z)


def test_benchmark_weights_come_from_their_own_stream():
    benc = BenchmarkEncoder.new_random(6, sigma=0.3, seed=13)
    expected = spawn_rng(13, "benchmark-encoder-init").uniform(-2.0, 2.0, size=(6, 6))
    assert isinstance(benc, IdealEncoder)
    assert np.array_equal(benc.weights, expected)
    assert benc.sigma == 0.3


@pytest.mark.parametrize("dim", [0, -2])
def test_benchmark_new_random_rejects_non_positive_dim_before_any_draw(dim, monkeypatch):
    def no_draw(*args):
        raise AssertionError("weights drawn")

    monkeypatch.setattr(BenchmarkEncoder, "_seeded_weights", no_draw)
    with pytest.raises(ConfigError) as excinfo:
        BenchmarkEncoder.new_random(dim, sigma=0.5, seed=14)
    assert excinfo.value.field == "dim"


def test_benchmark_is_square_only():
    with pytest.raises(DimensionError):
        BenchmarkEncoder(np.zeros((3, 4)), sigma=0.0)


# --- pixel statistics ----------------------------------------------------------


def test_histogram_all_zero_image():
    counts = pixel_histogram(np.zeros((5, 5)))
    assert counts[0] == 25 and counts.sum() == 25


def test_histogram_binary_stage_two_bins():
    bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    assert pixel_histogram(bits).tolist() == [2, 3]
    assert pixel_histogram(bits.astype(bool)).tolist() == [2, 3]


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
    pre = enc.project_batch(img.flatten()[None], rng)[0]
    bits = enc.encode_batch(img.flatten()[None], float(np.median(pre)), rng)[0]
    assert pixel_histogram(img.pixels).sum() == 900
    assert pixel_histogram(pre).sum() == 3600
    assert pixel_histogram(bits).sum() == 3600


def test_correlation_repeated_columns_is_one():
    column = np.array([0.1, 0.5, 0.9, 0.3])
    img = np.tile(column[:, None], (1, 6))
    assert adjacency_stats(img, "horizontal").correlation == pytest.approx(1.0)


def test_correlation_checkerboard_is_minus_one():
    img = np.indices((6, 6)).sum(axis=0) % 2
    assert adjacency_stats(img, "horizontal").correlation == pytest.approx(-1.0)
    assert adjacency_stats(img, "vertical").correlation == pytest.approx(-1.0)
    assert adjacency_stats(img, "diagonal").correlation == pytest.approx(1.0)


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
        assert abs(adjacency_stats(img, direction).correlation - num / den) < 1e-12


def test_correlation_zero_variance_raises():
    with pytest.raises(DegenerateStatisticError):
        adjacency_stats(np.full((4, 4), 0.7), "horizontal")


def test_correlation_unknown_direction():
    with pytest.raises(ConfigError):
        adjacency_stats(np.zeros((3, 3)), "antidiagonal")


def test_adjacency_pair_counts_match_loops():
    rng = spawn_rng(17, "p")
    bits = rng.integers(0, 2, size=(9, 11))
    counts = adjacency_stats(bits, "horizontal").pair_counts
    # oracle: nested loops
    naive = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for r in range(9):
        for c in range(10):
            naive[(bits[r, c], bits[r, c + 1])] += 1
    assert counts == naive
    assert sum(counts.values()) == 9 * 10


@pytest.mark.parametrize("plane", [
    spawn_rng(20, "b").integers(0, 2, size=(7, 9)).astype(np.uint8),
    spawn_rng(20, "b").integers(0, 2, size=(7, 9)).astype(bool),
    spawn_rng(21, "r").random((7, 9)),
], ids=["uint8-bits", "bool-bits", "real"])
def test_adjacency_stats_match_corrcoef_and_bincount(plane):
    binary = plane.dtype != np.float64
    for direction, (first, second) in {
        "horizontal": (plane[:, :-1], plane[:, 1:]),
        "vertical": (plane[:-1, :], plane[1:, :]),
        "diagonal": (plane[:-1, :-1], plane[1:, 1:]),
    }.items():
        first, second = first.ravel().astype(np.float64), second.ravel().astype(np.float64)
        st = adjacency_stats(plane, direction)
        assert st.direction == direction
        assert st.correlation == pytest.approx(np.corrcoef(first, second)[0, 1],
                                               rel=0, abs=1e-12)
        if binary:
            pairs = np.bincount(2 * first.astype(int) + second.astype(int), minlength=4)
            assert st.pair_counts == {(0, 0): pairs[0], (0, 1): pairs[1],
                                      (1, 0): pairs[2], (1, 1): pairs[3]}
        else:
            assert st.pair_counts is None


def test_adjacency_stats_bundles_counts_for_binary():
    bits = spawn_rng(18, "b").integers(0, 2, size=(8, 8))
    st = adjacency_stats(bits, "vertical")
    assert isinstance(st, AdjacencyStats)
    assert st.pair_counts is not None
    real = adjacency_stats(spawn_rng(19, "r").random((8, 8)), "vertical")
    assert real.pair_counts is None


def test_bits_to_plane_shapes():
    bits = np.arange(4 * 6 * 4) % 2
    plane = bits_to_plane(bits, height=4, width=6, multiplier=4)
    assert plane.shape == (8, 12)       # 4 = 2 x 2
    with pytest.raises(DimensionError):
        bits_to_plane(bits, height=4, width=6, multiplier=2)
    # the multiplier must be an integer >= 1; True is no integer here
    for size, height, width, multiplier in ((0, 4, 6, 0), (10, 2, 2, 2.5), (24, 4, 6, True)):
        with pytest.raises(ConfigError) as excinfo:
            bits_to_plane(np.zeros(size, dtype=np.uint8), height, width, multiplier)
        assert excinfo.value.field == "multiplier"


@pytest.mark.parametrize("size, height, width, field", [
    (96, -4, -6, "height"),   # 96 = -4 * -6 * 4 passes the size check
    (96, 4.0, 6, "height"),
    (96, True, 24, "height"),
    (96, 4, 6.0, "width"),
])
def test_bits_to_plane_needs_integer_height_and_width(size, height, width, field):
    with pytest.raises(ConfigError) as excinfo:
        bits_to_plane(np.zeros(size, dtype=np.uint8), height, width, 4)
    assert excinfo.value.field == field


def test_encrypted_stage_decorrelates_natural_image(rng):
    img = synthetic_natural_image(60, seed=20)
    assert adjacency_stats(img.pixels, "horizontal").correlation > 0.7
    enc = IdealEncoder.new_random(3600, 4, sigma=1.0, seed=21)
    pre = enc.project_batch(img.flatten()[None], rng)[0]
    bits = enc.encode_batch(img.flatten()[None], float(np.median(pre)), rng)[0]
    plane = bits_to_plane(bits, 60, 60, 4)
    for direction in ("horizontal", "vertical", "diagonal"):
        assert abs(adjacency_stats(plane, direction).correlation) < 0.05
