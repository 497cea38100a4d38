import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt import blocks
from hdcrypt.blocks import _BLOCK_BYTES, GEMM_ROWS, GEMV_ROWS, block_size, block_slices
from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.encoder import (IdealEncoder, binarize_batch, calibrate_epsilon,
                             crossbar_pre_threshold_batch, encode_crossbar_batch,
                             project_streamed, threshold_binarize)
from hdcrypt.errors import ConfigError, DimensionError
from hdcrypt.imagecrypto import BenchmarkEncoder
from hdcrypt.rng import spawn_rng


def small_crossbar(rows=2, cols=4, sigma=0.0, p_on=0.0, p_off=0.0, seed=5):
    cfg = CrossbarConfig(rows=rows, cols=cols, r_lrs=1e3, r_hrs=1e4,
                         sigma_frac=sigma, p_stuck_on=p_on, p_stuck_off=p_off,
                         seed=seed)
    return Crossbar.new_random(cfg)


# --- threshold -------------------------------------------------------------


def test_threshold_basic_case_split():
    bits = threshold_binarize(np.array([-1.0, 0.0, 2.0]), 0.5)
    assert bits.tolist() == [0, 0, 1]


def test_threshold_equality_maps_to_one():
    bits = threshold_binarize(np.full(5, 0.25), 0.25)
    assert bits.sum() == 5


def test_threshold_median_balances_bits():
    y = spawn_rng(0, "median").standard_normal(10_000)
    # oracle: sort-based median
    epsilon = float(np.sort(y)[4999:5001].mean())
    pop = int(threshold_binarize(y, epsilon).sum())
    assert abs(pop - 5000) <= 1


def test_threshold_rejects_non_finite():
    with pytest.raises(ValueError):
        threshold_binarize(np.array([0.0, np.inf]), 0.0)


def test_single_encodings_are_rows_of_the_batched_bits():
    y = spawn_rng(5, "y").standard_normal((3, 40))
    for row, ys in zip(binarize_batch(y, 0.1), y):
        bits = threshold_binarize(ys, 0.1)
        assert bits.dtype == np.uint8 and bits.shape == (40,)
        assert np.array_equal(bits, row)
    xbar = small_crossbar(rows=3, cols=24, sigma=0.2, seed=8)
    xs = spawn_rng(9, "xs").uniform(-1, 1, (4, 3))
    batch = encode_crossbar_batch(xbar, xs, 1e-5, spawn_rng(10, "s"))
    stream = spawn_rng(10, "s")
    for row, x in zip(batch, xs):
        bits = encode_crossbar_batch(xbar, x[None], 1e-5, stream)[0]
        assert bits.dtype == np.uint8 and bits.shape == (24,)
        assert np.array_equal(bits, row)
    for bad in (np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(DimensionError):
            threshold_binarize(bad, 0.0)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_threshold_rejects_non_finite_epsilon(epsilon):
    # y >= nan is false everywhere: a NaN threshold would give all-zero codes
    for binarize in (threshold_binarize, lambda y, e: binarize_batch(y[None], e)):
        with pytest.raises(ConfigError) as excinfo:
            binarize(np.array([0.0, 1.0]), epsilon)
        assert excinfo.value.field == "epsilon"


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_threshold_idempotent_on_binary(dim, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=dim)
    again = threshold_binarize(bits.astype(float), 0.5)
    assert np.array_equal(again, bits)


# --- crossbar encoding -------------------------------------------------------


def test_noiseless_encoding_is_deterministic():
    xbar = small_crossbar(rows=4, cols=16)
    x = np.array([0.4, -0.2, 0.9, -1.0])
    a = encode_crossbar_batch(xbar, x[None], 0.0, spawn_rng(1, "a"))[0]
    b = encode_crossbar_batch(xbar, x[None], 0.0, spawn_rng(2, "b"))[0]
    assert np.array_equal(a, b)


def test_noisy_encodings_differ_pass_to_pass():
    # hyperparameter-table style row: 10x500, sigma 0.1, 2% stuck cells
    xbar = small_crossbar(rows=10, cols=500, sigma=0.1, p_on=0.02, p_off=0.02)
    x = spawn_rng(3, "x").uniform(-1, 1, 10)
    rng = spawn_rng(4, "passes")
    first = encode_crossbar_batch(xbar, x[None], 0.0, rng)
    assert any(not np.array_equal(encode_crossbar_batch(xbar, x[None], 0.0, rng), first)
               for _ in range(10))


def test_crossbar_encoding_matches_hand_computed_bits(rng):
    xbar = small_crossbar(rows=2, cols=4)
    g = np.array([[2e-4, 4e-4, 6e-4, 8e-4],
                  [3e-4, 1e-4, 9e-4, 2e-4]])
    xbar = Crossbar(xbar.config, g, xbar.stuck_mask)
    x = np.array([1.0, -0.5])
    # oracle: per-column arithmetic, minus the mid-range reference current
    ref = (1.0 - 0.5) * xbar.config.g_mid
    y = np.array([2e-4 - 1.5e-4, 4e-4 - 0.5e-4, 6e-4 - 4.5e-4, 8e-4 - 1e-4]) - ref
    eps = float(np.median(y))
    got = encode_crossbar_batch(xbar, x[None], eps, rng)[0]
    assert np.array_equal(got, (y >= eps).astype(np.uint8))


def test_pre_threshold_cancels_common_mode(rng):
    # an input whose entry sum is extreme must not saturate the code
    xbar = small_crossbar(rows=8, cols=400, seed=11)
    ones = np.ones(8)
    y = crossbar_pre_threshold_batch(xbar, ones[None], rng)[0]
    assert (y > 0).mean() > 0.2 and (y > 0).mean() < 0.8


def test_batch_encoding_matches_single_calls():
    xbar = small_crossbar(rows=5, cols=64, sigma=0.2, p_on=0.05, p_off=0.05)
    xs = spawn_rng(6, "xs").uniform(-1, 1, (9, 5))
    bits = encode_crossbar_batch(xbar, xs, 1e-5, spawn_rng(7, "s"))
    stream = spawn_rng(7, "s")
    singles = [encode_crossbar_batch(xbar, x[None], 1e-5, stream)[0] for x in xs]
    for row, single in zip(bits, singles):
        assert np.array_equal(row, single)


def test_crossbar_encoding_checks_every_input_before_any_read():
    xbar = small_crossbar(rows=6, cols=40, sigma=0.25, seed=13)
    rng = spawn_rng(16, "s")
    before = rng.bit_generator.state
    xs = np.zeros((2 * (_BLOCK_BYTES // (8 * 6 * 40)) + 1, 6))
    xs[-1, 0] = np.nan      # in the last block, which an unchecked loop reaches last
    with pytest.raises(ValueError, match="finite"):
        encode_crossbar_batch(xbar, xs, 0.0, rng)
    assert rng.bit_generator.state == before


def test_encode_dimension_mismatch(rng):
    xbar = small_crossbar()
    with pytest.raises(DimensionError):
        encode_crossbar_batch(xbar, np.ones((1, 3)), 0.0, rng)


_ORACLE_BLOCK = _BLOCK_BYTES // (8 * 6 * 40)    # reads per block of a 6x40 crossbar


@pytest.mark.parametrize("sigma", [0.25, 0.0])
@pytest.mark.parametrize("n", [0, 1, _ORACLE_BLOCK - 1, _ORACLE_BLOCK, 3 * _ORACLE_BLOCK + 1])
def test_blocked_encoding_matches_one_shot_threshold(sigma, n):
    xbar = small_crossbar(rows=6, cols=40, sigma=sigma, p_on=0.1, p_off=0.1, seed=13)
    xs = spawn_rng(14, "xs").uniform(-1, 1, (n, 6))
    stream = spawn_rng(15, "s")
    bits = encode_crossbar_batch(xbar, xs, 1e-5, stream)
    # oracle: every read's pre-threshold values at once, then one threshold
    oracle = spawn_rng(15, "s")
    expected = binarize_batch(crossbar_pre_threshold_batch(xbar, xs, oracle), 1e-5)
    assert bits.dtype == np.uint8 and bits.shape == (n, 40)
    assert np.array_equal(bits, expected)
    assert stream.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("n", [0, 3])
def test_encoding_checks_threshold_and_width_before_any_read(n):
    xbar = small_crossbar(rows=6, cols=40, sigma=0.25)
    rng = spawn_rng(16, "s")
    before = rng.bit_generator.state
    with pytest.raises(ConfigError, match="epsilon"):
        encode_crossbar_batch(xbar, np.zeros((n, 6)), float("nan"), rng)
    with pytest.raises(DimensionError):
        encode_crossbar_batch(xbar, np.zeros((n, 5)), 0.0, rng)
    assert rng.bit_generator.state == before


def test_encoding_memory_stays_near_bit_output_size():
    xbar = small_crossbar(rows=10, cols=500, sigma=0.1, p_on=0.02, p_off=0.02, seed=17)
    xs = spawn_rng(18, "xs").uniform(-1, 1, (20_000, 10))
    tracemalloc.start()
    try:
        bits = encode_crossbar_batch(xbar, xs, 0.0, spawn_rng(19, "s"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a float64 pre-threshold matrix would be eight times the bits
    assert peak < bits.nbytes + (8 << 20)


# --- ideal encoder -----------------------------------------------------------


def test_ideal_sigma_zero_is_pure_function():
    enc = IdealEncoder.new_random(4, 8, sigma=0.0, seed=8)
    x = np.array([0.1, 0.9, -0.4, 0.0])
    assert np.array_equal(enc.encode_batch(x[None], 0.0, spawn_rng(1, "u")),
                          enc.encode_batch(x[None], 0.0, spawn_rng(2, "v")))


def test_ideal_init_interval_respected():
    enc = IdealEncoder.new_random(30, 20, sigma=0.0, seed=9)
    assert enc.weights.min() >= -2.0 and enc.weights.max() <= 2.0
    assert enc.weights.min() < -1.5 and enc.weights.max() > 1.5


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
def test_ideal_sigma_must_be_finite_and_non_negative(sigma):
    for make in (lambda: IdealEncoder(np.ones((4, 2)), sigma),
                 lambda: IdealEncoder.new_random(2, 2, sigma, seed=9),
                 lambda: project_streamed(np.ones(2), 4, sigma, 9, spawn_rng(1, "s"))):
        with pytest.raises(ConfigError) as excinfo:
            make()
        assert excinfo.value.field == "sigma"


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_ideal_epsilon_must_be_finite_when_encoding(epsilon):
    enc = IdealEncoder.new_random(2, 2, sigma=0.1, seed=9)
    rng = spawn_rng(1, "s")
    before = rng.bit_generator.state
    for xs in (np.zeros((0, 2)), np.ones((3, 2))):
        with pytest.raises(ConfigError) as excinfo:
            enc.encode_batch(xs, epsilon, rng)
        assert excinfo.value.field == "epsilon"
    assert rng.bit_generator.state == before


def test_ideal_hand_computed_row_sums(rng):
    w = np.array([[1.0, 2.0], [-3.0, 1.0], [0.5, -0.5]])
    enc = IdealEncoder(w, sigma=0.0)
    bits = enc.encode_batch(np.array([[1.0, 1.0]]), 0.5, rng)
    # oracle: row sums are 3, -2, 0 -> thresholded at 0.5
    assert bits.tolist() == [[1, 0, 0]]


def test_ideal_noise_equals_scaled_standard_normals():
    enc = IdealEncoder.new_random(3, 5, sigma=0.7, seed=10)
    x = np.array([0.2, -0.4, 1.0])
    y = enc.project_batch(x[None], spawn_rng(11, "n"))[0]
    z = spawn_rng(11, "n").standard_normal(enc.output_dim)
    expected = enc.weights @ x + 0.7 * np.linalg.norm(x) * z
    assert np.array_equal(y, expected)


def test_ideal_noise_distribution_matches_matrix_form(project_with_noise_matrix):
    # oracle: materialized noise-matrix path, per-entry variance sigma^2 ||x||^2
    enc = IdealEncoder.new_random(6, 40, sigma=0.3, seed=12)
    x = spawn_rng(13, "x").uniform(-1, 1, 6)
    mat_rng = spawn_rng(14, "mat")
    mat_draws = np.array([
        project_with_noise_matrix(enc, x, 0.3 * mat_rng.standard_normal(enc.weights.shape))
        for _ in range(4000)
    ])
    fast_rng = spawn_rng(15, "fast")
    fast_draws = enc.project_batch(np.tile(x, (4000, 1)), fast_rng)
    clean = enc.weights @ x
    for draws in (mat_draws, fast_draws):
        assert np.allclose(draws.mean(axis=0), clean, atol=0.02)
    assert np.isclose(mat_draws.std(), fast_draws.std(), rtol=0.05)
    assert np.isclose(fast_draws.std(axis=0).mean(), 0.3 * np.linalg.norm(x), rtol=0.05)


def test_ideal_zero_input_kills_noise(rng):
    enc = IdealEncoder.new_random(5, 10, sigma=3.0, seed=16)
    y = enc.project_batch(np.zeros((1, 5)), rng)
    assert np.all(y == 0.0)


def test_ideal_batch_matches_single(rng):
    # same noise stream, one batch of seven against seven batches of one;
    # the clean term may round differently with the batch size
    enc = IdealEncoder.new_random(4, 6, sigma=0.5, seed=17)
    xs = spawn_rng(18, "xs").uniform(-1, 1, (7, 4))
    batch = enc.project_batch(xs, spawn_rng(19, "s"))
    stream = spawn_rng(19, "s")
    singles = np.concatenate([enc.project_batch(x[None], stream) for x in xs])
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: IdealEncoder.new_random(4, 2, sigma=0.5, seed=44),
    lambda: BenchmarkEncoder.new_random(4, sigma=0.5, seed=45),
], ids=["ideal", "benchmark"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_projection_rejects_non_finite_input(make, bad):
    enc = make()
    xs = np.zeros((2, 4))
    xs[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        enc.project_batch(xs, spawn_rng(46, "s"))


def test_encoder_params_validation():
    assert IdealEncoder.new_random(input_dim=10, multiplier=50, sigma=0.0, seed=1).output_dim == 500
    with pytest.raises(ConfigError) as excinfo:
        IdealEncoder.new_random(input_dim=0, multiplier=5, sigma=0.0, seed=1)
    assert excinfo.value.field == "input_dim"
    with pytest.raises(ConfigError) as excinfo:
        IdealEncoder.new_random(input_dim=5, multiplier=0, sigma=0.0, seed=1)
    assert excinfo.value.field == "multiplier"


def test_blocked_batch_noise_matches_one_shot_draws():
    enc = IdealEncoder.new_random(8, 40, sigma=0.6, seed=35)
    step = _BLOCK_BYTES // (8 * enc.output_dim)
    # two full noise blocks and a half-full last one
    xs = spawn_rng(36, "xs").uniform(-1, 1, (5 * step // 2, 8))
    got = enc.project_batch(xs, spawn_rng(37, "s"))
    # oracle: the one-shot form, drawing the whole batch's noise at once
    norms = np.linalg.norm(xs, axis=1, keepdims=True)
    expected = xs @ enc.weights.T + 0.6 * norms * spawn_rng(37, "s").standard_normal(got.shape)
    assert np.array_equal(got, expected)


# an encoder whose float64 pre-threshold values fill _IDEAL_BLOCK rows per block
_IDEAL_SHAPE = (32, 20)             # k, multiplier: D = 640
_IDEAL_BLOCK = block_size(640, GEMM_ROWS)   # 400 rows


@pytest.mark.parametrize("sigma", [0.6, 0.0])
@pytest.mark.parametrize("n", [0, 1, _IDEAL_BLOCK, 2 * _IDEAL_BLOCK + 137])
def test_blocked_ideal_encoding_matches_one_shot_threshold(sigma, n):
    enc = IdealEncoder.new_random(*_IDEAL_SHAPE, sigma=sigma, seed=47)
    xs = spawn_rng(48, "xs").uniform(-1, 1, (n, _IDEAL_SHAPE[0]))
    stream = spawn_rng(49, "s")
    bits = enc.encode_batch(xs, 0.25, stream)
    # oracle: the whole batch's pre-threshold values at once, then one threshold
    oracle = spawn_rng(49, "s")
    expected = binarize_batch(enc.project_batch(xs, oracle), 0.25)
    assert bits.dtype == np.uint8 and bits.shape == (n, enc.output_dim)
    assert np.array_equal(bits, expected)
    assert stream.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ideal_encoding_checks_input_and_threshold_before_any_draw(bad):
    enc = IdealEncoder.new_random(*_IDEAL_SHAPE, sigma=0.6, seed=50)
    rng = spawn_rng(51, "s")
    before = rng.bit_generator.state
    xs = np.zeros((2 * _IDEAL_BLOCK + 1, _IDEAL_SHAPE[0]))
    xs[-1, 0] = bad     # in the last block, which an unchecked loop reaches last
    with pytest.raises(ValueError, match="finite"):
        enc.encode_batch(xs, 0.0, rng)
    with pytest.raises(ConfigError, match="epsilon"):
        enc.encode_batch(np.zeros((3, _IDEAL_SHAPE[0])), float("nan"), rng)
    with pytest.raises(DimensionError):
        enc.encode_batch(np.zeros((3, _IDEAL_SHAPE[0] + 1)), 0.0, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("make", [
    lambda: IdealEncoder.new_random(784, 4, sigma=1.0, seed=55),    # D = 3,136: 80-row blocks
    lambda: BenchmarkEncoder.new_random(784, sigma=1.0, seed=56),   # D = 784: 320-row blocks
], ids=["ideal", "benchmark"])
def test_repeats_equal_the_tiled_batch_bitwise(make):
    # an image cell's 270 training images, 4 copies each: a block of the
    # tiled rows straddles the boundary between the first two copies
    enc = make()
    xs = spawn_rng(57, "xs").uniform(0, 1, (270, enc.input_dim))
    tiled = np.tile(xs, (4, 1))
    step = block_size(enc.output_dim, GEMM_ROWS)
    assert any(s.start < 270 < s.stop for s in block_slices(len(tiled), step))
    for label, call in (("project", lambda x, rng, **kw: enc.project_batch(x, rng, **kw)),
                        ("encode", lambda x, rng, **kw: enc.encode_batch(x, 0.1, rng, **kw))):
        stream, oracle = spawn_rng(58, label), spawn_rng(58, label)
        got = call(xs, stream, repeats=4)
        expected = call(tiled, oracle)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert stream.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("repeats", [0, -1, 2.5, True])
def test_repeats_are_checked_before_any_draw(repeats):
    enc = IdealEncoder.new_random(4, 2, sigma=0.5, seed=59)
    rng = spawn_rng(60, "s")
    before = rng.bit_generator.state
    with pytest.raises(ConfigError, match="^repeats: "):
        enc.project_batch(np.ones((3, 4)), rng, repeats=repeats)
    with pytest.raises(ConfigError, match="^repeats: "):
        enc.encode_batch(np.ones((3, 4)), 0.0, rng, repeats=repeats)
    assert rng.bit_generator.state == before


def test_ideal_encoding_memory_stays_near_bit_output_size():
    enc = IdealEncoder.new_random(64, 50, sigma=1.0, seed=52)     # D = 3,200
    xs = spawn_rng(53, "xs").uniform(0, 1, (2_000, 64))
    tracemalloc.start()
    try:
        bits = enc.encode_batch(xs, 0.0, spawn_rng(54, "s"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float64 pre-threshold matrix would be eight times the bits, 49 MiB
    assert peak <= bits.nbytes + (8 << 20)


# --- calibration -------------------------------------------------------------


def test_calibrate_constant_outputs():
    eps = calibrate_epsilon(np.full((3, 4), 3.25))
    assert eps == 3.25


def test_calibrate_uniform_outputs_near_half():
    rng = spawn_rng(20, "calib")
    eps = calibrate_epsilon(rng.random((100, 500)))
    assert abs(eps - 0.5) < 0.02


def test_calibrate_empty_sample_set():
    with pytest.raises(ValueError):
        calibrate_epsilon(np.zeros((0, 3)))


def test_calibrated_encodings_are_balanced():
    # balance invariant: mean popcount within [0.4, 0.6] * D over 1000 passes
    xbar = small_crossbar(rows=10, cols=200, sigma=0.1, p_on=0.02, p_off=0.02, seed=21)
    inputs = spawn_rng(22, "cal-x").uniform(-1, 1, (50, 10))
    eps = calibrate_epsilon(crossbar_pre_threshold_batch(xbar, inputs, spawn_rng(23, "cal")))
    enc_rng = spawn_rng(24, "enc")
    xs = inputs[spawn_rng(25, "pick").integers(0, 50, size=1000)]
    bits = encode_crossbar_batch(xbar, xs, eps, enc_rng)
    assert 0.4 <= bits.mean() <= 0.6


def test_packed_encoding_agrees_with_unpacked_reference(rng):
    # invariant: packed bit operations match a plain boolean-array pipeline
    xbar = small_crossbar(rows=6, cols=100, sigma=0.15, p_on=0.1, p_off=0.1, seed=26)
    x = spawn_rng(27, "x").uniform(-1, 1, 6)
    y = crossbar_pre_threshold_batch(xbar, x[None], spawn_rng(28, "s"))[0]
    bits = threshold_binarize(y, 0.0)
    reference = np.array([1 if v >= 0.0 else 0 for v in y], dtype=np.uint8)
    assert np.array_equal(bits, reference)
    assert int(bits.sum()) == int(reference.sum())


def test_streamed_projection_matches_in_memory_encoder(monkeypatch):
    enc = IdealEncoder.new_random(12, 30, sigma=0.4, seed=31)
    x = spawn_rng(32, "x").uniform(0, 1, 12)
    direct = enc.project_batch(x[None], spawn_rng(33, "s"))[0]
    # 8-row blocks: the 360 rows are streamed in 45 blocks
    monkeypatch.setattr(blocks, "_BLOCK_BYTES", 8 * 12 * 8)
    streamed = project_streamed(x, enc.output_dim, 0.4, 31, spawn_rng(33, "s"))
    assert np.allclose(streamed, direct, rtol=1e-12, atol=1e-12)
    # the sigma=0 part is the same seeded weight stream, exactly
    monkeypatch.undo()
    clean = project_streamed(x, enc.output_dim, 0.0, 31, spawn_rng(34, "t"))
    assert np.allclose(clean, enc.weights @ x, rtol=1e-13, atol=0)


def test_streamed_projection_is_independent_of_block_budget(monkeypatch):
    x = spawn_rng(41, "x").uniform(0, 1, 1000)
    # 4,002 rows: the last block holds a partial group of four rows
    outputs = []
    for budget in (1, 8 * 1000 * 12, _BLOCK_BYTES):  # 4, 12 and 260 rows
        monkeypatch.setattr(blocks, "_BLOCK_BYTES", budget)
        outputs.append(project_streamed(x, 4002, 0.8, 42, spawn_rng(43, "s")))
    for y in outputs[1:]:
        assert np.array_equal(y, outputs[0])


def test_streamed_projection_is_the_gemv_of_each_drawn_weight_block():
    # oracle: each GEMV-aligned block of weights materialized as
    # low + (high - low) * u = 4u - 2 from the encoder's seeded stream
    x = spawn_rng(61, "x").uniform(0, 1, 300)
    rows = 1000     # two blocks of 872 and 128 rows
    u = spawn_rng(62, IdealEncoder._INIT_LABEL).random((rows, x.size))
    w = -2.0 + 4.0 * u
    clean = np.concatenate([w[block] @ x for block in
                            block_slices(rows, block_size(x.size, GEMV_ROWS))])
    assert np.array_equal(project_streamed(x, rows, 0.0, 62, spawn_rng(63, "s")), clean)
    noise = spawn_rng(63, "s").standard_normal(rows)
    assert np.array_equal(project_streamed(x, rows, 0.5, 62, spawn_rng(63, "s")),
                          clean + 0.5 * np.linalg.norm(x) * noise)


def test_streamed_projection_checks_its_input():
    for bad in (np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(DimensionError):
            project_streamed(bad, 4, 0.5, 9, spawn_rng(1, "s"))
    with pytest.raises(ValueError, match="finite"):
        project_streamed(np.array([1.0, np.nan]), 4, 0.5, 9, spawn_rng(1, "s"))


def test_streamed_projection_memory_stays_near_output_size():
    x = spawn_rng(38, "x").uniform(0, 1, 2048)
    tracemalloc.start()
    try:
        y = project_streamed(x, 4 * x.size, 1.0, 39, spawn_rng(40, "s"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < y.nbytes + (8 << 20)


def test_small_input_perturbation_flips_no_bits(rng):
    xbar = small_crossbar(rows=4, cols=32, seed=29)
    x = spawn_rng(30, "x").uniform(-1, 1, 4)
    eps = float(np.median(crossbar_pre_threshold_batch(xbar, x[None], rng)[0])) + 1e-7
    base = encode_crossbar_batch(xbar, x[None], eps, rng)[0]
    bumped = x.copy()
    bumped[2] += 1e-12
    assert np.array_equal(encode_crossbar_batch(xbar, bumped[None], eps, rng)[0], base)
