import json
import tracemalloc

import numpy as np
import pytest

from hdcrypt.blocks import _BLOCK_BYTES
from hdcrypt.crossbar import (STUCK_FREE, STUCK_OFF, STUCK_ON, Crossbar,
                              CrossbarConfig)
from hdcrypt.errors import ConfigError, DataFormatError, DimensionError
from hdcrypt.rng import spawn_rng


def make_config(**overrides):
    base = dict(rows=4, cols=8, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.1,
                p_stuck_on=0.02, p_stuck_off=0.02, seed=7)
    base.update(overrides)
    return CrossbarConfig(**base)


def test_table1_style_crossbar_in_range():
    cfg = CrossbarConfig(rows=5, cols=250, r_lrs=1e3, r_hrs=1e5, sigma_frac=0.1,
                         p_stuck_on=0.01, p_stuck_off=0.01, seed=1)
    xbar = Crossbar.new_random(cfg)
    assert xbar.g_target.shape == (5, 250)
    assert xbar.g_target.min() >= 1e-5 and xbar.g_target.max() <= 1e-3


def test_all_stuck_on_when_p_is_one():
    cfg = make_config(p_stuck_on=1.0, p_stuck_off=0.0)
    xbar = Crossbar.new_random(cfg)
    assert np.all(xbar.stuck_mask == STUCK_ON)
    assert np.all(xbar.g_target == cfg.g_on)


def test_stuck_count_matches_monte_carlo_expectation():
    # oracle: empirical mean stuck count over repeated construction
    p_on, p_off = 0.05, 0.05
    n_samples = 200_000
    total = 0
    for i in range(n_samples):
        xbar = Crossbar.new_random(make_config(rows=2, cols=2, p_stuck_on=p_on,
                                               p_stuck_off=p_off, seed=42 + i))
        total += int(np.count_nonzero(xbar.stuck_mask))
    expected = 4 * (p_on + p_off)
    per_cell_var = (p_on + p_off) * (1 - p_on - p_off)
    se = np.sqrt(4 * per_cell_var / n_samples)
    assert abs(total / n_samples - expected) < 3 * se


@pytest.mark.parametrize("field,overrides", [
    ("rows", dict(rows=0)),
    ("cols", dict(cols=-3)),
    ("r_lrs", dict(r_lrs=2e4)),            # violates r_lrs < r_hrs
    ("sigma_frac", dict(sigma_frac=-0.1)),
    ("p_stuck_on", dict(p_stuck_on=-0.5)),
    ("p_stuck_off", dict(p_stuck_off=-1e-9)),
    ("p_stuck_on", dict(p_stuck_on=0.6, p_stuck_off=0.6)),
    ("rows", dict(rows=True)),
    ("cols", dict(cols=True)),
    ("seed", dict(seed="abc")),
    ("seed", dict(seed=1.5)),
    ("seed", dict(seed=False)),
])
def test_invalid_config_names_field(field, overrides):
    with pytest.raises(ConfigError) as excinfo:
        make_config(**overrides)
    assert excinfo.value.field == field


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["r_lrs", "r_hrs", "sigma_frac", "p_stuck_on",
                                   "p_stuck_off"])
def test_non_finite_config_names_field(field, value):
    with pytest.raises(ConfigError) as excinfo:
        make_config(**{field: value})
    assert excinfo.value.field == field


def test_vmm_uniform_conductance_sums_rows(rng):
    cfg = make_config(sigma_frac=0.0, p_stuck_on=0.0, p_stuck_off=0.0)
    xbar = Crossbar(cfg, np.full((4, 8), 4e-4), np.zeros((4, 8), dtype=np.int8))
    out = xbar.read_vmm(np.ones(4), rng)
    assert np.allclose(out, 4 * 4e-4)


def test_vmm_zero_vector_is_zero(rng):
    xbar = Crossbar.new_random(make_config(sigma_frac=0.5))
    assert np.all(xbar.read_vmm(np.zeros(4), rng) == 0.0)


def test_vmm_matches_hand_computed_product(rng):
    cfg = make_config(rows=2, cols=2, sigma_frac=0.0, p_stuck_on=0.0, p_stuck_off=0.0)
    g = np.array([[2e-4, 5e-4], [3e-4, 7e-4]])
    xbar = Crossbar(cfg, g, np.zeros((2, 2), dtype=np.int8))
    v = np.array([2.0, -1.0])
    # oracle: scalar arithmetic, entry by entry
    expected = np.array([2.0 * 2e-4 + (-1.0) * 3e-4, 2.0 * 5e-4 + (-1.0) * 7e-4])
    assert np.allclose(xbar.read_vmm(v, rng), expected, rtol=0, atol=1e-18)


def test_vmm_shape_errors(rng):
    xbar = Crossbar.new_random(make_config())
    with pytest.raises(DimensionError):
        xbar.read_vmm(np.ones(5), rng)
    with pytest.raises(DimensionError):
        xbar.read_vmm_batch(np.ones((3, 5)), rng)
    with pytest.raises(ValueError):
        xbar.read_vmm(np.array([np.nan, 0, 0, 0]), rng)


def test_constructor_rejects_conductances_off_the_rails():
    cfg = make_config()
    free = np.zeros((4, 8), dtype=np.int8)
    for g in (np.full((4, 8), 1.0), np.zeros((4, 8))):   # above G_on, below G_off
        with pytest.raises(ConfigError) as excinfo:
            Crossbar(cfg, g, free)
        assert excinfo.value.field == "g_target"


@pytest.mark.parametrize("stuck, rail", [(STUCK_ON, "g_off"), (STUCK_OFF, "g_on")],
                         ids=["stuck-on", "stuck-off"])
def test_constructor_rejects_stuck_cells_off_their_rail(stuck, rail):
    cfg = make_config()
    mask = np.zeros((4, 8), dtype=np.int8)
    mask[1, 2] = stuck
    with pytest.raises(ConfigError, match="stuck"):
        Crossbar(cfg, np.full((4, 8), getattr(cfg, rail)), mask)


def test_constructor_shape_error():
    cfg = make_config()
    with pytest.raises(DimensionError, match="g_target"):
        Crossbar(cfg, np.full((3, 8), cfg.g_mid), np.zeros((4, 8), dtype=np.int8))
    with pytest.raises(DimensionError, match="stuck_mask"):
        Crossbar(cfg, np.full((4, 8), cfg.g_mid), np.zeros((3, 8), dtype=np.int8))


def test_effective_conductances_stay_clamped():
    cfg = make_config(sigma_frac=2.0)   # enormous noise to exercise the clamp
    xbar = Crossbar.new_random(cfg)
    rng = spawn_rng(0, "clamp-check")
    for _ in range(50):
        eff = xbar.effective_read_matrix(rng)
        assert eff.min() >= cfg.g_off and eff.max() <= cfg.g_on


def test_identical_seed_and_stream_is_bit_identical():
    cfg = make_config(sigma_frac=0.3)
    a = Crossbar.new_random(cfg)
    b = Crossbar.new_random(cfg)
    assert np.array_equal(a.g_target, b.g_target)
    assert np.array_equal(a.stuck_mask, b.stuck_mask)
    v = np.linspace(-1, 1, 4)
    out_a = a.read_vmm(v, spawn_rng(9, "reads"))
    out_b = b.read_vmm(v, spawn_rng(9, "reads"))
    assert np.array_equal(out_a, out_b)


def test_unbiased_at_range_midpoint():
    cfg = make_config(rows=3, cols=5, sigma_frac=0.1, p_stuck_on=0.0, p_stuck_off=0.0)
    xbar = Crossbar(cfg, np.full((3, 5), cfg.g_mid), np.zeros((3, 5), dtype=np.int8))
    rng = spawn_rng(1, "unbiased")
    n_reads = 10_000
    acc = np.zeros((3, 5))
    for _ in range(n_reads):
        acc += xbar.effective_read_matrix(rng)
    mean = acc / n_reads
    se = cfg.noise_std / np.sqrt(n_reads)
    assert np.all(np.abs(mean - cfg.g_mid) < 3 * se)


def test_fully_stuck_crossbar_reads_are_constant():
    cfg = make_config(sigma_frac=0.5, p_stuck_on=0.4, p_stuck_off=0.6)
    xbar = Crossbar.new_random(cfg)
    rng = spawn_rng(2, "stuck-reads")
    v = np.linspace(0.5, -0.5, 4)
    first = xbar.read_vmm(v, rng)
    for _ in range(10):
        assert np.array_equal(xbar.read_vmm(v, rng), first)


def test_linearity_without_noise(rng):
    cfg = make_config(sigma_frac=0.0)
    xbar = Crossbar.new_random(cfg)
    x = np.array([0.3, -0.7, 1.1, 0.2])
    y = np.array([-0.5, 0.9, 0.0, -1.3])
    lhs = xbar.read_vmm(x + y, rng)
    rhs = xbar.read_vmm(x, rng) + xbar.read_vmm(y, rng)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-18)


def test_single_read_matches_elementwise_reference():
    # oracle: per-read noise on free cells only, clamped, then one product
    cfg = make_config(rows=5, cols=30, sigma_frac=0.6, p_stuck_on=0.1, p_stuck_off=0.1)
    xbar = Crossbar.new_random(cfg)
    v = spawn_rng(5, "v").uniform(-1, 1, 5)
    z = spawn_rng(6, "reads").standard_normal((2, 5, 30))
    free = xbar.stuck_mask == STUCK_FREE
    expected = [np.clip(xbar.g_target + np.where(free, z[i] * cfg.noise_std, 0.0),
                        cfg.g_off, cfg.g_on) for i in range(2)]
    rng = spawn_rng(6, "reads")
    assert np.array_equal(xbar.effective_read_matrix(rng), expected[0])
    assert np.array_equal(xbar.read_vmm(v, rng), v @ expected[1])


def test_batch_reads_match_sequential_reads_bitwise():
    cfg = make_config(rows=6, cols=40, sigma_frac=0.25, p_stuck_on=0.1, p_stuck_off=0.1)
    xbar = Crossbar.new_random(cfg)
    vs = spawn_rng(3, "inputs").uniform(-1, 1, size=(17, 6))
    batched = xbar.read_vmm_batch(vs, spawn_rng(4, "stream"))
    stream = spawn_rng(4, "stream")
    looped = np.array([xbar.read_vmm(v, stream) for v in vs])
    assert np.array_equal(batched, looped)


def test_noiseless_batch_reads_match_sequential_reads_bitwise():
    cfg = make_config(rows=6, cols=96, sigma_frac=0.0, p_stuck_on=0.0, p_stuck_off=0.0)
    xbar = Crossbar.new_random(cfg)
    vs = spawn_rng(5, "inputs").uniform(-1, 1, size=(200, 6))
    batched = xbar.read_vmm_batch(vs, spawn_rng(6, "stream"))
    looped = np.array([xbar.read_vmm(v, spawn_rng(6, "stream")) for v in vs])
    assert np.array_equal(batched, looped)
    assert np.array_equal(looped, np.array([v @ xbar.g_target for v in vs]))


@pytest.mark.parametrize("sigma", [0.25, 0.0])
def test_blocked_reads_match_sequential_reads_bitwise(sigma):
    cfg = make_config(rows=6, cols=40, sigma_frac=sigma, p_stuck_on=0.1, p_stuck_off=0.1)
    xbar = Crossbar.new_random(cfg)
    chunk = _BLOCK_BYTES // (8 * 6 * 40)
    # two full blocks of reads and a half-full last one
    vs = spawn_rng(7, "inputs").uniform(-1, 1, size=(5 * chunk // 2, 6))
    batched = xbar.read_vmm_batch(vs, spawn_rng(8, "stream"))
    stream = spawn_rng(8, "stream")
    looped = np.array([xbar.read_vmm(v, stream) for v in vs])
    assert np.array_equal(batched, looped)


def test_empty_batch_read_consumes_no_draws():
    xbar = Crossbar.new_random(make_config(sigma_frac=0.3))
    rng = spawn_rng(9, "stream")
    before = rng.bit_generator.state
    out = xbar.read_vmm_batch(np.empty((0, 4)), rng)
    assert out.shape == (0, 8)
    assert rng.bit_generator.state == before


def test_batch_read_memory_stays_near_output_size():
    xbar = Crossbar.new_random(make_config(rows=10, cols=500))
    vs = spawn_rng(10, "inputs").uniform(-1, 1, size=(20_000, 10))
    tracemalloc.start()
    try:
        out = xbar.read_vmm_batch(vs, spawn_rng(11, "stream"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + (8 << 20)


def test_json_roundtrip(tmp_path):
    xbar = Crossbar.new_random(make_config(p_stuck_on=0.3, p_stuck_off=0.3))
    path = tmp_path / "xbar.json"
    xbar.save(path)
    loaded = Crossbar.load(path)
    assert loaded.config == xbar.config
    assert np.array_equal(loaded.g_target, xbar.g_target)
    assert np.array_equal(loaded.stuck_mask, xbar.stuck_mask)


def test_json_stuck_codes(saved_document):
    xbar = Crossbar.new_random(make_config(rows=1, cols=3, p_stuck_on=0.0,
                                           p_stuck_off=0.0))
    path, doc = saved_document(xbar.save)
    assert doc["stuck_mask"] == "FFF"
    doc["stuck_mask"] = "FXQ"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        Crossbar.load(path)


def test_json_rejects_wrong_version(saved_document):
    path, doc = saved_document(Crossbar.new_random(make_config()).save)
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        Crossbar.load(path)


def test_stuck_cells_pinned_at_rails():
    cfg = make_config(rows=20, cols=20, p_stuck_on=0.3, p_stuck_off=0.3)
    xbar = Crossbar.new_random(cfg)
    assert np.all(xbar.g_target[xbar.stuck_mask == STUCK_ON] == cfg.g_on)
    assert np.all(xbar.g_target[xbar.stuck_mask == STUCK_OFF] == cfg.g_off)
    free = xbar.stuck_mask == STUCK_FREE
    assert np.all(xbar.g_target[free] >= cfg.g_off)
    assert np.all(xbar.g_target[free] <= cfg.g_on)
