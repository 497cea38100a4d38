"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest bench/tests -q

Each workload's code path runs in seconds, and each correctness check is
shown to reject a corrupted output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hdcrypt import cli, crossbar, decoder, encoder, experiments, textcrypto  # noqa: E402


def tiny_run(name, tmp_path, seed=5, tracer=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(seed, 0, tracer, str(tmp_path))
    if tracer:
        tracer.install()
    try:
        workloads.WORKLOADS[name](run, workloads.TINY_SIZES[name])
    finally:
        if tracer:
            tracer.restore()
    return run


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name, tmp_path):
    run = tiny_run(name, tmp_path)
    assert run.failures == [] and run.errors == []
    assert run.rounds == 1 and run.attempted >= 1 and run.failed == 0
    metrics = run.metrics()
    assert all(metrics[name] > 0 for name in workloads.END_TO_END)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_measures_the_same_program(name, tmp_path):
    untraced = tiny_run(name, tmp_path / "plain")
    tracer = spans.Tracer()
    traced = tiny_run(name, tmp_path / "traced", tracer=tracer)
    assert traced.seeded == untraced.seeded
    assert traced.failures == []
    layer = tracer.metrics()
    assert list(layer) == spans.metric_names()
    for span, (calls, total, self_s) in tracer.spans.items():
        assert 0 <= self_s <= total + 1e-9, span
        assert (calls == 0) == (total == 0), span


def test_restore_puts_every_original_back():
    tracer = spans.Tracer()
    before = {(m, q): _lookup(m, q) for m, q in spans.SPANS}
    aliases = (cli.encrypt_text, experiments.train, cli.main)
    tracer.install()
    assert experiments.train is not aliases[1] and cli.main is not aliases[2]
    tracer.restore()
    assert {(m, q): _lookup(m, q) for m, q in spans.SPANS} == before
    assert (cli.encrypt_text, experiments.train, cli.main) == aliases


def _lookup(module, qualname):
    owner_path, _, attr = qualname.rpartition(".")
    owner = sys.modules[f"hdcrypt.{module}"]
    if owner_path:
        owner = getattr(owner, owner_path)
    return owner.__dict__[attr]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    units = {name: unit for name, (_, unit) in spans.Tracer().metrics().items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# --- each check rejects a corrupted output ---------------------------------------


def test_text_thresholds_reject_bad_values():
    assert checks.text_accuracy(1.0) is None
    assert checks.text_accuracy(0.99) is not None
    assert checks.distinct_fraction(1.0) is None
    assert checks.distinct_fraction(0.9) is not None
    bits = np.zeros((100, 500), dtype=np.uint8)
    bits[:, :250] = 1
    assert checks.ones_fraction(bits) is None
    bits[:, 250:260] = 1
    assert checks.ones_fraction(bits) is not None


def test_noisy_read_check_accepts_reads_and_rejects_an_unclamped_model():
    xbar = crossbar.Crossbar.new_random(workloads._row_config(11))
    cfg = xbar.config
    v = textcrypto.SecretKeyTable.new_random(cfg.rows, 12).vectors[7]
    n = 2000
    free = xbar.stuck_mask == crossbar.STUCK_FREE
    reads = encoder.crossbar_pre_threshold_batch(xbar, np.tile(v, (n, 1)),
                                                 np.random.default_rng(13))
    args = (v, xbar.g_target, free, cfg.noise_std, cfg.g_off, cfg.g_on)
    assert checks.noisy_read_mean(reads, *args) is None
    noise = np.random.default_rng(14).standard_normal((n, cfg.rows, cfg.cols))
    unclamped = xbar.g_target + noise * cfg.noise_std * free
    wrong = (v @ unclamped) - v.sum() * cfg.g_mid
    assert checks.noisy_read_mean(wrong, *args) is not None


def test_hlct_checks_reject_corrupted_ciphertext(tmp_path):
    run = tiny_run("text-crypt", tmp_path)
    assert run.failures == []
    path = {name: str(tmp_path / name) for name in
            ("model.json", "plain.txt", "msg.hlct", "roundtrip.txt")}
    with open(path["plain.txt"], encoding="ascii") as fh:
        plaintext = fh.read()
    with open(path["msg.hlct"], "rb") as fh:
        data = fh.read()
    dim = workloads.TEXT_ROW["cols"]
    block = (dim + 7) // 8

    # invert every bit of one block: the round trip no longer holds
    corrupted = bytearray(data)
    for k in range(20, 20 + block):
        corrupted[k] ^= 0xFF
    corrupted[20 + block - 1] &= (1 << (dim % 8)) - 1  # keep padding bits zero
    with open(path["msg.hlct"], "wb") as fh:
        fh.write(corrupted)
    code, _ = workloads._cli(["decrypt", "--model", path["model.json"],
                              "--in", path["msg.hlct"], "--out", path["roundtrip.txt"]])
    assert code == 0
    with open(path["roundtrip.txt"], encoding="ascii") as fh:
        decrypted = fh.read()
    assert checks.misdecrypted(plaintext, decrypted) >= 1
    with open(path["model.json"], encoding="utf-8") as fh:
        model_doc = json.load(fh)
    # the program still decodes what the corrupted file holds ...
    assert checks.argmax_decryption(bytes(corrupted), model_doc, decrypted) is None
    # ... and a character that is not the model's argmax is caught
    other = chr(32 + (ord(decrypted[5]) - 32 + 1) % 94)
    altered = decrypted[:5] + other + decrypted[6:]
    assert checks.argmax_decryption(bytes(corrupted), model_doc, altered) is not None
    assert checks.argmax_decryption(bytes(corrupted), model_doc, decrypted[:-1]) is not None
    assert checks.round_trip_accuracy(plaintext, plaintext) is None
    assert checks.round_trip_accuracy(plaintext, plaintext[: len(plaintext) // 2]) is not None

    assert checks.hlct_size(data, len(plaintext), dim) is None
    assert checks.hlct_size(data[:-1], len(plaintext), dim) is not None
    bits = textcrypto.CipherText.from_bytes(data).bit_matrix()
    assert checks.hlct_bits(data, bits) is None
    flipped = bits.copy()
    flipped[0, 3] ^= 1
    assert checks.hlct_bits(data, flipped) is not None
    assert checks.fresh_ciphertext(data, data) is not None


def test_rmse_check_rejects_a_mean_image_decoder():
    rng = np.random.default_rng(3)
    train_images = rng.random((40, 8, 8))
    test_images = rng.random((10, 8, 8))
    baseline = checks.mean_image_rmse(train_images, test_images)
    mean_decoder = decoder.LinearDecoder(np.zeros((64, 16)), train_images.mean(axis=0).ravel(),
                                         decoder.HEAD_REGRESSION)
    pred = mean_decoder.forward_batch(rng.random((10, 16)))
    rmse = float(np.sqrt(np.mean((pred - test_images.reshape(10, 64)) ** 2)))
    assert checks.beats_mean_image("mean", rmse, baseline) is not None
    assert checks.beats_mean_image("better", 0.9 * baseline, baseline) is None


def test_decorrelation_check_rejects_structured_planes():
    rng = np.random.default_rng(4)
    smooth = np.cumsum(np.cumsum(rng.random((40, 40)), axis=0), axis=1)
    noise = rng.integers(0, 2, size=(80, 80))
    assert checks.decorrelated(noise, smooth) is None
    assert checks.decorrelated(smooth, smooth) is not None
    assert checks.decorrelated(noise, noise) is not None


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "text-train",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
