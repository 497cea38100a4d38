"""End-to-end acceptance suite.

Each test prints one line, `[criterion N] PASS|FAIL - detail`, before
asserting, so a full run gives a per-criterion scoreboard:

    pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.datasets import synthetic_digits, synthetic_natural_image
from hdcrypt.decoder import (HEAD_REGRESSION, HEAD_SOFTMAX, LinearDecoder,
                             grad_check)
from hdcrypt.encoder import project_streamed, threshold_binarize
from hdcrypt.experiments import (DESK_SIZES, ExperimentSpec, run_grid,
                                 run_image_cell, train_text_system)
from hdcrypt.imagecrypto import adjacency_stats, bits_to_plane
from hdcrypt.rng import derive_seed, spawn_rng
from hdcrypt.textcrypto import (SecretKeyTable, build_dataset,
                                evaluate_accuracy, uniqueness_stats)

pytestmark = pytest.mark.slow

MASTER = 20_260_809


def _report(criterion, passed, detail):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _crossbar_config(rows, cols, sigma, p, seed, r_hrs=1e4):
    return CrossbarConfig(rows=rows, cols=cols, r_lrs=1e3, r_hrs=r_hrs,
                          sigma_frac=sigma, p_stuck_on=p, p_stuck_off=p,
                          seed=seed)


def _text_run(rows, cols, sigma, p, master_seed, sizes=DESK_SIZES, r_hrs=1e4):
    cfg = _crossbar_config(rows, cols, sigma, p, derive_seed(master_seed, "xbar"),
                           r_hrs=r_hrs)
    xbar = Crossbar.new_random(cfg)
    keys = SecretKeyTable.new_random(rows, derive_seed(master_seed, "keys"))
    model, epsilon, accuracy = train_text_system(xbar, keys, sizes, master_seed)
    return dict(xbar=xbar, keys=keys, model=model, epsilon=epsilon, accuracy=accuracy)


@pytest.fixture(scope="module")
def table1_runs():
    """Criterion 1 artifacts, reused by criterion 10."""
    import time
    runs = {}
    for rows, cols, sigma, p, r_hrs in ((10, 500, 0.1, 0.02, 1e4),
                                        (15, 300, 0.2, 0.02, 1e4),
                                        (5, 250, 0.1, 0.01, 1e5)):
        started = time.perf_counter()
        run = _text_run(rows, cols, sigma, p, derive_seed(MASTER, f"c1:{rows}x{cols}"),
                        r_hrs=r_hrs)
        run["wall"] = time.perf_counter() - started
        runs[(rows, cols)] = run
    return runs


def test_criterion_1_table_reproduction(table1_runs):
    bounds = {(10, 500): 0.995, (15, 300): 0.995, (5, 250): 0.985}
    details = []
    ok = True
    for key, bound in bounds.items():
        run = table1_runs[key]
        details.append(f"{key[0]}x{key[1]}: acc={run['accuracy']:.4f} "
                       f"(need >= {bound}) in {run['wall']:.0f}s")
        ok &= run["accuracy"] >= bound and run["wall"] <= 300
    _report(1, ok, "; ".join(details))


def test_criterion_2_noise_ordering():
    noisy, clean = [], []
    for s in range(5):
        seed_hi = derive_seed(MASTER, "c2-high", s)
        seed_lo = derive_seed(MASTER, "c2-low", s)
        noisy.append(_text_run(15, 600, 0.7, 0.02, seed_hi,
                               sizes=(10_000, 2_000, 5_000))["accuracy"])
        clean.append(_text_run(15, 300, 0.2, 0.02, seed_lo,
                               sizes=(10_000, 2_000, 5_000))["accuracy"])
    mean_hi, mean_lo = float(np.mean(noisy)), float(np.mean(clean))
    _report(2, mean_hi < mean_lo,
            f"sigma=0.7 mean acc {mean_hi:.4f} < sigma=0.2 mean acc {mean_lo:.4f} "
            f"(5 seeds; per-seed {['%.4f' % a for a in noisy]} vs "
            f"{['%.4f' % a for a in clean]})")


def test_criterion_3_noiseless_exactness():
    run = _text_run(10, 500, 0.0, 0.0, derive_seed(MASTER, "c3"),
                    sizes=(6_000, 1_500, 3_000))
    _report(3, run["accuracy"] == 1.0,
            f"sigma=0, no stuck cells: test accuracy = {run['accuracy']}")


def test_criterion_4_ciphertext_freshness():
    cfg = _crossbar_config(10, 500, 0.1, 0.02, derive_seed(MASTER, "c4-xbar"))
    xbar = Crossbar.new_random(cfg)
    keys = SecretKeyTable.new_random(10, derive_seed(MASTER, "c4-keys"))
    rng = spawn_rng(MASTER, "c4-passes")
    ok = True
    details = []
    for ch in "ABCDE":
        stats = uniqueness_stats(ch, 200, keys, xbar, 0.0, rng)
        ok &= stats.distinct_fraction >= 0.95 and stats.mean_pairwise_hamming > 0
        details.append(f"{ch}: distinct={stats.distinct_fraction:.3f} "
                       f"hamming={stats.mean_pairwise_hamming:.4f}")
    still = Crossbar.new_random(_crossbar_config(10, 500, 0.0, 0.02,
                                                 derive_seed(MASTER, "c4-xbar0")))
    frozen = uniqueness_stats("A", 200, keys, still, 0.0,
                              spawn_rng(MASTER, "c4-frozen"))
    distinct_count = round(frozen.distinct_fraction * 200)
    ok &= distinct_count == 1
    details.append(f"sigma=0 distinct count={distinct_count}")
    _report(4, ok, "; ".join(details))


def test_criterion_5_multiplier_monotonicity():
    means = {}
    for m in (25, 50, 100):
        accs = [
            _text_run(10, 10 * m, 0.4, 0.05, derive_seed(MASTER, "c5", m, s),
                      sizes=(8_000, 2_000, 4_000))["accuracy"]
            for s in range(5)
        ]
        means[m] = float(np.mean(accs))
    ok = means[50] >= means[25] - 0.005 and means[100] >= means[50] - 0.005
    _report(5, ok, f"mean acc at sigma=0.4: m=25 {means[25]:.4f}, "
                   f"m=50 {means[50]:.4f}, m=100 {means[100]:.4f} "
                   f"(tolerance 0.5pp)")


@pytest.fixture(scope="module")
def digit_corpus():
    images, _ = synthetic_digits(2_300, seed=derive_seed(MASTER, "digits"))
    return images[:2_000], images[2_000:]


def test_criterion_6_bhv_beats_benchmark_under_noise(digit_corpus):
    train_imgs, test_imgs = digit_corpus
    seed = derive_seed(MASTER, "c6")
    bench0, _, _ = run_image_cell(train_imgs, test_imgs, 0.0, None,
                                  derive_seed(seed, "bench", 0), pipeline="benchmark")
    pairs = {}
    for sigma in (0.5, 1.0, 2.0):
        bhv, _, _ = run_image_cell(train_imgs, test_imgs, sigma, None,
                                   derive_seed(seed, "bhv"), multiplier=4)
        bench, _, _ = run_image_cell(train_imgs, test_imgs, sigma, None,
                                     derive_seed(seed, "bench"), pipeline="benchmark")
        pairs[sigma] = (bhv.rmse, bench.rmse)
    crossover = any(b < k for b, k in pairs.values())
    ok = crossover and bench0.rmse < 0.02
    detail = (f"benchmark sigma=0 rmse={bench0.rmse:.4f} (need < 0.02); " +
              "; ".join(f"sigma={s}: bhv={b:.4f} vs bench={k:.4f}"
                        for s, (b, k) in pairs.items()))
    _report(6, ok, detail)


def test_criterion_7_ciphertext_decorrelation():
    img = synthetic_natural_image(150, seed=derive_seed(MASTER, "c7-img"))
    multiplier = 4
    pre = project_streamed(img.flatten(), 150 * 150 * multiplier, 1.0,
                           derive_seed(MASTER, "c7-enc"),
                           spawn_rng(MASTER, "c7-pass"))
    bits = threshold_binarize(pre, float(np.median(pre)))
    plane = bits_to_plane(bits, 150, 150, multiplier)
    details = []
    ok = True
    for direction in ("horizontal", "vertical", "diagonal"):
        r = adjacency_stats(plane, direction).correlation
        original = adjacency_stats(img.pixels, direction).correlation
        ok &= abs(r) < 0.05
        details.append(f"{direction}: |r|={abs(r):.4f} (original {original:.3f})")
    _report(7, ok, "; ".join(details))


def test_criterion_8_gradient_correctness():
    rng = spawn_rng(MASTER, "c8")
    softmax_model = LinearDecoder(rng.normal(scale=0.5, size=(3, 4)),
                                  rng.normal(scale=0.5, size=3), HEAD_SOFTMAX)
    err_cls = grad_check(softmax_model, (rng.uniform(-1, 1, 4), 1), h=1e-5)
    regression_model = LinearDecoder(rng.normal(scale=0.5, size=(2, 4)),
                                     rng.normal(scale=0.5, size=2), HEAD_REGRESSION)
    err_reg = grad_check(regression_model,
                         (rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 2)), h=1e-5)
    ok = err_cls < 1e-5 and err_reg < 1e-5
    _report(8, ok, f"max relative error: softmax {err_cls:.2e}, "
                   f"regression {err_reg:.2e} (need < 1e-5)")


def test_criterion_9_grid_determinism():
    spec = ExperimentSpec(key_dim=5, multipliers=(10, 20), sigmas=(0.1, 0.4),
                          train_size=2_000, val_size=500, test_size=1_000,
                          master_seed=derive_seed(MASTER, "c9"))
    first = run_grid(spec).csv_text(include_wall_time=False)
    second = run_grid(spec).csv_text(include_wall_time=False)
    _report(9, first.encode() == second.encode(),
            f"two grid runs, {len(first.splitlines()) - 1} cells: byte-identical="
            f"{first.encode() == second.encode()}")


def test_criterion_10_key_binding(table1_runs):
    run = table1_runs[(10, 500)]
    fresh_keys = SecretKeyTable.new_random(10, derive_seed(MASTER, "c10-new-keys"))
    test_set = build_dataset(5_000, fresh_keys, run["xbar"], run["epsilon"],
                             spawn_rng(MASTER, "c10-data"))
    accuracy = evaluate_accuracy(run["model"], test_set)
    _report(10, accuracy <= 0.05,
            f"old decoder on fresh keys: accuracy={accuracy:.4f} "
            f"(need <= 0.05, chance is {1 / 94:.4f})")
