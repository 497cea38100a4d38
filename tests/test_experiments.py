import numpy as np
import pytest

from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.decoder import TrainConfig, fit_naive_bayes
from hdcrypt.encoder import crossbar_pre_threshold
from hdcrypt.errors import ConfigError, DataFormatError
from hdcrypt.experiments import (DEFAULT_IMAGE_TRAIN, DEFAULT_TEXT_TRAIN,
                                 TABLE1_ROWS, ExperimentReport,
                                 ExperimentSpec, ReportRow, calibrate_text_epsilon,
                                 grid_cells, make_text_datasets, run_grid,
                                 run_image_cell, run_table1, run_text_cell,
                                 train_text_system)
from hdcrypt.rng import derive_seed, spawn_rng
from hdcrypt.textcrypto import NUM_CLASSES, SecretKeyTable


SMALL_TRAIN = TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=20,
                          patience=4, min_delta=1e-4)


def small_spec(**overrides):
    base = dict(key_dim=5, multipliers=(8, 16), sigmas=(0.1,),
                train_size=1500, val_size=400, test_size=800,
                learning_rate=0.05, batch_size=64, max_epochs=15,
                patience=4, min_delta=1e-4, master_seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a", 3) != derive_seed(1, "a", 4)
    with pytest.raises(TypeError):
        derive_seed(1, 2.5)


@pytest.mark.parametrize("row", TABLE1_ROWS, ids=lambda r: f"{r['rows']}x{r['cols']}")
def test_calibrated_threshold_equals_looped_median(row):
    cfg = CrossbarConfig(rows=row["rows"], cols=row["cols"], r_lrs=row["r_lrs"],
                         r_hrs=row["r_hrs"], sigma_frac=row["sigma"],
                         p_stuck_on=row["p_on"], p_stuck_off=row["p_off"], seed=31)
    xbar = Crossbar.new_random(cfg)
    keys = SecretKeyTable.new_random(row["rows"], 32)
    # reference: one single read per key vector per pass, in order
    rng = spawn_rng(33, "calibrate")
    reads = [crossbar_pre_threshold(xbar, v, rng) for _ in range(4) for v in keys.vectors]
    assert calibrate_text_epsilon(xbar, keys, 33) == float(np.median(reads))


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(multipliers=())
    with pytest.raises(ConfigError):
        small_spec(sigmas=())
    with pytest.raises(ConfigError):
        small_spec(train_size=0)
    with pytest.raises(ConfigError):
        small_spec(task="video")


def test_spec_json_roundtrip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    spec.save(path)
    assert ExperimentSpec.load(path) == spec


def test_spec_json_rejects_unknown_fields():
    doc = small_spec().to_json_dict()
    doc["mystery"] = 1
    with pytest.raises(DataFormatError):
        ExperimentSpec.from_json_dict(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["r_lrs", "r_hrs", "p_stuck_on", "p_stuck_off",
                                   "learning_rate", "min_delta", "multipliers", "sigmas"])
def test_spec_rejects_non_finite_values(field, value):
    if field in ("multipliers", "sigmas"):
        value = (1.0, value)
    with pytest.raises(ConfigError) as excinfo:
        small_spec(**{field: value})
    assert excinfo.value.field == field


def test_grid_cells_cover_cross_product():
    spec = small_spec(multipliers=(2, 4, 8), sigmas=(0.0, 0.5))
    cells = grid_cells(spec)
    assert len(cells) == 6
    combos = {(c.multiplier, c.crossbar.sigma_frac) for c in cells}
    assert combos == {(m, s) for m in (2, 4, 8) for s in (0.0, 0.5)}
    for cell in cells:
        assert cell.crossbar.cols == spec.key_dim * cell.multiplier


def test_single_cell_grid_equals_direct_run():
    spec = small_spec(multipliers=(8,), sigmas=(0.1,))
    report = run_grid(spec)
    assert len(report.rows) == 1
    direct = run_text_cell(grid_cells(spec)[0])
    row = report.rows[0]
    assert row.test_accuracy == direct.test_accuracy
    assert row.distinct_fraction == direct.distinct_fraction
    assert row.epochs == direct.epochs


def test_grid_runs_are_byte_identical_without_wall_time():
    spec = small_spec()
    a = run_grid(spec).csv_text(include_wall_time=False)
    b = run_grid(spec).csv_text(include_wall_time=False)
    assert a.encode() == b.encode()


def test_worker_pool_matches_serial_run():
    spec = small_spec(multipliers=(8, 16), sigmas=(0.1,), train_size=800,
                      val_size=200, test_size=400, max_epochs=10)
    serial = run_grid(spec, jobs=1).csv_text(include_wall_time=False)
    pooled = run_grid(spec, jobs=2).csv_text(include_wall_time=False)
    assert serial == pooled


def test_failed_cell_isolates_siblings():
    good = dict(rows=5, cols=96, r_lrs=1e3, r_hrs=1e4, sigma=0.0,
                p_on=0.0, p_off=0.0, reference_accuracy=1.0)
    bad = dict(good, r_hrs=1.0)   # violates r_lrs < r_hrs
    report = run_table1(sizes=(1500, 300, 500),
                        train_cfg=TrainConfig(learning_rate=0.05, batch_size=64,
                                              max_epochs=60, patience=6,
                                              min_delta=1e-4),
                        master_seed=3, rows=(good, bad))
    by_status = {row.status: row for row in report.rows}
    assert set(by_status) == {"ok", "failed"}
    assert "r_lrs" in by_status["failed"].reason
    assert by_status["ok"].test_accuracy >= 0.9


def test_report_csv_accuracy_formatting():
    row = ReportRow(task="text", cell="c", multiplier=4, sigma=0.1, p_on=0.0,
                    p_off=0.0, rows=5, cols=20, test_accuracy=0.9955)
    report = ExperimentReport(rows=[row])
    line = report.csv_text().splitlines()[1]
    assert ",0.9955," in line


def test_report_json_roundtrip(tmp_path):
    spec = small_spec(multipliers=(8,), sigmas=(0.1,))
    report = run_grid(spec)
    json_path = tmp_path / "report.json"
    report.save(json_path=json_path)
    loaded = ExperimentReport.load_json(json_path)
    assert loaded.rows == report.rows
    assert loaded.spec_echo == report.spec_echo


def test_report_empty_has_header_only():
    report = ExperimentReport(rows=[])
    text = report.csv_text()
    assert text.splitlines() == [text.splitlines()[0]]


def test_report_row_sorted_by_cell_key():
    spec = small_spec(multipliers=(16, 8), sigmas=(0.1,))
    report = run_grid(spec)
    labels = [row.cell for row in report.rows]
    assert labels == sorted(labels)


def test_text_cell_wall_time_excluded_column():
    spec = small_spec(multipliers=(8,), sigmas=(0.1,))
    report = run_grid(spec)
    with_wall = report.csv_text(include_wall_time=True)
    without = report.csv_text(include_wall_time=False)
    assert "wall_time_s" in with_wall.splitlines()[0]
    assert "wall_time_s" not in without.splitlines()[0]


def test_image_cell_rejects_unknown_pipeline():
    images = np.zeros((20, 4, 4))
    with pytest.raises(ConfigError) as excinfo:
        run_image_cell(images, images[:5], 1.0, DEFAULT_IMAGE_TRAIN, 0, pipeline="bvh")
    assert excinfo.value.field == "pipeline"


def test_image_cell_multiplier_monotonic_reconstruction():
    # trend oracle: same seeds, reconstruction improves with expansion;
    # pooled to 14x14 so training data covers the largest model
    from hdcrypt.datasets import synthetic_digits
    images, _ = synthetic_digits(900, seed=23)
    pooled = images.reshape(900, 14, 2, 14, 2).mean(axis=(2, 4))
    train_imgs, test_imgs = pooled[:700], pooled[700:]
    cfg = TrainConfig(learning_rate=5.0, batch_size=16, max_epochs=30,
                      patience=6, min_delta=1e-5)
    rmses = []
    for m in (1, 2, 4, 8):
        result, _, _ = run_image_cell(train_imgs, test_imgs, sigma=1.0,
                                      train_cfg=cfg, master_seed=9,
                                      multiplier=m)
        rmses.append(result.rmse)
    assert all(b < a + 0.005 for a, b in zip(rmses, rmses[1:]))
    assert rmses[-1] < rmses[0]


def test_warm_started_text_training_stops_after_patience():
    # the 10x500, sigma 0.1 Table-1 row: SGD started from the closed-form
    # fit has nothing left to gain. An exact fit (validation NLL 0.0) runs
    # no epoch and is returned as it is; any other stops after `patience`.
    cfg = CrossbarConfig(rows=10, cols=500, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.1,
                         p_stuck_on=0.02, p_stuck_off=0.02, seed=31)
    xbar = Crossbar.new_random(cfg)
    keys = SecretKeyTable.new_random(10, 32)
    sizes = (3000, 750, 1500)
    model, epsilon, accuracy, report = train_text_system(xbar, keys, sizes,
                                                         DEFAULT_TEXT_TRAIN, master_seed=33)
    if report.init_val_loss == 0.0:
        assert report.epochs_run == 0
        train_set, _, _ = make_text_datasets(xbar, keys, epsilon, sizes, 33)
        init = fit_naive_bayes(*train_set, NUM_CLASSES)
        assert model.weights.tobytes() == init.weights.tobytes()
        assert model.bias.tobytes() == init.bias.tobytes()
    else:
        assert report.epochs_run <= DEFAULT_TEXT_TRAIN.patience + 1
    assert accuracy >= 0.995
