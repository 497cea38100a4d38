import csv
import io
import json

import numpy as np
import pytest

from hdcrypt import decoder, experiments
from hdcrypt.cli import main
from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.datasets import synthetic_digits
from hdcrypt.decoder import fit_naive_bayes, load_model
from hdcrypt.encoder import crossbar_pre_threshold_batch
from hdcrypt.errors import ConfigError, DataFormatError, DimensionError
from hdcrypt.experiments import (IMAGE_PIPELINES, TABLE1_ROWS, ExperimentReport,
                                 ExperimentSpec, ReportRow, calibrate_text_epsilon, grid_cells,
                                 make_text_datasets, run_grid, run_image_cell,
                                 run_table1, run_text_cell, train_text_system)
from hdcrypt.rng import derive_seed, spawn_rng
from hdcrypt.textcrypto import NUM_CLASSES, SecretKeyTable


def small_spec(**overrides):
    base = dict(key_dim=5, multipliers=(8, 16), sigmas=(0.1,),
                train_size=1500, val_size=400, test_size=800, master_seed=7)
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
    # reference: one read (a batch of one) per key vector per pass, in order
    rng = spawn_rng(33, "calibrate")
    reads = [crossbar_pre_threshold_batch(xbar, v[None], rng)
             for _ in range(4) for v in keys.vectors]
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


def test_spec_json_rejects_unknown_fields(saved_document):
    path, doc = saved_document(small_spec().save)
    doc["mystery"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        ExperimentSpec.load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["r_lrs", "r_hrs", "p_stuck_on", "p_stuck_off",
                                   "multipliers", "sigmas"])
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
                      val_size=200, test_size=400)
    serial = run_grid(spec, jobs=1).csv_text(include_wall_time=False)
    pooled = run_grid(spec, jobs=2).csv_text(include_wall_time=False)
    assert serial == pooled


class RecordingPool:
    """Stands in for ProcessPoolExecutor: notes max_workers, maps serially."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cells, jobs, pool_size", [
    (9, 64, 9), (9, 2, 2), (9, 1, None), (1, 8, None), (0, 8, None),
])
def test_worker_pool_is_capped_at_the_cell_count(monkeypatch, cells, jobs, pool_size):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(experiments, "run_text_cell", lambda cell: ReportRow(
        task="text", cell=cell, multiplier=1, sigma=0.0, p_on=0.0, p_off=0.0,
        rows=1, cols=1))
    labels = [f"c{i}" for i in reversed(range(cells))]
    rows = experiments._run_cells(labels, jobs)
    assert [r.cell for r in rows] == sorted(labels)
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected(monkeypatch, jobs):
    monkeypatch.setattr(experiments, "run_text_cell", lambda cell: pytest.fail("ran a cell"))
    with pytest.raises(ConfigError) as excinfo:
        run_grid(small_spec(), jobs=jobs)
    assert excinfo.value.field == "jobs"


def test_failed_cell_isolates_siblings():
    good = dict(rows=5, cols=96, r_lrs=1e3, r_hrs=1e4, sigma=0.0,
                p_on=0.0, p_off=0.0, reference_accuracy=1.0)
    bad = dict(good, r_hrs=1.0)   # violates r_lrs < r_hrs
    report = run_table1(sizes=(1500, 300, 500), master_seed=3, rows=(good, bad))
    by_status = {row.status: row for row in report.rows}
    assert set(by_status) == {"ok", "failed"}
    assert "r_lrs" in by_status["failed"].reason
    assert by_status["ok"].test_accuracy >= 0.9


def test_table1_row_of_zero_rows_fails_alone():
    good = dict(rows=5, cols=60, r_lrs=1e3, r_hrs=1e4, sigma=0.0,
                p_on=0.0, p_off=0.0, reference_accuracy=1.0)
    report = run_table1(sizes=(300, 50, 100), master_seed=3,
                        rows=(dict(TABLE1_ROWS[0], rows=0), good))
    by_status = {row.status: row for row in report.rows}
    assert set(by_status) == {"ok", "failed"}
    failed = by_status["failed"]
    assert "rows" in failed.reason and (failed.rows, failed.cols) == (0, 250)
    assert failed.multiplier == 0.0     # cols / rows has no value
    assert by_status["ok"].test_accuracy >= 0.9


def test_report_csv_accuracy_formatting():
    row = ReportRow(task="text", cell="c", multiplier=4, sigma=0.1, p_on=0.0,
                    p_off=0.0, rows=5, cols=20, test_accuracy=0.9955)
    report = ExperimentReport(rows=[row])
    line = report.csv_text().splitlines()[1]
    assert ",0.9955," in line


def test_report_csv_quotes_what_csv_reader_reads_back():
    reasons = ["ValueError: a, b", 'say "no"', "two\nlines", "carriage\rreturn", ""]
    rows = [ReportRow(task="text", cell=f"c{i}", multiplier=4, sigma=0.1, p_on=0.0,
                      p_off=0.0, rows=5, cols=20, status="failed", reason=reason)
            for i, reason in enumerate(reasons)]
    text = ExperimentReport(rows=rows).csv_text()
    back = list(csv.reader(io.StringIO(text, newline="")))
    assert back[0] == list(experiments._CSV_COLUMNS)
    assert [r[-1] for r in back[1:]] == reasons
    # quoted only where needed, as the CSV files of earlier versions were
    assert ',failed,"ValueError: a, b"\n' in text and ',failed,"say ""no"""\n' in text
    assert text.endswith(",failed,\n")


def test_report_json_roundtrip(tmp_path):
    spec = small_spec(multipliers=(8,), sigmas=(0.1,))
    report = run_grid(spec)
    json_path = tmp_path / "report.json"
    report.save(json_path=json_path)
    loaded = ExperimentReport.load(json_path)
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
        run_image_cell(images, images[:5], 1.0, None, 0, pipeline="bvh")
    assert excinfo.value.field == "pipeline"


def _no_encoder(*args, **kwargs):
    raise AssertionError("an encoder was built")


@pytest.mark.parametrize("train_shape, test_shape, message", [
    ((1, 4, 4), (5, 4, 4), "1 training and 5 test images"),
    ((20, 4, 4), (0, 4, 4), "20 training and 0 test images"),
    ((20, 4, 4), (5, 4, 5), "of one \\(h, w\\)"),
    ((20, 16), (5, 16), "of one \\(h, w\\)"),
], ids=["one-train-image", "no-test-images", "other-test-shape", "flat-images"])
def test_image_cell_rejects_unusable_image_sets_before_encoding(
        monkeypatch, train_shape, test_shape, message):
    monkeypatch.setattr(experiments.IdealEncoder, "new_random", _no_encoder)
    monkeypatch.setattr(experiments.BenchmarkEncoder, "new_random", _no_encoder)
    for pipeline in IMAGE_PIPELINES:
        with pytest.raises(DimensionError, match=message):
            run_image_cell(np.zeros(train_shape), np.zeros(test_shape), 1.0, None, 0,
                           pipeline=pipeline)


def test_image_cell_returns_clipped_reconstructions_and_builds_no_decoder(monkeypatch):
    def no_decoder(self, *args, **kwargs):
        raise AssertionError("a LinearDecoder was built")

    monkeypatch.setattr(decoder.LinearDecoder, "__init__", no_decoder)
    images, _ = synthetic_digits(120, seed=5)
    train_imgs, test_imgs = images[:100], images[100:]
    for pipeline in IMAGE_PIPELINES:
        result, recon, _ = run_image_cell(train_imgs, test_imgs, 1.0, None, 3,
                                          pipeline=pipeline)
        assert recon.shape == test_imgs.shape
        assert recon.min() >= 0.0 and recon.max() <= 1.0
        assert result.rmse == pytest.approx(np.sqrt(np.mean((recon - test_imgs) ** 2)),
                                            rel=1e-12)
        assert result.rmse < 0.2


def test_image_cell_with_two_training_images_reconstructs_the_trained_one():
    # one image is held out, so the ridge fit sees four encodings of the
    # other: a dual fit of order 4 whose centered targets are all zero, and
    # which predicts that image for every test image at any penalty
    images, _ = synthetic_digits(5, seed=7)
    for pipeline in IMAGE_PIPELINES:
        result, recon, _ = run_image_cell(images[:2], images[2:], 1.0, None, 8,
                                          pipeline=pipeline)
        np.testing.assert_allclose(recon, np.broadcast_to(images[0], recon.shape),
                                   rtol=0, atol=1e-12)
        assert np.isfinite(result.rmse)


def test_image_cell_multiplier_monotonic_reconstruction():
    # trend oracle: same seeds, reconstruction improves with expansion;
    # pooled to 14x14 so training data covers the largest model
    images, _ = synthetic_digits(900, seed=23)
    pooled = images.reshape(900, 14, 2, 14, 2).mean(axis=(2, 4))
    train_imgs, test_imgs = pooled[:700], pooled[700:]
    rmses = []
    for m in (1, 2, 4, 8):
        result, _, _ = run_image_cell(train_imgs, test_imgs, sigma=1.0,
                                      train_cfg=None, master_seed=9,
                                      multiplier=m)
        rmses.append(result.rmse)
    assert all(b < a + 0.005 for a, b in zip(rmses, rmses[1:]))
    assert rmses[-1] < rmses[0]


def _no_sgd(*args, **kwargs):
    raise AssertionError("a program path trained by SGD")


def test_nothing_trains_by_sgd(monkeypatch, tmp_path):
    # the fitted weights are bitwise fit_naive_bayes's on the cell's own
    # training set, regenerated from its seeds
    monkeypatch.setattr(decoder, "train", _no_sgd)
    monkeypatch.setattr(experiments, "train", _no_sgd)
    cfg = CrossbarConfig(rows=5, cols=60, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.1,
                         p_stuck_on=0.02, p_stuck_off=0.02, seed=31)
    xbar = Crossbar.new_random(cfg)
    keys = SecretKeyTable.new_random(5, 32)
    sizes = (600, 100, 200)
    model, epsilon, _ = train_text_system(xbar, keys, sizes, master_seed=33)
    train_set, _ = make_text_datasets(xbar, keys, epsilon, sizes, 33)
    expected = fit_naive_bayes(*train_set, NUM_CLASSES)
    assert model.weights.tobytes() == expected.weights.tobytes()
    assert model.bias.tobytes() == expected.bias.tobytes()

    row = dict(rows=5, cols=60, r_lrs=1e3, r_hrs=1e4, sigma=0.1, p_on=0.02, p_off=0.02,
               reference_accuracy=1.0)
    report = run_table1(sizes=sizes, master_seed=3, rows=(row,))
    assert [(r.status, r.epochs) for r in report.rows] == [("ok", 0)]
    assert "train" not in report.spec_echo

    paths = {name: tmp_path / f"{name}.json" for name in ("xbar", "keys", "model")}
    xbar.save(paths["xbar"])
    keys.save(paths["keys"])
    assert main(["train-text", "--crossbar", str(paths["xbar"]), "--keys", str(paths["keys"]),
                 "--train-size", "600", "--val-size", "100", "--test-size", "200",
                 "--seed", "33", "--out", str(paths["model"])]) == 0
    assert load_model(paths["model"])[0].weights.tobytes() == expected.weights.tobytes()
