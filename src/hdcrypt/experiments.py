"""Declarative experiment harness: hyperparameter-table reproduction,
(multiplier x noise) grid sweeps, the image robustness sweep, and
CSV/JSON reporting.

Every cell derives all of its randomness from (master_seed, cell label),
so sweeps are reproducible cell by cell regardless of worker scheduling,
and two runs of the same spec produce byte-identical reports (wall time
aside, which the comparison mode excludes).
"""

import csv
import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import jsondoc
from .crossbar import Crossbar, CrossbarConfig
# nothing here calls `train`; bench/tests reads `experiments.train` (ROADMAP item 3)
from .decoder import TrainConfig, fit_naive_bayes, ridge_predict, train
from .encoder import IdealEncoder, calibrate_epsilon, crossbar_pre_threshold_batch
from .errors import ConfigError, DataFormatError, DimensionError, require_finite, require_int
from .imagecrypto import BenchmarkEncoder
from .rng import derive_seed, spawn_rng
from .textcrypto import (NUM_CLASSES, SecretKeyTable, build_dataset,
                         evaluate_accuracy, uniqueness_stats)

__all__ = [
    "DESK_SIZES",
    "DEFAULT_TEXT_TRAIN",
    "DEFAULT_IMAGE_TRAIN",
    "TABLE1_ROWS",
    "GOOD_ACCURACY",
    "TextCell",
    "ReportRow",
    "ExperimentReport",
    "ExperimentSpec",
    "run_text_cell",
    "run_table1",
    "run_grid",
    "calibrate_text_epsilon",
    "make_text_datasets",
    "train_text_system",
    "run_image_cell",
    "ImageCellResult",
]

# train / val / test character counts
DESK_SIZES = (20_000, 5_000, 10_000)

# no program path reads these; bench/workloads.py does (ROADMAP item 3)
DEFAULT_TEXT_TRAIN = TrainConfig(learning_rate=0.05, batch_size=64,
                                 max_epochs=120, patience=5, min_delta=1e-4)
DEFAULT_IMAGE_TRAIN = TrainConfig(learning_rate=5.0, batch_size=16,
                                  max_epochs=60, patience=8, min_delta=1e-5)

# decryption accuracy at or above which a configuration counts as good
GOOD_ACCURACY = 0.999

# sample crossbar hyperparameter rows: geometry, resistance states (ohms),
# noise fraction, stuck probabilities, and the reference accuracy each
# configuration is expected to approach at full scale
TABLE1_ROWS = (
    dict(rows=5, cols=250, r_lrs=1e3, r_hrs=1e5, sigma=0.1, p_on=0.01, p_off=0.01,
         reference_accuracy=0.9955),
    dict(rows=5, cols=500, r_lrs=1e3, r_hrs=1e5, sigma=0.1, p_on=0.01, p_off=0.01,
         reference_accuracy=0.9996),
    dict(rows=10, cols=500, r_lrs=1e3, r_hrs=1e4, sigma=0.1, p_on=0.02, p_off=0.02,
         reference_accuracy=1.0),
    dict(rows=10, cols=1000, r_lrs=1e3, r_hrs=1e4, sigma=0.4, p_on=0.05, p_off=0.05,
         reference_accuracy=0.9997),
    dict(rows=15, cols=300, r_lrs=1e3, r_hrs=1e4, sigma=0.2, p_on=0.02, p_off=0.02,
         reference_accuracy=1.0),
    dict(rows=15, cols=600, r_lrs=1e3, r_hrs=1e4, sigma=0.7, p_on=0.02, p_off=0.02,
         reference_accuracy=0.9817),
)

UNIQUENESS_CHARS = "ABCDE"
UNIQUENESS_PASSES = 200
CALIBRATION_PASSES = 4
# image cells hold out this fraction of the training images for validation,
# and encode each remaining one this many times with fresh noise
IMAGE_VAL_FRACTION = 0.1
IMAGE_ENCODE_REPEATS = 4
IMAGE_PIPELINES = ("bhv", "benchmark")


# --- text pipeline building blocks -----------------------------------------


def calibrate_text_epsilon(xbar, keys, master_seed):
    """Threshold = median pre-threshold output over every key vector,
    read CALIBRATION_PASSES times each with fresh noise."""
    xs = np.tile(keys.vectors_for(xbar), (CALIBRATION_PASSES, 1))
    reads = crossbar_pre_threshold_batch(xbar, xs, spawn_rng(master_seed, "calibrate"))
    return calibrate_epsilon(reads)


def make_text_datasets(xbar, keys, epsilon, sizes, master_seed):
    """(train, val, test) labeled sets with independent derived streams."""
    out = []
    for name, n in zip(("train", "val", "test"), sizes):
        rng = spawn_rng(master_seed, f"{name}-data")
        out.append(build_dataset(n, keys, xbar, epsilon, rng))
    return tuple(out)


def train_text_system(xbar, keys, sizes, master_seed):
    """Calibrate, generate data, fit the 94-class decoder in closed form
    (decoder.fit_naive_bayes), evaluate.

    The bits of one block are independent given the character, so the
    naive-Bayes fit is already the Bayes-optimal linear decoder. The
    validation set is still drawn, from its own stream, but nothing reads
    it. Returns (model, epsilon, accuracy).
    """
    epsilon = calibrate_text_epsilon(xbar, keys, master_seed)
    train_set, _, test_set = make_text_datasets(xbar, keys, epsilon, sizes, master_seed)
    model = fit_naive_bayes(*train_set, NUM_CLASSES)
    return model, epsilon, evaluate_accuracy(model, test_set)


# --- sweep cells ------------------------------------------------------------


@dataclass(frozen=True)
class TextCell:
    """One self-contained text experiment: everything a worker needs."""

    label: str
    crossbar: CrossbarConfig
    key_dim: int
    sizes: tuple
    master_seed: int
    multiplier: int | None = None
    uniqueness_passes: int = UNIQUENESS_PASSES
    # never read; bench/workloads.py still passes it (ROADMAP item 3)
    train_cfg: TrainConfig | None = None


@dataclass
class ReportRow:
    task: str
    cell: str
    multiplier: float
    sigma: float
    p_on: float
    p_off: float
    rows: int
    cols: int
    test_accuracy: float | None = None
    rmse: float | None = None
    distinct_fraction: float | None = None
    mean_hamming: float | None = None
    # always 0, as no cell trains by SGD; bench/workloads.py reads it (ROADMAP item 3)
    epochs: int = 0
    wall_time_s: float = 0.0
    good_flag: bool | None = None
    status: str = "ok"
    reason: str = ""


def run_text_cell(cell):
    """Build crossbar and keys, train, evaluate; never raises — failures
    come back as a failed row so sibling cells keep running."""
    started = time.perf_counter()
    cfg = cell.crossbar
    row = ReportRow(
        task="text", cell=cell.label,
        multiplier=cell.multiplier if cell.multiplier is not None
        else cfg.cols / cfg.rows,
        sigma=cfg.sigma_frac, p_on=cfg.p_stuck_on, p_off=cfg.p_stuck_off,
        rows=cfg.rows, cols=cfg.cols,
    )
    try:
        xbar = Crossbar.new_random(cfg)
        keys = SecretKeyTable.new_random(cell.key_dim, derive_seed(cell.master_seed, "keys"))
        model, epsilon, accuracy = train_text_system(xbar, keys, cell.sizes, cell.master_seed)
        u_rng = spawn_rng(cell.master_seed, "uniqueness")
        stats = [uniqueness_stats(ch, cell.uniqueness_passes, keys, xbar, epsilon, u_rng)
                 for ch in UNIQUENESS_CHARS]
        row.test_accuracy = round(accuracy, 4)
        row.distinct_fraction = float(np.mean([s.distinct_fraction for s in stats]))
        row.mean_hamming = float(np.mean([s.mean_pairwise_hamming for s in stats]))
        row.good_flag = row.test_accuracy >= GOOD_ACCURACY
    except Exception as exc:  # crash isolation: report, don't propagate
        row.status = "failed"
        row.reason = f"{type(exc).__name__}: {exc}"
    row.wall_time_s = round(time.perf_counter() - started, 3)
    return row


def _run_cells(cells, jobs):
    """Run the cells serially, or in a pool of at most one worker per
    cell: a fork-based pool starts all its workers at the first submit."""
    require_int("jobs", jobs, low=1)
    workers = min(jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_text_cell, cells))
    else:
        rows = [run_text_cell(c) for c in cells]
    return sorted(rows, key=lambda r: r.cell)


def _text_cell(label, master_seed, sizes, key_dim, cols, sigma, r_lrs, r_hrs, p_on, p_off,
               multiplier=None):
    """The sweep cell `label` on a key_dim x cols crossbar; the cell's seed
    derives from (master_seed, label) and its crossbar's from the cell's."""
    cell_seed = derive_seed(master_seed, label)
    cfg = CrossbarConfig(rows=key_dim, cols=cols, r_lrs=r_lrs, r_hrs=r_hrs, sigma_frac=sigma,
                         p_stuck_on=p_on, p_stuck_off=p_off,
                         seed=derive_seed(cell_seed, "crossbar"))
    return TextCell(label=label, crossbar=cfg, key_dim=key_dim, sizes=tuple(sizes),
                    master_seed=cell_seed, multiplier=multiplier)


def run_table1(sizes=DESK_SIZES, master_seed=0, rows=TABLE1_ROWS, jobs=1):
    """Fit and evaluate one decoder per sample-hyperparameter row.

    A row whose configuration is itself invalid becomes a failed report
    row; it never aborts its siblings.
    """
    cells = []
    failed = []
    for row in rows:
        label = f"table1:{row['rows']}x{row['cols']}:sigma={row['sigma']!r}"
        try:
            cells.append(_text_cell(label, master_seed, sizes, row["rows"], row["cols"],
                                    row["sigma"], row["r_lrs"], row["r_hrs"],
                                    row["p_on"], row["p_off"]))
        except ConfigError as exc:
            failed.append(ReportRow(
                task="text", cell=label,
                multiplier=row["cols"] / row["rows"] if row["rows"] else 0.0,
                sigma=row["sigma"], p_on=row["p_on"], p_off=row["p_off"],
                rows=row["rows"], cols=row["cols"], status="failed",
                reason=f"{type(exc).__name__}: {exc}"))
    result_rows = sorted(_run_cells(cells, jobs) + failed, key=lambda r: r.cell)
    return ExperimentReport(rows=result_rows, spec_echo={
        "kind": "table1", "sizes": list(sizes), "master_seed": master_seed,
    })


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid sweep over (dimension multiplier x noise level)."""

    task: str = "text"
    key_dim: int = 10
    r_lrs: float = 1e3
    r_hrs: float = 1e4
    p_stuck_on: float = 0.05
    p_stuck_off: float = 0.05
    multipliers: tuple = (25, 50, 100)
    sigmas: tuple = (0.1, 0.4, 0.7)
    train_size: int = DESK_SIZES[0]
    val_size: int = DESK_SIZES[1]
    test_size: int = DESK_SIZES[2]
    master_seed: int = 0

    def __post_init__(self):
        if self.task not in ("text",):
            raise ConfigError("task", f"unsupported task {self.task!r}")
        for name in ("multipliers", "sigmas"):
            if not getattr(self, name):
                raise ConfigError(name, "sweep list must be nonempty")
        for name in ("r_lrs", "r_hrs", "p_stuck_on", "p_stuck_off"):
            require_finite(name, getattr(self, name))
        require_int("multipliers", *self.multipliers, low=1)
        require_finite("multipliers", *self.multipliers)
        require_finite("sigmas", *self.sigmas, low=0)
        for name in ("key_dim", "train_size", "val_size", "test_size"):
            require_int(name, getattr(self, name), low=1)

    @property
    def sizes(self):
        return (self.train_size, self.val_size, self.test_size)

    def to_json_dict(self):
        doc = asdict(self)
        doc["multipliers"] = list(self.multipliers)
        doc["sigmas"] = list(self.sigmas)
        return jsondoc.envelope("experiment-spec", doc)

    @classmethod
    def from_json_dict(cls, doc):
        jsondoc.check(doc, "experiment-spec")
        fields = {k: v for k, v in doc.items() if k not in ("format", "version")}
        jsondoc.check_types(cls, fields, "experiment-spec document")
        jsondoc.check_entries(fields, "multipliers", int, "experiment-spec document")
        jsondoc.check_entries(fields, "sigmas", float, "experiment-spec document")
        fields.update((key, tuple(fields[key])) for key in ("multipliers", "sigmas")
                      if key in fields)
        return jsondoc.build(cls, fields, "experiment-spec document")

    def save(self, path):
        jsondoc.save(path, self.to_json_dict(), indent=2)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(jsondoc.load(path))


def grid_cells(spec):
    return [_text_cell(f"grid:m={m}:sigma={sigma!r}", spec.master_seed, spec.sizes,
                       spec.key_dim, spec.key_dim * m, sigma, spec.r_lrs, spec.r_hrs,
                       spec.p_stuck_on, spec.p_stuck_off, multiplier=m)
            for m in spec.multipliers for sigma in spec.sigmas]


def run_grid(spec, jobs=1):
    """Full cross-product sweep; good cells are those at or above the
    99.9% decryption-accuracy bar."""
    report = ExperimentReport(rows=_run_cells(grid_cells(spec), jobs),
                              spec_echo={"kind": "grid", **spec.to_json_dict()})
    return report


# --- report -----------------------------------------------------------------

_CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _fmt(value, column):
    if value is None:
        return ""
    if column == "test_accuracy":
        return f"{value:.4f}"
    if column == "good_flag":
        return str(bool(value)).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_line(fields):
    """`fields` as one CSV line ending in "\n". The csv module quotes a field
    holding a character of the line terminator, and Python 3.11's leaves a
    "\r" bare under "\n", so the line is written with "\r\n", then cut."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(fields)
    return out.getvalue()[:-2] + "\n"


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)
    spec_echo: dict = field(default_factory=dict)

    def csv_text(self, include_wall_time=True):
        columns = [c for c in _CSV_COLUMNS if include_wall_time or c != "wall_time_s"]
        records = [[_fmt(values[col], col) for col in columns]
                   for values in map(asdict, self.rows)]
        return "".join(map(_csv_line, [columns] + records))

    def to_json_dict(self):
        return jsondoc.envelope("experiment-report", {
            "spec": self.spec_echo,
            "rows": [asdict(r) for r in self.rows],
        })

    @classmethod
    def from_json_dict(cls, doc):
        jsondoc.check(doc, "experiment-report", ("spec", "rows"))
        if not isinstance(doc["rows"], list):
            raise DataFormatError("experiment-report field 'rows' must be a JSON list")
        rows = []
        for i, r in enumerate(doc["rows"]):
            where = f"experiment-report row {i}"
            rows.append(jsondoc.build(ReportRow, r, where))
            jsondoc.check_types(ReportRow, r, where)
        return cls(rows=rows, spec_echo=doc["spec"])

    def save(self, csv_path=None, json_path=None):
        if csv_path is not None:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(self.csv_text())
        if json_path is not None:
            jsondoc.save(json_path, self.to_json_dict(), indent=2)

    @classmethod
    def load_json(cls, path):
        return cls.from_json_dict(jsondoc.load(path))


# --- image robustness cells ---------------------------------------------------


@dataclass
class ImageCellResult:
    pipeline: str  # one of IMAGE_PIPELINES
    sigma: float
    multiplier: int
    rmse: float
    wall_time_s: float


def run_image_cell(train_images, test_images, sigma, train_cfg, master_seed,
                   multiplier=4, pipeline="bhv"):
    """Reconstruct held-out images from their encodings and report the RMSE.

    pipeline "bhv": expanding encoder + threshold; "benchmark": square
    projection, no threshold, reported at multiplier 1. Images are
    (n, h, w) arrays in [0, 1], train and test of one (h, w). The last
    IMAGE_VAL_FRACTION of the training images (at least one) are held out
    for validation, so at least two are needed, and at least one test
    image; other inputs raise DimensionError before anything is encoded.
    Returns (ImageCellResult, reconstructions, encoder), where
    reconstructions are the (n_test, h, w) test images decoded and
    clipped to [0, 1].

    Because every encoding pass draws fresh noise, each training image is
    encoded IMAGE_ENCODE_REPEATS times; the decoder then sees the noise
    distribution rather than one sample of it, which matters when the
    expanded dimension exceeds the image count. Validation and test
    images are encoded once, matching how a receiver decodes.

    The decoder is ridge regression on the raw encoder outputs, its
    penalty chosen on the validation images; decoder.ridge_predict
    returns its test predictions without forming its weights. `train_cfg`
    is never read, and callers may pass None; bench/workloads.py still
    passes one positionally (ROADMAP item 3).
    """
    if pipeline not in IMAGE_PIPELINES:
        raise ConfigError("pipeline", f"must be one of {IMAGE_PIPELINES}, got {pipeline!r}")
    started = time.perf_counter()
    train_images = np.asarray(train_images, dtype=np.float64)
    test_images = np.asarray(test_images, dtype=np.float64)
    if train_images.ndim != 3 or train_images.shape[1:] != test_images.shape[1:]:
        raise DimensionError(f"train and test images must be (n, h, w) arrays of one (h, w), "
                             f"got shapes {train_images.shape} and {test_images.shape}")
    if len(train_images) < 2 or len(test_images) == 0:
        raise DimensionError(f"{len(train_images)} training and {len(test_images)} test images: "
                             "at least 2 (one is held out for validation) and 1 are needed")
    k = train_images.shape[1] * train_images.shape[2]
    flats = train_images.reshape(len(train_images), k)
    test_flats = test_images.reshape(len(test_images), k)

    n_val = max(1, int(len(flats) * IMAGE_VAL_FRACTION))
    train_flats, val_flats = flats[:-n_val], flats[-n_val:]
    repeated = np.tile(train_flats, (IMAGE_ENCODE_REPEATS, 1))

    binary = pipeline == "bhv"
    calib_rng = spawn_rng(master_seed, "calibrate")
    if binary:
        enc = IdealEncoder.new_random(k, multiplier, sigma, derive_seed(master_seed, "encoder"))
        epsilon = calibrate_epsilon(enc.project_batch(flats[:64], calib_rng))
        encode = partial(enc.encode_batch, epsilon=epsilon)
    else:
        enc = BenchmarkEncoder.new_random(k, sigma, derive_seed(master_seed, "encoder"))
        encode = enc.project_batch
    X, X_val, X_test = (encode(x, rng=spawn_rng(master_seed, f"{name}-data")) for name, x in
                        (("train", repeated), ("val", val_flats), ("test", test_flats)))
    pred = ridge_predict(X, repeated, (X_val, val_flats), X_test)
    np.clip(pred, 0.0, 1.0, out=pred)
    rmse = float(np.sqrt(np.mean((pred - test_flats) ** 2)))
    result = ImageCellResult(pipeline=pipeline, sigma=sigma,
                             multiplier=multiplier if binary else 1, rmse=rmse,
                             wall_time_s=round(time.perf_counter() - started, 3))
    return result, pred.reshape(test_images.shape), enc
