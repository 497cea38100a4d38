"""Declarative experiment harness: hyperparameter-table reproduction,
(multiplier x noise) grid sweeps, the image robustness sweep, and
CSV/JSON reporting.

Every cell derives all of its randomness from (master_seed, cell label),
so sweeps are reproducible cell by cell regardless of worker scheduling,
and two runs of the same spec produce byte-identical reports (wall time
aside, which the comparison mode excludes).
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import jsondoc
from .crossbar import _BLOCK_BYTES, Crossbar, CrossbarConfig
from .decoder import (HEAD_REGRESSION, LinearDecoder, TrainConfig, fit_naive_bayes,
                      train)
from .encoder import IdealEncoder, calibrate_epsilon, crossbar_pre_threshold_batch
from .errors import ConfigError, DataFormatError, require_finite
from .imagecrypto import BenchmarkEncoder
from .rng import derive_seed, spawn_rng
from .textcrypto import (NUM_CLASSES, SecretKeyTable, build_dataset,
                         evaluate_accuracy, uniqueness_stats)

__all__ = [
    "DESK_SIZES",
    "PAPER_SIZES",
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
PAPER_SIZES = (100_000, 100_000, 10_000)

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
    reads = crossbar_pre_threshold_batch(xbar, np.tile(keys.vectors, (CALIBRATION_PASSES, 1)),
                                         spawn_rng(master_seed, "calibrate"))
    return calibrate_epsilon(reads)


def make_text_datasets(xbar, keys, epsilon, sizes, master_seed):
    """(train, val, test) labeled sets with independent derived streams."""
    out = []
    for name, n in zip(("train", "val", "test"), sizes):
        rng = spawn_rng(master_seed, f"{name}-data")
        out.append(build_dataset(n, keys, xbar, epsilon, rng))
    return tuple(out)


def train_text_system(xbar, keys, sizes, train_cfg, master_seed):
    """Calibrate, generate data, train the 94-class decoder from its
    closed-form fit (decoder.fit_naive_bayes), evaluate.

    Returns (model, epsilon, accuracy, report).
    """
    epsilon = calibrate_text_epsilon(xbar, keys, master_seed)
    train_set, val_set, test_set = make_text_datasets(xbar, keys, epsilon, sizes, master_seed)
    init = fit_naive_bayes(*train_set, NUM_CLASSES)
    cfg = replace(train_cfg, seed=derive_seed(master_seed, "shuffle"))
    model, report = train(init, train_set, val_set, cfg)
    accuracy = evaluate_accuracy(model, test_set)
    return model, epsilon, accuracy, report


# --- sweep cells ------------------------------------------------------------


@dataclass(frozen=True)
class TextCell:
    """One self-contained text experiment: everything a worker needs."""

    label: str
    crossbar: CrossbarConfig
    key_dim: int
    sizes: tuple
    train_cfg: TrainConfig
    master_seed: int
    multiplier: int | None = None
    uniqueness_passes: int = UNIQUENESS_PASSES


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
        model, epsilon, accuracy, t_report = train_text_system(
            xbar, keys, cell.sizes, cell.train_cfg, cell.master_seed)
        u_rng = spawn_rng(cell.master_seed, "uniqueness")
        stats = [uniqueness_stats(ch, cell.uniqueness_passes, keys, xbar, epsilon, u_rng)
                 for ch in UNIQUENESS_CHARS]
        row.test_accuracy = round(accuracy, 4)
        row.distinct_fraction = float(np.mean([s.distinct_fraction for s in stats]))
        row.mean_hamming = float(np.mean([s.mean_pairwise_hamming for s in stats]))
        row.epochs = t_report.epochs_run
        row.good_flag = row.test_accuracy >= GOOD_ACCURACY
    except Exception as exc:  # crash isolation: report, don't propagate
        row.status = "failed"
        row.reason = f"{type(exc).__name__}: {exc}"
    row.wall_time_s = round(time.perf_counter() - started, 3)
    return row


def _run_cells(cells, jobs):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_text_cell, cells))
    else:
        rows = [run_text_cell(c) for c in cells]
    return sorted(rows, key=lambda r: r.cell)


def run_table1(sizes=DESK_SIZES, train_cfg=DEFAULT_TEXT_TRAIN, master_seed=0,
               rows=TABLE1_ROWS, jobs=1):
    """Train and evaluate one decoder per sample-hyperparameter row.

    A row whose configuration is itself invalid becomes a failed report
    row; it never aborts its siblings.
    """
    cells = []
    failed = []
    for spec_row in rows:
        label = (f"table1:{spec_row['rows']}x{spec_row['cols']}"
                 f":sigma={spec_row['sigma']!r}")
        cell_seed = derive_seed(master_seed, label)
        try:
            cfg = CrossbarConfig(
                rows=spec_row["rows"], cols=spec_row["cols"],
                r_lrs=spec_row["r_lrs"], r_hrs=spec_row["r_hrs"],
                sigma_frac=spec_row["sigma"],
                p_stuck_on=spec_row["p_on"], p_stuck_off=spec_row["p_off"],
                seed=derive_seed(cell_seed, "crossbar"),
            )
        except Exception as exc:
            failed.append(ReportRow(
                task="text", cell=label,
                multiplier=spec_row["cols"] / spec_row["rows"],
                sigma=spec_row["sigma"], p_on=spec_row["p_on"],
                p_off=spec_row["p_off"], rows=spec_row["rows"],
                cols=spec_row["cols"], status="failed",
                reason=f"{type(exc).__name__}: {exc}"))
            continue
        cells.append(TextCell(label=label, crossbar=cfg, key_dim=spec_row["rows"],
                              sizes=tuple(sizes), train_cfg=train_cfg,
                              master_seed=cell_seed))
    result_rows = sorted(_run_cells(cells, jobs) + failed, key=lambda r: r.cell)
    return ExperimentReport(rows=result_rows, spec_echo={
        "kind": "table1", "sizes": list(sizes), "train": asdict(train_cfg),
        "master_seed": master_seed,
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
    learning_rate: float = DEFAULT_TEXT_TRAIN.learning_rate
    batch_size: int = DEFAULT_TEXT_TRAIN.batch_size
    max_epochs: int = DEFAULT_TEXT_TRAIN.max_epochs
    patience: int = DEFAULT_TEXT_TRAIN.patience
    min_delta: float = DEFAULT_TEXT_TRAIN.min_delta
    master_seed: int = 0

    def __post_init__(self):
        if self.task not in ("text",):
            raise ConfigError("task", f"unsupported task {self.task!r}")
        if not self.multipliers:
            raise ConfigError("multipliers", "sweep list must be nonempty")
        if not self.sigmas:
            raise ConfigError("sigmas", "sweep list must be nonempty")
        for name in ("r_lrs", "r_hrs", "p_stuck_on", "p_stuck_off", "learning_rate",
                     "min_delta"):
            require_finite(name, getattr(self, name))
        require_finite("multipliers", *self.multipliers)
        require_finite("sigmas", *self.sigmas)
        if any(m < 1 for m in self.multipliers):
            raise ConfigError("multipliers", "must be >= 1")
        if any(s < 0 for s in self.sigmas):
            raise ConfigError("sigmas", "must be >= 0")
        for name in ("key_dim", "train_size", "val_size", "test_size"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")

    @property
    def sizes(self):
        return (self.train_size, self.val_size, self.test_size)

    def train_config(self):
        return TrainConfig(learning_rate=self.learning_rate, batch_size=self.batch_size,
                           max_epochs=self.max_epochs, patience=self.patience,
                           min_delta=self.min_delta)

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
        fields.update((key, tuple(fields[key])) for key in ("multipliers", "sigmas")
                      if key in fields)
        return jsondoc.build(cls, fields, "experiment-spec document")

    def save(self, path):
        jsondoc.save(path, self.to_json_dict(), indent=2)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(jsondoc.load(path))


def grid_cells(spec):
    cells = []
    for m in spec.multipliers:
        for sigma in spec.sigmas:
            label = f"grid:m={m}:sigma={sigma!r}"
            cell_seed = derive_seed(spec.master_seed, label)
            cfg = CrossbarConfig(
                rows=spec.key_dim, cols=spec.key_dim * m,
                r_lrs=spec.r_lrs, r_hrs=spec.r_hrs, sigma_frac=sigma,
                p_stuck_on=spec.p_stuck_on, p_stuck_off=spec.p_stuck_off,
                seed=derive_seed(cell_seed, "crossbar"),
            )
            cells.append(TextCell(label=label, crossbar=cfg, key_dim=spec.key_dim,
                                  sizes=spec.sizes, train_cfg=spec.train_config(),
                                  master_seed=cell_seed, multiplier=m))
    return cells


def run_grid(spec, jobs=1):
    """Full cross-product sweep; good cells are those at or above the
    99.9% decryption-accuracy bar."""
    report = ExperimentReport(rows=_run_cells(grid_cells(spec), jobs),
                              spec_echo={"kind": "grid", **spec.to_json_dict()})
    return report


# --- report -----------------------------------------------------------------

_CSV_COLUMNS = (
    "task", "cell", "multiplier", "sigma", "p_on", "p_off", "rows", "cols",
    "test_accuracy", "rmse", "distinct_fraction", "mean_hamming", "epochs",
    "wall_time_s", "good_flag", "status", "reason",
)


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


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)
    spec_echo: dict = field(default_factory=dict)

    def csv_text(self, include_wall_time=True):
        columns = [c for c in _CSV_COLUMNS if include_wall_time or c != "wall_time_s"]
        lines = [",".join(columns)]
        for row in self.rows:
            values = asdict(row)
            cells = []
            for col in columns:
                text = _fmt(values[col], col)
                if any(ch in text for ch in ',"\n'):
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

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
    epochs: int
    wall_time_s: float


def _standardized_float32(X, center, scale):
    """(X - center) / scale as float32 training features: each block of
    rows is widened, standardized in float64, then stored, so no float64
    copy of the whole matrix is made. `train` steps on float32 features
    as they are, and these are the values it would round them to."""
    out = np.empty(X.shape, dtype=np.float32)
    step = max(1, _BLOCK_BYTES // (8 * max(1, X.shape[1])))
    for start in range(0, len(X), step):
        block = X[start:start + step].astype(np.float64)
        block -= center
        block /= scale
        out[start:start + step] = block
    return out


def run_image_cell(train_images, test_images, sigma, train_cfg, master_seed,
                   multiplier=4, pipeline="bhv"):
    """Train one image-reconstruction decoder and report held-out RMSE.

    pipeline "bhv": expanding encoder + threshold; "benchmark": square
    projection, no threshold, reported at multiplier 1. Images are
    (n, h, w) arrays in [0, 1]. The last IMAGE_VAL_FRACTION of the
    training images (at least one) are held out for validation.
    Returns (ImageCellResult, trained decoder, encoder).

    Because every encoding pass draws fresh noise, each training image is
    encoded IMAGE_ENCODE_REPEATS times; the decoder then sees the noise
    distribution rather than one sample of it, which matters when the
    expanded dimension exceeds the image count. Validation and test
    images are encoded once, matching how a receiver decodes.

    Decoder features (bits or raw projections) are standardized for
    training with a per-feature center and a scalar scale taken from the
    first 64 training rows; the affine map is absorbed back into the
    returned model's weights and bias, so the delivered decoder consumes
    raw encoder outputs. Without this the benchmark's projections, whose
    scale is roughly the init range times sqrt(pixel count), would dwarf
    the fan-in weight init and stall SGD. The scale carries a
    sqrt(feature count / pixel count) factor so standardized rows have
    comparable total energy in every pipeline and one step size is
    stable for all cells.
    """
    if pipeline not in IMAGE_PIPELINES:
        raise ConfigError("pipeline", f"must be one of {IMAGE_PIPELINES}, got {pipeline!r}")
    started = time.perf_counter()
    train_images = np.asarray(train_images, dtype=np.float64)
    test_images = np.asarray(test_images, dtype=np.float64)
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
        enc = enc.with_epsilon(calibrate_epsilon(enc.project_batch(flats[:64], calib_rng)))
        encode = enc.encode_batch
    else:
        enc = BenchmarkEncoder.new_random(k, sigma, derive_seed(master_seed, "encoder"))
        encode = enc.project_batch
    feat_dim = enc.output_dim
    X, X_val, X_test = (encode(x, spawn_rng(master_seed, f"{name}-data")) for name, x in
                        (("train", repeated), ("val", val_flats), ("test", test_flats)))

    head = X[:64].astype(np.float64)
    center = head.mean(axis=0)
    scale = (float(head.std()) or 1.0) * np.sqrt(feat_dim / k)
    X = _standardized_float32(X, center, scale)
    X_val = (X_val - center) / scale

    train_set = (X, repeated)
    val_set = (X_val, val_flats)

    init = LinearDecoder.new_random(feat_dim, k, HEAD_REGRESSION,
                                    derive_seed(master_seed, "decoder"))
    cfg = replace(train_cfg, seed=derive_seed(master_seed, "shuffle"))
    model, report = train(init, train_set, val_set, cfg)
    w_raw = model.weights / scale
    model = LinearDecoder(w_raw, model.bias - w_raw @ center, HEAD_REGRESSION)

    pred = model.forward_batch(X_test)
    np.clip(pred, 0.0, 1.0, out=pred)
    rmse = float(np.sqrt(np.mean((pred - test_flats) ** 2)))
    return ImageCellResult(pipeline=pipeline, sigma=sigma,
                           multiplier=multiplier if binary else 1,
                           rmse=rmse, epochs=report.epochs_run,
                           wall_time_s=round(time.perf_counter() - started, 3)), model, enc
