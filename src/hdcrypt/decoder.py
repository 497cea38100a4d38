"""Single-layer neural decoder trained by mini-batch SGD.

Two heads share the same affine map z = W x + b:

* "softmax"    - class probabilities softmax(z), trained with mean
                 negative log likelihood (character decryption),
* "regression" - raw z, trained with root mean square error
                 (image reconstruction).

Gradients are hand-written and verified against central finite
differences (see grad_check). Training stops when the validation loss
fails to improve by min_delta for `patience` consecutive epochs and the
weights of the best-validation epoch are returned.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import jsondoc
from .errors import ConfigError, DataFormatError, DimensionError, TrainingDivergedError
from .hypervector import BinaryHypervector
from .rng import spawn_rng

__all__ = [
    "HEAD_SOFTMAX",
    "HEAD_REGRESSION",
    "LinearDecoder",
    "TrainConfig",
    "TrainReport",
    "loss_rmse",
    "loss_nll",
    "train",
    "grad_check",
    "save_model",
    "load_model",
]

HEAD_SOFTMAX = "softmax"
HEAD_REGRESSION = "regression"

PROB_FLOOR = 1e-12
_EVAL_CHUNK = 8192


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _affine_chunks(weights, bias, X):
    """(row slice, X[rows] @ W.T + b) over X in chunks of _EVAL_CHUNK rows,
    so features stored as bits are widened to float64 a chunk at a time."""
    for start in range(0, X.shape[0], _EVAL_CHUNK):
        rows = slice(start, min(X.shape[0], start + _EVAL_CHUNK))
        yield rows, X[rows].astype(np.float64) @ weights.T + bias


def loss_rmse(pred, target):
    """sqrt(mean((pred - target)^2)); zero iff pred equals target."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def loss_nll(probs, label):
    """-ln(probs[label]), with probabilities floored at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    label = int(label)
    if not 0 <= label < probs.shape[-1]:
        raise DimensionError(f"label {label} out of range for {probs.shape[-1]} classes")
    return float(-np.log(max(probs[label], PROB_FLOOR)))


class LinearDecoder:
    """Affine map plus head; immutable, safe to share once trained."""

    __slots__ = ("weights", "bias", "head")

    def __init__(self, weights, bias, head):
        if head not in (HEAD_SOFTMAX, HEAD_REGRESSION):
            raise ConfigError("head", f"unknown head {head!r}")
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        bias = np.ascontiguousarray(bias, dtype=np.float64)
        if weights.ndim != 2:
            raise DimensionError("weights must be 2-D (out_dim x in_dim)")
        if bias.shape != (weights.shape[0],):
            raise DimensionError(f"bias shape {bias.shape}, expected ({weights.shape[0]},)")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ValueError("weights and bias must be finite")
        weights.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "head", head)

    def __setattr__(self, name, value):
        raise AttributeError("LinearDecoder is immutable")

    @classmethod
    def new_random(cls, in_dim, out_dim, head, seed):
        """Uniform init in [-1/sqrt(in_dim), 1/sqrt(in_dim)], zero bias."""
        rng = spawn_rng(seed, "decoder-init")
        bound = 1.0 / np.sqrt(in_dim)
        w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        return cls(w, np.zeros(out_dim), head)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def _as_features(self, x):
        if isinstance(x, BinaryHypervector):
            x = x.to_bits()
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.in_dim,):
            raise DimensionError(f"input shape {x.shape}, expected ({self.in_dim},)")
        return x

    def forward(self, x):
        """Regression: W x + b. Softmax head: class probabilities."""
        return self.forward_batch(self._as_features(x)[None])[0]

    def forward_batch(self, xs):
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.in_dim:
            raise DimensionError(f"input shape {xs.shape}, expected (n, {self.in_dim})")
        out = np.empty((xs.shape[0], self.out_dim))
        for rows, z in _affine_chunks(self.weights, self.bias, xs):
            out[rows] = _softmax(z) if self.head == HEAD_SOFTMAX else z
        return out

    def predict_classes(self, xs):
        """Argmax class per row; ties break toward the lowest index."""
        if self.head != HEAD_SOFTMAX:
            raise ConfigError("head", "predict_classes needs the softmax head")
        xs = np.asarray(xs)
        preds = np.empty(xs.shape[0], dtype=np.int64)
        for rows, z in _affine_chunks(self.weights, self.bias, xs):
            preds[rows] = np.argmax(z, axis=1)
        return preds


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    max_epochs: int = 200
    patience: int = 5
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate", "must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs", "must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience", "must be >= 1")
        if self.min_delta < 0:
            raise ConfigError("min_delta", "must be >= 0")


@dataclass
class TrainReport:
    epochs_run: int = 0
    train_loss_history: list = field(default_factory=list)
    val_loss_history: list = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = -1


def _batch_loss_grads(weights, bias, X, Y, head):
    """Loss and gradients of the head's training objective on one batch.

    Softmax head: mean negative log likelihood. Regression head: mean
    squared error, the smooth surrogate whose minimizers are exactly
    those of the reported RMSE cost; descending the square root itself
    would rescale steps by 1/(2*rmse) and oscillate near the optimum.
    """
    Z = X @ weights.T + bias
    if head == HEAD_SOFTMAX:
        P = _softmax(Z)
        n = X.shape[0]
        picked = np.maximum(P[np.arange(n), Y], PROB_FLOOR)
        loss = float(-np.log(picked).mean())
        dZ = P
        dZ[np.arange(n), Y] -= 1.0
        dZ /= n
    else:
        R = Z - Y
        loss = float(np.mean(R * R))
        dZ = R * (2.0 / R.size)
    return loss, dZ.T @ X, dZ.sum(axis=0)


def _full_loss(weights, bias, X, Y, head):
    """Mean NLL (softmax) or RMSE (regression) over a whole set, chunked."""
    total, count = 0.0, 0
    for rows, Z in _affine_chunks(weights, bias, X):
        if head == HEAD_SOFTMAX:
            P = _softmax(Z)
            picked = np.maximum(P[np.arange(len(Z)), Y[rows]], PROB_FLOOR)
            total += float(-np.log(picked).sum())
            count += len(Z)
        else:
            R = Z - Y[rows]
            total += float(np.sum(R * R))
            count += R.size
    return total / count if head == HEAD_SOFTMAX else float(np.sqrt(total / count))


def _check_set(name, data, in_dim, head):
    X, Y = data
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError(f"{name} features must be a nonempty (n, d) array")
    if X.shape[1] != in_dim:
        raise DimensionError(f"{name} feature dim {X.shape[1]}, model expects {in_dim}")
    if head == HEAD_SOFTMAX:
        Y = np.asarray(Y, dtype=np.int64)
        if Y.shape != (X.shape[0],):
            raise DimensionError(f"{name} labels must be one class index per row")
    else:
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise DimensionError(f"{name} targets must be one vector per row")
    return X, Y


def train(model, train_set, val_set, cfg):
    """Mini-batch SGD with per-epoch shuffling and patience early stopping.

    Returns (best_model, TrainReport). The returned weights come from the
    epoch with the lowest validation loss seen. Raises
    TrainingDivergedError when a non-finite loss appears.
    """
    X, Y = _check_set("train", train_set, model.in_dim, model.head)
    Xv, Yv = _check_set("val", val_set, model.in_dim, model.head)
    if model.head == HEAD_REGRESSION and Y.shape[1] != model.out_dim:
        raise DimensionError(f"target dim {Y.shape[1]}, model emits {model.out_dim}")

    weights = model.weights.copy()
    bias = model.bias.copy()
    rng = spawn_rng(cfg.seed, "epoch-shuffle")
    n = X.shape[0]
    # Small sets are cheaper to convert to float64 once than per batch.
    dense = X.astype(np.float64) if X.size <= 40_000_000 else None

    report = TrainReport()
    best_val = np.inf
    best_weights, best_bias = weights.copy(), bias.copy()
    reference_val = np.inf
    epochs_since_improve = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = dense[idx] if dense is not None else X[idx].astype(np.float64)
            loss, gw, gb = _batch_loss_grads(weights, bias, xb, Y[idx], model.head)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            weights -= cfg.learning_rate * gw
            bias -= cfg.learning_rate * gb
            # histories report the cost metric: NLL, or RMSE for regression
            if model.head == HEAD_REGRESSION:
                loss = np.sqrt(loss)
            loss_sum += loss * len(idx)
        val_loss = _full_loss(weights, bias, Xv, Yv, model.head)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(epoch, "non-finite validation loss")

        report.train_loss_history.append(loss_sum / n)
        report.val_loss_history.append(val_loss)
        report.epochs_run = epoch + 1
        if val_loss < best_val:
            best_val = val_loss
            best_weights, best_bias = weights.copy(), bias.copy()
            report.best_epoch = epoch
        if val_loss < reference_val - cfg.min_delta:
            reference_val = val_loss
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
            if epochs_since_improve >= cfg.patience:
                report.stopped_early = True
                break

    return LinearDecoder(best_weights, best_bias, model.head), report


def _one_example(model, example):
    """(x, label) or (x, target) as a one-row training batch (X, Y)."""
    x, target = example
    X = model._as_features(x)[None, :]
    if model.head == HEAD_SOFTMAX:
        return X, np.asarray([int(target)], dtype=np.int64)
    return X, np.asarray(target, dtype=np.float64)[None, :]


def grad_check(model, example, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `example` is (x, label) for the softmax head or (x, target) for
    regression; the loss checked is the head's training objective.
    Intended for small models only (cost grows with parameter count).
    """
    if h <= 0:
        raise ConfigError("h", "step must be > 0")
    X, Y = _one_example(model, example)
    _, gw, gb = _batch_loss_grads(model.weights, model.bias, X, Y, model.head)
    analytic = np.concatenate([gw.ravel(), gb.ravel()])

    def loss_at(flat):
        w = flat[: model.weights.size].reshape(model.weights.shape)
        b = flat[model.weights.size:]
        loss, _, _ = _batch_loss_grads(w, b, X, Y, model.head)
        return loss

    theta = np.concatenate([model.weights.ravel(), model.bias.ravel()])
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        up = loss_at(bumped)
        bumped[i] = theta[i] - h
        down = loss_at(bumped)
        numeric[i] = (up - down) / (2 * h)

    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def analytic_gradient_norm(model, example):
    """L2 norm of the analytic gradient at one example (test hook)."""
    X, Y = _one_example(model, example)
    _, gw, gb = _batch_loss_grads(model.weights, model.bias, X, Y, model.head)
    return float(np.sqrt(np.sum(gw * gw) + np.sum(gb * gb)))


# --- model files ----------------------------------------------------------


def save_model(path, model, epsilon=None, train_config=None, seed=None):
    """Versioned JSON with everything needed to decrypt: head, dims,
    weights, bias, the encoder threshold, a config echo and the seed."""
    jsondoc.save(path, jsondoc.envelope("linear-decoder", {
        "head": model.head,
        "in_dim": model.in_dim,
        "out_dim": model.out_dim,
        "weights": model.weights.ravel().tolist(),
        "bias": model.bias.tolist(),
        "epsilon": None if epsilon is None else float(epsilon),
        "train_config": None if train_config is None else asdict(train_config),
        "seed": None if seed is None else int(seed),
    }))


def load_model(path):
    """Returns (LinearDecoder, metadata dict with epsilon/train_config/seed)."""
    doc = jsondoc.check(jsondoc.load(path), "linear-decoder",
                        ("head", "in_dim", "out_dim", "weights", "bias"))
    w = np.asarray(doc["weights"], dtype=np.float64)
    expected = doc["out_dim"] * doc["in_dim"]
    if w.size != expected:
        raise DataFormatError(f"weights have {w.size} entries, expected {expected}")
    model = LinearDecoder(w.reshape(doc["out_dim"], doc["in_dim"]),
                          np.asarray(doc["bias"], dtype=np.float64), doc["head"])
    meta = {"epsilon": doc.get("epsilon"), "train_config": doc.get("train_config"),
            "seed": doc.get("seed")}
    return model, meta
