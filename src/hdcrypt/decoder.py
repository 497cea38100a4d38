"""Single-layer neural decoder trained by mini-batch SGD.

Two heads share the same affine map z = W x + b:

* "softmax"    - class probabilities softmax(z), trained with mean
                 negative log likelihood (character decryption),
* "regression" - raw z, trained with root mean square error
                 (image reconstruction).

Gradients are hand-written and verified against central finite
differences (see grad_check). Training scores the initial weights on the
validation set as epoch -1, stops when the validation loss fails to
improve by min_delta for `patience` consecutive epochs, and returns the
weights of the best-validation epoch, the initial ones included.

The softmax head has a closed-form start, fit_naive_bayes: the bits of
one ciphertext block are independent given the class, since every cell
draws its own read noise, so the Bayes-optimal decoder is linear and its
weights follow from per-class bit counts.

Every SGD step of `train` runs in float32: the forward GEMM, the softmax
or residual, and the weight and bias updates. The features are binary
hypervector bits, which float32 holds exactly, and halving the width
halves the memory each step streams. All else is float64: the validation
loss and best-epoch choice (on the float64 widening of the float32
weights), the returned LinearDecoder, inference, grad_check and the
model files.
"""

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from . import jsondoc
from .errors import (ConfigError, DataFormatError, DimensionError, TrainingDivergedError,
                     require_finite)
from .hypervector import BinaryHypervector
from .rng import spawn_rng

__all__ = [
    "HEAD_SOFTMAX",
    "HEAD_REGRESSION",
    "LinearDecoder",
    "TrainConfig",
    "TrainReport",
    "fit_naive_bayes",
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
    """Row softmax into a new array of z's dtype.

    Logits more than half the dtype's exponent range below their row's
    maximum are raised to that floor: about -354 in float64 and -44 in
    float32. exp of a logit under about -708 (float64) or -87 (float32)
    is subnormal or zero and takes a path up to a hundred times slower,
    and subnormal gradient entries slow the GEMMs that read them; a
    confident model puts many logits there. At the floor a probability
    is at least sqrt(tiny) / classes, so it, and the gradient divided by
    any practical batch size, stays normal. The raise changes a row's
    probability sum by less than the dtype's rounding.
    """
    z = z - z.max(axis=-1, keepdims=True)
    np.maximum(z, 0.5 * np.log(np.finfo(z.dtype).tiny), out=z)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _gemm(weights):
    """scipy's GEMM for the weights' dtype: sgemm in training steps,
    dgemm everywhere else."""
    return get_blas_funcs("gemm", dtype=weights.dtype)


def _affine(weights, bias, X):
    """X @ W.T + b for rows X of the weights' dtype, C-contiguous.

    Every GEMM of training and inference goes through scipy's BLAS, which
    the in-place SGD update (_sgd_step) needs. numpy may bundle a second
    BLAS with its own thread pool: with two BLAS threads on a 2-core host,
    alternating calls between the two pools made a softmax SGD step 26
    times slower.
    """
    Z = _gemm(weights)(1.0, weights.T, X.T, trans_a=True).T
    Z += bias
    return Z


def _affine_chunks(weights, bias, X):
    """(row slice, X[rows] @ W.T + b) over X in chunks of _EVAL_CHUNK rows,
    so features stored as bits are widened to float64 a chunk at a time."""
    for start in range(0, X.shape[0], _EVAL_CHUNK):
        rows = slice(start, min(X.shape[0], start + _EVAL_CHUNK))
        yield rows, _affine(weights, bias, X[rows].astype(np.float64))


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


def fit_naive_bayes(features, labels, num_classes):
    """Closed-form softmax decoder from binary features and class labels.

    With p_cj = (count_cj + 1) / (n_c + 2), the Laplace-smoothed frequency
    of bit j in class c, the weights are w_cj = log p_cj - log(1 - p_cj)
    and the bias b_c = sum_j log(1 - p_cj): naive Bayes under equal class
    priors. A class without examples gets zero weights and the bias of
    p = 1/2 on every bit. Features must be 0/1 and labels in
    [0, num_classes); anything else raises DimensionError.
    """
    X = np.asarray(features)
    Y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError("features must be a nonempty (n, d) array")
    if Y.shape != (X.shape[0],) or not np.issubdtype(Y.dtype, np.integer):
        raise DimensionError("labels must be one integer class index per row")
    if Y.min() < 0 or Y.max() >= num_classes:
        raise DimensionError(f"labels must lie in [0, {num_classes})")
    if not np.all((X == 0) | (X == 1)):
        raise DimensionError("features must be 0/1 bits")
    counts = np.zeros((num_classes, X.shape[1]))
    for c in range(num_classes):
        counts[c] = X[Y == c].sum(axis=0)
    totals = np.bincount(Y, minlength=num_classes)[:, None] + 2.0
    log_on = np.log((counts + 1.0) / totals)
    log_off = np.log((totals - 1.0 - counts) / totals)
    return LinearDecoder(log_on - log_off, log_off.sum(axis=1), HEAD_SOFTMAX)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    max_epochs: int = 200
    patience: int = 5
    min_delta: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        require_finite("learning_rate", self.learning_rate)
        require_finite("min_delta", self.min_delta)
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
    best_epoch: int = -1        # -1: no epoch beat the initial weights
    init_val_loss: float | None = None


def _batch_loss_dz(weights, bias, X, Y, head):
    """Loss of the head's training objective on one batch, and its
    gradient dZ with respect to the batch's outputs Z = X W^T + b.

    Softmax head: mean negative log likelihood. Regression head: mean
    squared error, the smooth surrogate whose minimizers are exactly
    those of the reported RMSE cost; descending the square root itself
    would rescale steps by 1/(2*rmse) and oscillate near the optimum.
    dZ has the weights' dtype; the loss is a float64 mean.
    """
    Z = _affine(weights, bias, X)
    if head == HEAD_SOFTMAX:
        P = _softmax(Z)
        n = X.shape[0]
        picked = np.maximum(P[np.arange(n), Y], PROB_FLOOR)
        loss = float(-np.log(picked).mean(dtype=np.float64))
        dZ = P
        dZ[np.arange(n), Y] -= 1.0
        dZ /= n
    else:
        R = np.subtract(Z, Y, dtype=Z.dtype)
        loss = float(np.mean(R * R, dtype=np.float64))
        dZ = R * (2.0 / R.size)
    return loss, dZ


def _batch_loss_grads(weights, bias, X, Y, head):
    """Loss and the (weights, bias) gradients on one batch."""
    loss, dZ = _batch_loss_dz(weights, bias, X, Y, head)
    return loss, dZ.T @ X, dZ.sum(axis=0)


def _sgd_step(weights, bias, X, Y, head, lr):
    """One SGD step on a batch X of the weights' dtype, updating weights
    and bias in place; train runs it in float32.

    The weight update W -= lr * dZ^T X is one BLAS rank-k update into W's
    own memory: W^T of a C-contiguous W is Fortran-ordered, as GEMM
    wants, so no weight-sized temporary is made. Returns (loss, weights);
    use the returned array, which is a copy only if W was not C-contiguous.
    """
    loss, dZ = _batch_loss_dz(weights, bias, X, Y, head)
    weights = _gemm(weights)(-lr, X.T, dZ.T, beta=1.0, c=weights.T,
                             trans_b=True, overwrite_c=True).T
    bias -= lr * dZ.sum(axis=0)
    return loss, weights


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


def _check_set(name, data, model):
    X, Y = data
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError(f"{name} features must be a nonempty (n, d) array")
    if X.shape[1] != model.in_dim:
        raise DimensionError(f"{name} feature dim {X.shape[1]}, model expects {model.in_dim}")
    if model.head == HEAD_SOFTMAX:
        Y = np.asarray(Y, dtype=np.int64)
        if Y.shape != (X.shape[0],):
            raise DimensionError(f"{name} labels must be one class index per row")
    else:
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise DimensionError(f"{name} targets must be one vector per row")
        if Y.shape[1] != model.out_dim:
            raise DimensionError(f"{name} target dim {Y.shape[1]}, model emits {model.out_dim}")
    return X, Y


def train(model, train_set, val_set, cfg):
    """Mini-batch SGD with per-epoch shuffling and patience early stopping.

    The steps run on float32 working copies of the weights, bias and
    features; each epoch's validation loss is computed in float64 on the
    widened weights, which are what the returned model holds.

    The initial weights are scored first, as epoch -1, and set the loss
    the first epochs must improve on. Returns (best_model, TrainReport):
    the weights of the epoch with the lowest validation loss seen, or
    `model` itself, with best_epoch -1, when no epoch beat it. Raises
    TrainingDivergedError when a non-finite loss appears.
    """
    X, Y = _check_set("train", train_set, model)
    Xv, Yv = _check_set("val", val_set, model)

    weights = model.weights.astype(np.float32)
    bias = model.bias.astype(np.float32)
    rng = spawn_rng(cfg.seed, "epoch-shuffle")
    n = X.shape[0]
    # Small sets are cheaper to convert to float32 once than per batch;
    # float32 features are used as they are, never written to.
    dense = np.asarray(X, dtype=np.float32) if X.size <= 40_000_000 else None

    report = TrainReport()
    best_val = _full_loss(model.weights, model.bias, Xv, Yv, model.head)
    if not np.isfinite(best_val):
        raise TrainingDivergedError(-1, "non-finite validation loss")
    report.init_val_loss = reference_val = best_val
    # buffers for the best epoch's parameters, allocated once
    best_weights, best_bias = weights.copy(), bias.copy()
    epochs_since_improve = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb = dense[idx] if dense is not None else X[idx].astype(np.float32)
            loss, weights = _sgd_step(weights, bias, xb, Y[idx], model.head,
                                      cfg.learning_rate)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            # histories report the cost metric: NLL, or RMSE for regression
            if model.head == HEAD_REGRESSION:
                loss = np.sqrt(loss)
            loss_sum += loss * len(idx)
        val_loss = _full_loss(weights.astype(np.float64), bias.astype(np.float64),
                              Xv, Yv, model.head)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(epoch, "non-finite validation loss")

        report.train_loss_history.append(loss_sum / n)
        report.val_loss_history.append(val_loss)
        report.epochs_run = epoch + 1
        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best_weights, weights)
            np.copyto(best_bias, bias)
            report.best_epoch = epoch
        if val_loss < reference_val - cfg.min_delta:
            reference_val = val_loss
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
            if epochs_since_improve >= cfg.patience:
                report.stopped_early = True
                break

    if report.best_epoch == -1:
        return model, report
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
