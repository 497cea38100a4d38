"""Single-layer decoder z = W x + b with one of two heads:

* "softmax"    - class probabilities softmax(z) (character decryption),
                 fit in closed form by fit_naive_bayes,
* "regression" - raw z, which grad_check and model files cover.

Image reconstruction builds no decoder: ridge_predict returns a ridge
regression's predictions for the test rows from an eigendecomposition
of the Gram matrix, and never forms the weights.

The bits of one ciphertext block are independent given the class, since
every cell draws its own read noise, so the Bayes-optimal decoder is
linear and fit_naive_bayes finds it from per-class bit counts. Inference
takes batches only, so a single input is a batch of one row. Gradients
of both heads' objectives are hand-written and checked against central
differences (grad_check).

train, mini-batch softmax SGD in float32 with patience early stopping,
is called by no program path; it stays, with TrainConfig and
TrainReport, while the benchmark harness traces it (ROADMAP item 3).

No pass holds a float copy of a whole feature matrix, which may be
stored as uint8 bits: inference widens one `hdcrypt.blocks` block of
rows at a time, and ridge_predict forms the Gram matrices of bit
features exactly from float32 blocks.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import get_blas_funcs

from . import jsondoc
from .blocks import GEMM_ROWS, block_size, block_slices
from .errors import (ConfigError, DimensionError, TrainingDivergedError,
                     require_finite, require_int)
from .rng import spawn_rng

__all__ = [
    "HEAD_SOFTMAX",
    "HEAD_REGRESSION",
    "LinearDecoder",
    "TrainConfig",
    "TrainReport",
    "fit_naive_bayes",
    "ridge_predict",
    "train",
    "grad_check",
    "save_model",
    "load_model",
]

HEAD_SOFTMAX = "softmax"
HEAD_REGRESSION = "regression"

PROB_FLOOR = 1e-12
# ridge_predict's penalties, in units of trace(Gram) / d, the mean eigenvalue
# of the centered Gram matrix
_RIDGE_GRID = np.logspace(-4, 1, 11)
# float32 holds every integer below this exactly
_F32_EXACT = 1 << 24


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

    Every GEMM of SGD training and inference goes through scipy's BLAS,
    which the in-place SGD update (_sgd_step) needs. numpy may bundle a
    second BLAS with its own thread pool: with two BLAS threads on a 2-core
    host, alternating calls between the two pools made a softmax SGD step
    26 times slower. ridge_predict's few large products use numpy's: on one
    BLAS thread they time as scipy's do, and on two the switch around its
    eigh added 0.1-0.2 s to fits of 1,080 to 7,200 rows on that host. Its
    blocked products of bit features (_centered_bit_products) run in a
    loop, so they all use scipy's.
    """
    Z = _gemm(weights)(1.0, weights.T, X.T, trans_a=True).T
    Z += bias
    return Z


def _affine_chunks(weights, bias, X):
    """(row slice, X[rows] @ W.T + b) over X a GEMM-aligned block of rows
    at a time, so features stored as bits are widened to float64 a block
    at a time, and each row's outputs are those of the one product."""
    for rows in block_slices(X.shape[0], block_size(X.shape[1], GEMM_ROWS)):
        yield rows, _affine(weights, bias, X[rows].astype(np.float64))


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

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def _as_batch(self, xs):
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.in_dim:
            raise DimensionError(f"input shape {xs.shape}, expected (n, {self.in_dim})")
        return xs

    def forward_batch(self, xs):
        """Regression: W x + b per row x of `xs`. Softmax: class probabilities."""
        xs = self._as_batch(xs)
        out = np.empty((xs.shape[0], self.out_dim))
        for rows, z in _affine_chunks(self.weights, self.bias, xs):
            out[rows] = _softmax(z) if self.head == HEAD_SOFTMAX else z
        return out

    def predict_classes(self, xs):
        """Argmax class per row; ties break toward the lowest index."""
        if self.head != HEAD_SOFTMAX:
            raise ConfigError("head", "predict_classes needs the softmax head")
        xs = self._as_batch(xs)
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
    width = X.shape[1] if X.ndim == 2 else 0   # _check_set rejects other shapes first
    X, Y = _check_set("train", (X, labels), HEAD_SOFTMAX, width, num_classes)
    counts = np.zeros((num_classes, X.shape[1]))
    for c in range(num_classes):
        Xc = X[Y == c]
        # every row is in one class, so this checks each feature once,
        # with no temporary larger than one class's rows
        if np.count_nonzero(Xc) != np.count_nonzero(Xc == 1):
            raise DimensionError("features must be 0/1 bits")
        counts[c] = Xc.sum(axis=0)
    totals = np.bincount(Y, minlength=num_classes)[:, None] + 2.0
    log_on = np.log((counts + 1.0) / totals)
    log_off = np.log((totals - 1.0 - counts) / totals)
    return LinearDecoder(log_on - log_off, log_off.sum(axis=1), HEAD_SOFTMAX)


def _centered_bit_products(X, Y, Xs, x_mean, y_mean):
    """ridge_predict's (gram, rhs, side) for 0/1 uint8 features X and
    prediction rows Xs, from exact integer products and sums; rhs is None
    in the dual fit.

    A GEMM-aligned block of X (columns in the dual, rows in the primal)
    is widened to float32 at a time and added to the Gram matrix by a
    SYRK rank-k update, which writes one triangle at half a GEMM's cost;
    the other is copied in at the end. Every partial sum is a count below
    2**24, which float32 holds exactly, so the products do not depend on
    the blocks, their order or the BLAS. No n x d float array is made.
    With the column sums s = X^T 1:
    * primal: Xc^T Xc = X^T X - s s^T / n, where s is the diagonal of
      X^T X, and rhs = Xc^T Yc = X^T Yc, since Yc sums to zero, is summed
      over the row blocks; side = Xs - x_mean, as for float features;
    * dual: Xc Xc^T = X X^T - (t 1^T + 1 t^T) / n + s^T s / n^2, where
      t = X s are the row sums of X X^T and s^T s is their sum; side,
      Xsc Xc^T, is alike with ts = Xs s, the row sums of Xs X^T.
    The Gram matrix is centered in float64 and rounded to float32 a block
    of rows at a time, in place, so it stays float32 and exactly
    symmetric, as eigh needs; side and rhs are float64.
    """
    n, d = X.shape
    dual = n < d
    # BLAS updates these Fortran-ordered sums in place
    if dual:
        blocks = [np.s_[:, cols] for cols in block_slices(d, block_size(n, GEMM_ROWS))]
        G, Gs = np.zeros((n, n), np.float32, "F"), np.zeros((len(Xs), n), np.float32, "F")
    else:
        blocks = block_slices(n, block_size(d, GEMM_ROWS))
        G, rhs = np.zeros((d, d), np.float32, "F"), np.zeros((d, Y.shape[1]), order="F")
    syrk = get_blas_funcs("syrk", dtype=np.float32)
    for block in blocks:
        Bt = X[block].T.astype(np.float32)  # Fortran-ordered, as BLAS reads it
        # dual: G += Bt^T Bt = B B^T; primal: G += Bt Bt^T = B^T B
        G = syrk(1.0, Bt, beta=1.0, c=G, trans=int(dual), overwrite_c=True)
        if dual:    # Gs += Xs[block] Bt
            Gs = _gemm(Gs)(1.0, Xs[block].T.astype(np.float32), Bt, beta=1.0, c=Gs,
                           trans_a=True, overwrite_c=True)
        else:       # rhs += Bt (Y[block] - y_mean)
            rhs = _gemm(rhs)(1.0, Bt.astype(np.float64), (Y[block] - y_mean).T, beta=1.0,
                             c=rhs, trans_b=True, overwrite_c=True)
    G += np.triu(G, 1).T
    G = G.T     # C-ordered, the same symmetric matrix
    if dual:
        t, ts = G.sum(axis=1, dtype=np.float64), Gs.sum(axis=1, dtype=np.float64)
        offset = t.sum() / n**2
        side = Gs.astype(np.float64)
        side -= (ts[:, None] + t) / n
        side += offset
    else:
        s = G.diagonal().astype(np.float64)
        side = Xs - x_mean
    for rows in block_slices(len(G), block_size(len(G))):
        centered = G[rows].astype(np.float64)
        if dual:
            centered -= (t[rows, None] + t) / n
            centered += offset
        else:
            centered -= np.outer(s[rows], s) / n
        G[rows] = centered
    return G, (None if dual else rhs), side


def ridge_predict(features, targets, val_set, test_features):
    """Ridge regression's unclipped predictions for the rows of
    test_features: the model W minimizes |Xc W^T - Yc|^2 + lam |W|^2 for
    the centered features and targets, and its bias absorbs the
    centering. Of lam in _RIDGE_GRID times trace / d, the one with the
    lowest validation RMSE wins, the smallest on a tie.

    The Gram matrix on the smaller side, Xc Xc^T if n < d (dual), else
    Xc^T Xc (primal), is centered in float64, rounded to float32 and
    eigendecomposed once, in place, as U diag(s) U^T. The validation
    rows, then the test rows, enter that basis as side @ U, where side is
    their centered Gram rows (dual) or centered features (primal). With
    R = Yc (dual) or Xc^T Yc (primal), a row's prediction is
    (side @ U) diag(1 / (s + lam)) (U^T R) + y_mean. U^T R and side @ U
    are float32 products, and each lam only rescales the validation rows
    of their float64 results. W is never formed: the prediction rows
    cost (n_val + n_test) n^2 in the dual and (n_val + n_test) d^2 in
    the primal, where W costs k n (n + d) and k d^2, so this is cheaper
    while there are fewer prediction rows than k outputs (an image cell
    has 100 to 400 test images and k = 784 pixels).

    0/1 uint8 features (ciphertexts) have their Gram matrix and side
    formed exactly by _centered_bit_products, with no float copy of X.
    Other features are centered into a float64 Xc, held only until those
    products are formed.
    """
    X, Y = np.asarray(features), np.asarray(targets)
    if X.ndim != 2 or Y.ndim != 2:
        raise DimensionError("features and targets must be (n, d) and (n, k) arrays")
    dims = (HEAD_REGRESSION, X.shape[1], Y.shape[1])
    X, Y = _check_set("train", (X, Y), *dims)
    Xv, Yv = _check_set("val", val_set, *dims)
    Xs = np.concatenate([Xv, _check_features("test", test_features, X.shape[1])])
    n, d = X.shape
    x_mean, y_mean = X.mean(axis=0, dtype=np.float64), Y.mean(axis=0)
    dual = n < d
    bits = X.dtype == Xs.dtype == np.uint8 and max(X.max(), Xs.max()) <= 1
    if bits and max(n, d) < _F32_EXACT:
        gram, rhs, side = _centered_bit_products(X, Y, Xs, x_mean, y_mean)
    else:
        Xc = X - x_mean
        if dual:
            gram, rhs, side = Xc @ Xc.T, None, (Xs - x_mean) @ Xc.T
        else:
            gram, rhs, side = Xc.T @ Xc, Xc.T @ (Y - y_mean), Xs - x_mean
        del Xc
        gram = gram.astype(np.float32)
    lambdas = _RIDGE_GRID * (np.trace(gram, dtype=np.float64) / d or 1.0)
    # the Gram matrix is exactly symmetric, so its transpose, which is
    # Fortran-ordered, is the same matrix and LAPACK can overwrite it
    s, U = eigh(gram.T, overwrite_a=True, driver="evd")
    del gram
    if dual:
        rhs = Y - y_mean
    rhs = rhs.astype(np.float32)    # the float64 one is freed before the products
    UtR, basis = U.T @ rhs, side.astype(np.float32) @ U
    del U, rhs, side
    UtR, basis, s = UtR.astype(np.float64), basis.astype(np.float64), s.astype(np.float64)
    val_basis = basis[:len(Xv)]

    def val_rmse(lam):
        R = (val_basis / (s + lam)) @ UtR + y_mean - Yv
        return float(np.sqrt(np.mean(R * R)))

    return (basis[len(Xv):] / (s + min(lambdas, key=val_rmse))) @ UtR + y_mean


# called by no program path; bench/ reads it (ROADMAP item 3)
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
        require_finite("min_delta", self.min_delta, low=0)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate", "must be > 0")
        for name in ("batch_size", "max_epochs", "patience"):
            require_int(name, getattr(self, name), low=1)


# called by no program path; bench/ reads it (ROADMAP item 3)
@dataclass
class TrainReport:
    # one mean NLL per epoch run in each history; epochs_run and the
    # histories read 0 and [] at an initial validation loss of 0.0
    epochs_run: int = 0
    train_loss_history: list = field(default_factory=list)
    val_loss_history: list = field(default_factory=list)
    stopped_early: bool = False  # patience ran out, or the best loss is 0.0
    best_epoch: int = -1        # -1: no epoch beat the initial weights
    init_val_loss: float | None = None


def _nll_rows(P, Y):
    """Each row's negative log likelihood of its label Y[i] under the
    class probabilities P[i], floored at PROB_FLOOR."""
    return -np.log(np.maximum(P[np.arange(len(Y)), Y], PROB_FLOOR))


def _batch_loss_dz(weights, bias, X, Y, head):
    """Loss of the head's objective on one batch, and its gradient dZ
    with respect to the batch's outputs Z = X W^T + b.

    Softmax head: mean negative log likelihood, which train descends.
    Regression head: mean squared error, the square of the RMSE. dZ has
    the weights' dtype; the loss is a float64 mean.
    """
    Z = _affine(weights, bias, X)
    if head == HEAD_SOFTMAX:
        P = _softmax(Z)
        n = X.shape[0]
        loss = float(_nll_rows(P, Y).mean(dtype=np.float64))
        dZ = P
        dZ[np.arange(n), Y] -= 1.0
        dZ /= n
    else:
        R = Z - Y
        loss = float(np.mean(R * R, dtype=np.float64))
        dZ = R * (2.0 / R.size)
    return loss, dZ


def _batch_loss_grads(weights, bias, X, Y, head):
    """Loss and the (weights, bias) gradients on one batch."""
    loss, dZ = _batch_loss_dz(weights, bias, X, Y, head)
    return loss, dZ.T @ X, dZ.sum(axis=0)


def _sgd_step(weights, bias, X, Y, lr):
    """One softmax SGD step on a batch X of the weights' dtype with class
    labels Y, updating weights and bias in place; train runs it in float32.

    The weight update W -= lr * dZ^T X is one BLAS rank-k update into W's
    own memory: W^T of a C-contiguous W is Fortran-ordered, as GEMM
    wants, so no weight-sized temporary is made. Returns (loss, weights);
    use the returned array, which is a copy only if W was not C-contiguous.
    """
    loss, dZ = _batch_loss_dz(weights, bias, X, Y, HEAD_SOFTMAX)
    weights = _gemm(weights)(-lr, X.T, dZ.T, beta=1.0, c=weights.T,
                             trans_b=True, overwrite_c=True).T
    bias -= lr * dZ.sum(axis=0)
    return loss, weights


def _mean_nll(weights, bias, X, Y):
    """Mean negative log likelihood of the labels Y over a whole set.

    Each row's loss is computed a block at a time and the row losses are
    summed once, so the value does not depend on the block size.
    """
    losses = np.empty(X.shape[0])
    for rows, Z in _affine_chunks(weights, bias, X):
        losses[rows] = _nll_rows(_softmax(Z), Y[rows])
    return float(losses.sum()) / len(losses)


def _check_features(name, X, in_dim):
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DimensionError(f"{name} features must be a nonempty (n, d) array")
    if X.shape[1] != in_dim:
        raise DimensionError(f"{name} feature dim {X.shape[1]}, model expects {in_dim}")
    return X


def _check_set(name, data, head, in_dim, out_dim):
    X, Y = data
    X = _check_features(name, X, in_dim)
    if head == HEAD_SOFTMAX:
        Y = np.asarray(Y)
        if Y.shape != (X.shape[0],):
            raise DimensionError(f"{name} labels must be one class index per row")
        if not np.issubdtype(Y.dtype, np.integer) or Y.min() < 0 or Y.max() >= out_dim:
            raise DimensionError(f"{name} labels must be integers in [0, {out_dim})")
        Y = Y.astype(np.int64, copy=False)
    else:
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise DimensionError(f"{name} targets must be one vector per row")
        if Y.shape[1] != out_dim:
            raise DimensionError(f"{name} target dim {Y.shape[1]}, model emits {out_dim}")
    return X, Y


# called by no program path; bench/ traces it (ROADMAP item 3)
def train(model, train_set, val_set, cfg):
    """Softmax mini-batch SGD with per-epoch shuffling and patience early stopping.

    The steps run on float32 working copies of the weights and bias, and
    each batch's features are widened to float32 as the batch is drawn,
    so no float copy of the training set is made. Each epoch's validation
    loss is computed in float64 on the widened weights, which are what the
    returned model holds.

    The initial weights are scored first, as epoch -1, and set the loss
    the first epochs must improve on. A best validation loss of 0.0, which
    no epoch can beat, stops training before the next epoch (stopped_early;
    an exact initial model runs 0 epochs). Returns (best_model, TrainReport):
    the weights of the epoch with the lowest validation loss seen, or
    `model` itself, with best_epoch -1, when no epoch beat it. Raises
    ConfigError("head") for a model of another head before any data is
    checked, and TrainingDivergedError when a non-finite loss appears.
    """
    if model.head != HEAD_SOFTMAX:
        raise ConfigError("head", "train needs the softmax head")
    X, Y = _check_set("train", train_set, model.head, model.in_dim, model.out_dim)
    Xv, Yv = _check_set("val", val_set, model.head, model.in_dim, model.out_dim)

    weights = model.weights.astype(np.float32)
    bias = model.bias.astype(np.float32)
    rng = spawn_rng(cfg.seed, "epoch-shuffle")
    n = X.shape[0]

    report = TrainReport()
    best_val = _mean_nll(model.weights, model.bias, Xv, Yv)
    if not np.isfinite(best_val):
        raise TrainingDivergedError(-1, "non-finite validation loss")
    report.init_val_loss = reference_val = best_val
    # buffers for the best epoch's parameters, allocated once
    best_weights, best_bias = weights.copy(), bias.copy()
    epochs_since_improve = 0

    for epoch in range(cfg.max_epochs):
        if best_val == 0.0:     # no loss is lower; later epochs cannot win
            report.stopped_early = True
            break
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, weights = _sgd_step(weights, bias, X[idx].astype(np.float32), Y[idx],
                                      cfg.learning_rate)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            loss_sum += loss * len(idx)
        val_loss = _mean_nll(weights.astype(np.float64), bias.astype(np.float64), Xv, Yv)
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


def grad_check(model, example, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    `example` is (x, label) for the softmax head or (x, target) for
    regression, checked as a one-row batch; the loss checked is the
    head's training objective. Intended for small models only (cost
    grows with parameter count).
    """
    if h <= 0:
        raise ConfigError("h", "step must be > 0")
    x, target = example
    X, Y = _check_set("example", (np.asarray(x, dtype=np.float64)[None], [target]),
                      model.head, model.in_dim, model.out_dim)
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


def save_model(path, model, epsilon=None, seed=None):
    """Versioned JSON with everything needed to decrypt: head, dims,
    weights, bias, the encoder threshold and the seed. `train_config` is
    always null; load_model still reads the object that files from
    SGD-trained versions hold there."""
    jsondoc.save(path, jsondoc.envelope("linear-decoder", {
        "head": model.head,
        "in_dim": model.in_dim,
        "out_dim": model.out_dim,
        "weights": model.weights.ravel().tolist(),
        "bias": model.bias.tolist(),
        "epsilon": None if epsilon is None else float(epsilon),
        "train_config": None,
        "seed": None if seed is None else int(seed),
    }))


def load_model(path):
    """Returns (LinearDecoder, metadata dict with epsilon/train_config/seed);
    `train_config` is null in new files and an object in older ones."""
    fmt = "linear-decoder"
    doc = jsondoc.check(jsondoc.load(path), fmt, ("head", "in_dim", "out_dim", "weights", "bias"))
    in_dim, out_dim = (jsondoc.integer(doc, name, fmt, low=1) for name in ("in_dim", "out_dim"))
    w = jsondoc.numbers(doc["weights"], "weights", fmt, (out_dim * in_dim,))
    model = LinearDecoder(w.reshape(out_dim, in_dim),
                          jsondoc.numbers(doc["bias"], "bias", fmt, (out_dim,)), doc["head"])
    epsilon = doc.get("epsilon")
    if epsilon is not None:
        epsilon = float(jsondoc.numbers(epsilon, "epsilon", fmt, ()))
    meta = {"epsilon": epsilon, "train_config": doc.get("train_config"), "seed": doc.get("seed")}
    return model, meta
