import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt import blocks, decoder
from hdcrypt.blocks import GEMM_ROWS, block_size
from hdcrypt.decoder import (HEAD_REGRESSION, HEAD_SOFTMAX,
                             LinearDecoder, TrainConfig, fit_naive_bayes,
                             fit_ridge, grad_check, load_model, save_model,
                             train, _RIDGE_GRID, _batch_loss_dz,
                             _batch_loss_grads, _full_loss, _sgd_step,
                             _softmax)
from hdcrypt.errors import (ConfigError, DimensionError,
                            TrainingDivergedError)
from hdcrypt.hypervector import BinaryHypervector
from hdcrypt.rng import spawn_rng
from hdcrypt.textcrypto import evaluate_accuracy


def test_forward_zero_classifier_is_uniform():
    model = LinearDecoder(np.zeros((94, 10)), np.zeros(94), HEAD_SOFTMAX)
    probs = model.forward_batch(np.ones((1, 10)))
    assert np.allclose(probs, 1 / 94, atol=1e-15)


def test_forward_zero_regression_returns_bias():
    bias = np.array([0.2, -0.4, 1.5])
    model = LinearDecoder(np.zeros((3, 5)), bias, HEAD_REGRESSION)
    assert np.array_equal(model.forward_batch(np.ones((1, 5)))[0], bias)


def test_forward_two_class_hand_softmax():
    w = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
    b = np.array([0.1, -0.1])
    model = LinearDecoder(w, b, HEAD_SOFTMAX)
    x = np.array([1.0, 1.0, 0.0])
    # oracle: scalar arithmetic
    z0, z1 = 1.0 + 0.1, 1.0 - 0.1
    e0, e1 = np.exp(z0), np.exp(z1)
    probs = model.forward_batch(x[None])[0]
    assert np.allclose(probs, [e0 / (e0 + e1), e1 / (e0 + e1)], atol=1e-12)


def test_forward_accepts_hypervector(noiseless_system):
    # a hypervector's unpacked uint8 bits decode as their float64 values do
    model = noiseless_system["model"]
    bits = np.zeros(model.in_dim, dtype=np.uint8)
    bits[::3] = 1
    hv = BinaryHypervector.from_bits(bits)
    assert np.array_equal(model.forward_batch(hv.to_bits()[None]),
                          model.forward_batch(bits.astype(float)[None]))


@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_forward_is_a_batch_of_one(head):
    rng = spawn_rng(1, "batch-of-one")
    model = LinearDecoder(rng.normal(size=(9, 20)), rng.normal(size=9), head)
    xs = rng.normal(size=(5, 20))
    batch = model.forward_batch(xs)
    for x, row in zip(xs, batch):
        assert np.array_equal(model.forward_batch(x[None])[0], row)


def test_forward_dimension_mismatch():
    model = LinearDecoder(np.zeros((2, 4)), np.zeros(2), HEAD_SOFTMAX)
    with pytest.raises(DimensionError):
        model.forward_batch(np.ones((1, 5)))


@pytest.mark.parametrize("shape", [(3, 5), (3, 3), (4,), (2, 4, 1)])
def test_batch_width_mismatch(shape):
    model = LinearDecoder(np.zeros((2, 4)), np.zeros(2), HEAD_SOFTMAX)
    with pytest.raises(DimensionError, match="expected \\(n, 4\\)"):
        model.forward_batch(np.ones(shape))
    with pytest.raises(DimensionError, match="expected \\(n, 4\\)"):
        model.predict_classes(np.ones(shape))


@pytest.mark.parametrize("call", ["predict_classes", "forward_batch", "evaluate_accuracy"])
def test_inference_widens_bits_one_block_at_a_time(call):
    model = LinearDecoder.new_random(500, 94, HEAD_SOFTMAX, seed=31)
    X = spawn_rng(31, "bit-inference").integers(0, 2, size=(20_000, 500)).astype(np.uint8)
    y = np.zeros(len(X), dtype=np.int64)
    run = {"predict_classes": lambda: model.predict_classes(X),
           "forward_batch": lambda: model.forward_batch(X),
           "evaluate_accuracy": lambda: evaluate_accuracy(model, (X, y))}[call]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, then one block of float64 rows (512 here) and its logits;
    # an 8,192-row chunk of X alone would take 31 MiB
    result = len(X) * (model.out_dim if call == "forward_batch" else 1) * 8
    assert peak < result + 2 * blocks._BLOCK_BYTES


@pytest.mark.parametrize("block_bytes", [1 << 16, 1 << 26], ids=["16-rows", "one-block"])
@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_full_loss_does_not_depend_on_the_block_size(head, block_bytes, monkeypatch):
    rng = spawn_rng(32, f"loss-blocks-{head}")
    X = rng.integers(0, 2, size=(1_500, 500)).astype(np.uint8)
    W, b = rng.normal(scale=0.1, size=(94, 500)), rng.normal(size=94)
    Y = rng.integers(0, 94, size=1_500) if head == HEAD_SOFTMAX else rng.normal(size=(1_500, 94))
    default = _full_loss(W, b, X, Y, head)     # three blocks of 512 rows
    monkeypatch.setattr(blocks, "_BLOCK_BYTES", block_bytes)
    assert _full_loss(W, b, X, Y, head) == default


def test_softmax_properties_hold():
    rng = spawn_rng(0, "softmax")
    model = LinearDecoder(rng.normal(size=(7, 5)), rng.normal(size=7), HEAD_SOFTMAX)
    x = rng.normal(size=5)
    probs = model.forward_batch(x[None])[0]
    assert np.all(probs > 0)
    assert abs(probs.sum() - 1.0) < 1e-9
    shifted = LinearDecoder(model.weights, model.bias + 13.7, HEAD_SOFTMAX)
    assert np.allclose(shifted.forward_batch(x[None])[0], probs, atol=1e-9)


def _loss_at_output(z, target, head):
    """_full_loss of one example whose output (logits for the softmax head)
    is exactly `z`: zero weights, bias z."""
    z = np.asarray(z, dtype=np.float64)
    Y = np.array([target]) if head == HEAD_SOFTMAX else np.asarray([target], dtype=np.float64)
    return _full_loss(np.zeros((z.size, 1)), z, np.zeros((1, 1)), Y, head)


def test_loss_rmse_cases():
    def rmse(pred, target):
        return _loss_at_output(pred, target, HEAD_REGRESSION)

    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    # oracle: sqrt((3^2 + 4^2) / 2)
    assert np.isclose(rmse([3.0, 4.0], [0.0, 0.0]), np.sqrt(12.5))
    base = rmse([1.0, -2.0, 0.5], [0.0, 1.0, 0.25])
    scaled = rmse([-3.0, 6.0, -1.5], [0.0, -3.0, -0.75])
    assert np.isclose(scaled, 3 * base)


def test_loss_nll_cases():
    def nll(probs, label):
        # logits log(p) make softmax return p; log(0) is -inf, which the
        # logit floor raises to a probability far below PROB_FLOOR
        with np.errstate(divide="ignore"):
            return _loss_at_output(np.log(probs), label, HEAD_SOFTMAX)

    uniform = np.full(94, 1 / 94)
    assert np.isclose(nll(uniform, 17), np.log(94))
    assert np.isclose(nll(uniform, 17), 4.5433, atol=5e-4)
    certain = np.zeros(5)
    certain[2] = 1.0
    assert nll(certain, 2) == 0.0
    assert np.isclose(nll(np.array([0.7, 0.3]), 1), -np.log(0.3))
    assert np.isclose(nll(np.array([1.0, 0.0]), 1), -np.log(1e-12))


def test_grad_check_classifier_head():
    rng = spawn_rng(1, "gc")
    model = LinearDecoder(rng.normal(scale=0.5, size=(3, 4)),
                          rng.normal(scale=0.5, size=3), HEAD_SOFTMAX)
    x = rng.uniform(-1, 1, 4)
    assert grad_check(model, (x, 2), h=1e-5) < 1e-5


def test_grad_check_regression_head():
    rng = spawn_rng(2, "gc")
    model = LinearDecoder(rng.normal(scale=0.5, size=(2, 4)),
                          rng.normal(scale=0.5, size=2), HEAD_REGRESSION)
    x = rng.uniform(-1, 1, 4)
    target = rng.uniform(-1, 1, 2)
    assert grad_check(model, (x, target), h=1e-5) < 1e-5


def test_zero_gradient_at_exact_fit():
    def analytic_gradient_norm(model, example):
        """L2 norm of the analytic gradient at one example."""
        x, target = example
        X, Y = x[None], np.asarray(target, dtype=np.float64)[None]
        _, gw, gb = _batch_loss_grads(model.weights, model.bias, X, Y, model.head)
        return float(np.sqrt(np.sum(gw * gw) + np.sum(gb * gb)))

    model = LinearDecoder(np.zeros((2, 3)), np.array([0.5, -0.5]), HEAD_REGRESSION)
    x = np.array([1.0, 2.0, 3.0])
    target = model.forward_batch(x[None])[0]
    assert analytic_gradient_norm(model, (x, target)) < 1e-12


def test_full_batch_step_decreases_loss():
    rng = spawn_rng(3, "descent")
    model = LinearDecoder(rng.normal(scale=0.3, size=(4, 6)),
                          np.zeros(4), HEAD_SOFTMAX)
    X = rng.uniform(0, 1, size=(32, 6))
    Y = rng.integers(0, 4, size=32)
    loss0, gw, gb = _batch_loss_grads(model.weights, model.bias, X, Y, HEAD_SOFTMAX)
    lr = 0.1
    loss1, _, _ = _batch_loss_grads(model.weights - lr * gw, model.bias - lr * gb,
                                    X, Y, HEAD_SOFTMAX)
    assert loss1 < loss0


def _step_case(head, out_dim, in_dim, batch, seed):
    """Weights, bias and one float64 batch (X, Y) for the given head."""
    rng = spawn_rng(seed, "sgd-step")
    W = rng.normal(scale=0.1, size=(out_dim, in_dim))
    b = rng.normal(scale=0.1, size=out_dim)
    X = rng.integers(0, 2, size=(batch, in_dim)).astype(np.float64)
    if head == HEAD_SOFTMAX:
        Y = rng.integers(0, out_dim, size=batch)
    else:
        Y = rng.uniform(0, 1, size=(batch, out_dim))
    return W, b, X, Y


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_sgd_step_equals_reference_update(head, order):
    W, b, X, Y = _step_case(head, 9, 40, 16, seed=15)
    lr = 0.3
    loss_ref, gw, gb = _batch_loss_grads(W, b, X, Y, head)
    W_ref, b_ref = W - lr * gw, b - lr * gb
    # F-ordered weights make dgemm work on a copy: the returned array counts
    loss, W_new = _sgd_step(np.asarray(W, order=order), b, X, Y, head, lr)
    assert loss == loss_ref
    assert np.max(np.abs(W_new - W_ref)) <= 1e-12 * np.max(np.abs(W_ref))
    assert np.max(np.abs(b - b_ref)) <= 1e-12 * np.max(np.abs(b_ref))


@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_sgd_step_updates_weights_in_place(head):
    W, b, X, Y = _step_case(head, 9, 40, 16, seed=16)
    _, W_new = _sgd_step(W, b, X, Y, head, 0.3)
    assert np.shares_memory(W_new, W)
    assert W_new.flags.c_contiguous


def test_sgd_step_allocates_no_weight_sized_buffer():
    # the image decoder's shape: 784 pixels out, 3136 hypervector bits in
    W, b, X, Y = _step_case(HEAD_REGRESSION, 784, 3136, 16, seed=17)
    tracemalloc.start()
    try:
        _sgd_step(W, b, X, Y, HEAD_REGRESSION, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < W.nbytes / 4


def _float32_step_case(head, out_dim, in_dim, batch, seed):
    W, b, X, Y = _step_case(head, out_dim, in_dim, batch, seed)
    return W.astype(np.float32), b.astype(np.float32), X.astype(np.float32), Y


@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_float32_sgd_step_stays_float32_and_in_place(head):
    W, b, X, Y = _float32_step_case(head, 9, 40, 16, seed=22)
    b_before = b
    loss, W_new = _sgd_step(W, b, X, Y, head, 0.3)
    assert W_new.dtype == np.float32 and b.dtype == np.float32
    assert np.shares_memory(W_new, W) and b is b_before
    assert isinstance(loss, float)


@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_float32_sgd_step_matches_float64_reference(head):
    W, b, X, Y = _float32_step_case(head, 9, 40, 16, seed=23)
    lr = 0.3
    # oracle: the float64 update from the same (float32-exact) starting point
    W64, b64, X64 = (a.astype(np.float64) for a in (W, b, X))
    loss_ref, gw, gb = _batch_loss_grads(W64, b64, X64, Y, head)
    W_ref, b_ref = W64 - lr * gw, b64 - lr * gb
    loss, W_new = _sgd_step(W, b, X, Y, head, lr)
    tol = 2 * np.finfo(np.float32).eps
    assert abs(loss - loss_ref) <= tol * abs(loss_ref)
    assert np.max(np.abs(W_new - W_ref)) <= tol * np.max(np.abs(W_ref))
    assert np.max(np.abs(b - b_ref)) <= tol * np.max(np.abs(b_ref))


def test_float32_sgd_step_allocates_no_weight_sized_buffer():
    W, b, X, Y = _float32_step_case(HEAD_REGRESSION, 784, 3136, 16, seed=24)
    tracemalloc.start()
    try:
        _sgd_step(W, b, X, Y, HEAD_REGRESSION, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < W.nbytes / 4


@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_train_returns_float64_widening_of_float32_weights(head):
    X, y = _toy_classification(n=120)
    Y = y if head == HEAD_SOFTMAX else np.eye(5)[y]
    cfg = TrainConfig(learning_rate=0.1, batch_size=16, max_epochs=4, seed=25)
    model = LinearDecoder.new_random(12, 5, head, seed=26)
    trained, _ = train(model, (X, Y), (X[:30], Y[:30]), cfg)
    for a in (trained.weights, trained.bias):
        assert a.dtype == np.float64
        assert np.array_equal(a.astype(np.float32).astype(np.float64), a)
    assert not np.array_equal(trained.weights, model.weights)


def test_train_leaves_features_unchanged():
    X, y = _toy_classification(n=100)
    X_before = X.copy()
    cfg = TrainConfig(learning_rate=0.1, batch_size=16, max_epochs=3, seed=18)
    model = LinearDecoder.new_random(12, 5, HEAD_SOFTMAX, seed=19)
    train(model, (X, y), (X[:20], y[:20]), cfg)
    assert np.array_equal(X, X_before)


def test_train_rejects_wrong_width_validation_targets():
    rng = spawn_rng(20, "val-width")
    X = rng.normal(size=(32, 6))
    Y = rng.normal(size=(32, 4))
    model = LinearDecoder.new_random(6, 4, HEAD_REGRESSION, seed=21)
    cfg = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=3)
    with pytest.raises(DimensionError, match="val target dim 1"):
        train(model, (X, Y), (X, Y[:, :1]), cfg)


@pytest.mark.parametrize("labels", [[0, 1, 2, 3, 1], [0, 1, -1, 1, 1], [0.0, 1.0, 2.0, 1.0, 1.0]])
def test_train_rejects_bad_softmax_labels(labels):
    X = spawn_rng(22, "bad-labels").normal(size=(5, 4))
    good = np.array([0, 1, 2, 1, 1])
    model = LinearDecoder.new_random(4, 3, HEAD_SOFTMAX, seed=23)
    cfg = TrainConfig(learning_rate=0.1, batch_size=2, max_epochs=2)
    problem = r"labels must be integers in \[0, 3\)"
    with pytest.raises(DimensionError, match="train " + problem):
        train(model, (X, np.array(labels)), (X, good), cfg)
    with pytest.raises(DimensionError, match="val " + problem):
        train(model, (X, good), (X, np.array(labels)), cfg)


def _toy_classification(n=400, d=12, classes=5, seed=4):
    rng = spawn_rng(seed, "toy")
    protos = rng.normal(size=(classes, d))
    y = rng.integers(0, classes, size=n)
    X = protos[y] + 0.1 * rng.normal(size=(n, d))
    return X, y


def test_train_overfits_single_example():
    X = np.array([[1.0, 0.0, 1.0, 1.0]])
    y = np.array([3])
    model = LinearDecoder.new_random(4, 5, HEAD_SOFTMAX, seed=5)
    cfg = TrainConfig(learning_rate=0.5, batch_size=1, max_epochs=300,
                      patience=300, min_delta=0.0)
    trained, report = train(model, (X, y), (X, y), cfg)
    assert report.val_loss_history[-1] < 0.01 or min(report.val_loss_history) < 0.01
    probs = trained.forward_batch(X[:1])[0]
    assert -np.log(probs[3]) < 0.01


def test_train_is_bitwise_reproducible():
    X, y = _toy_classification()
    cfg = TrainConfig(learning_rate=0.1, batch_size=16, max_epochs=15,
                      patience=15, min_delta=0.0, seed=99)
    runs = []
    for _ in range(2):
        model = LinearDecoder.new_random(12, 5, HEAD_SOFTMAX, seed=6)
        trained, _ = train(model, (X, y), (X[:50], y[:50]), cfg)
        runs.append(trained)
    assert np.array_equal(runs[0].weights, runs[1].weights)
    assert np.array_equal(runs[0].bias, runs[1].bias)


def test_train_returns_best_validation_epoch():
    X, y = _toy_classification()
    cfg = TrainConfig(learning_rate=0.3, batch_size=8, max_epochs=25,
                      patience=25, min_delta=0.0, seed=7)
    model = LinearDecoder.new_random(12, 5, HEAD_SOFTMAX, seed=8)
    trained, report = train(model, (X, y), (X[:80], y[:80]), cfg)
    assert report.epochs_run == len(report.val_loss_history)
    assert report.epochs_run == len(report.train_loss_history)
    from hdcrypt.decoder import _full_loss
    val_loss = _full_loss(trained.weights, trained.bias, X[:80], y[:80], HEAD_SOFTMAX)
    assert val_loss <= min(report.val_loss_history) + 1e-12


def test_train_early_stopping_triggers():
    X, y = _toy_classification(n=200)
    cfg = TrainConfig(learning_rate=0.05, batch_size=32, max_epochs=500,
                      patience=3, min_delta=0.05, seed=9)
    model = LinearDecoder.new_random(12, 5, HEAD_SOFTMAX, seed=10)
    _, report = train(model, (X, y), (X[:50], y[:50]), cfg)
    assert report.stopped_early
    assert report.epochs_run < 500


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_raises_with_epoch():
    rng = spawn_rng(11, "diverge")
    X = rng.normal(scale=100.0, size=(64, 6))
    Y = rng.normal(scale=100.0, size=(64, 3))
    model = LinearDecoder.new_random(6, 3, HEAD_REGRESSION, seed=12)
    cfg = TrainConfig(learning_rate=1e9, batch_size=8, max_epochs=10,
                      patience=10, min_delta=0.0, seed=13)
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(model, (X, Y), (X, Y), cfg)
    assert 0 <= excinfo.value.epoch < 10


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_rejects_init_with_non_finite_validation_loss():
    X = np.ones((8, 3))
    model = LinearDecoder(np.full((2, 3), 1e308), np.zeros(2), HEAD_REGRESSION)
    cfg = TrainConfig(learning_rate=0.01, batch_size=4, max_epochs=3)
    with pytest.raises(TrainingDivergedError) as excinfo:
        train(model, (X, np.zeros((8, 2))), (X, np.zeros((8, 2))), cfg)
    assert excinfo.value.epoch == -1


def test_noiseless_codes_reach_perfect_validation(noiseless_system):
    # separability oracle: distinct noiseless codes are linearly separable
    assert noiseless_system["accuracy"] == 1.0


def test_naive_bayes_fit_matches_hand_laplace_logits():
    X = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    y = np.array([0, 0, 1])
    model = fit_naive_bayes(X, y, 3)
    # p_cj = (count + 1) / (n_c + 2); class 2 has no examples, so p = 1/2
    p = np.array([[3 / 4, 2 / 4, 2 / 4],
                  [1 / 3, 1 / 3, 2 / 3],
                  [1 / 2, 1 / 2, 1 / 2]])
    assert model.head == HEAD_SOFTMAX
    np.testing.assert_allclose(model.weights, np.log(p) - np.log(1 - p),
                               rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(model.bias, np.log(1 - p).sum(axis=1),
                               rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("features, labels", [
    ([[0, 2], [1, 0]], [0, 1]),
    ([[0.5, 1], [1, 0]], [0, 1]),
    ([[0, 1], [1, 0]], [0, 3]),
    ([[0, 1], [1, 0]], [-1, 1]),
    ([[0, 1], [1, 0]], [0.5, 1]),
    ([[0, 1], [1, 0]], [0]),
])
def test_naive_bayes_fit_rejects_non_bits_and_bad_labels(features, labels):
    with pytest.raises(DimensionError):
        fit_naive_bayes(np.array(features), np.array(labels), 3)


def test_naive_bayes_fit_memory_stays_near_feature_size():
    rng = spawn_rng(31, "nb-memory")
    X = rng.integers(0, 2, size=(20_000, 500), dtype=np.uint8)
    y = rng.integers(0, 94, size=20_000)
    tracemalloc.start()
    try:
        fit_naive_bayes(X, y, 94)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (classes, d) float64 tables: counts, log-probabilities, weights
    # and their temporaries; a boolean copy of X per bit test would not fit
    table = 94 * 500 * 8
    assert peak < X.nbytes + 6 * table


def _ridge_problem(n, d, k=3, n_val=40, seed=30):
    """Noisy linear targets of n training and n_val validation bit rows."""
    rng = spawn_rng(seed, f"ridge-{n}x{d}")
    X = rng.integers(0, 2, size=(n + n_val, d)).astype(np.uint8)
    Y = X @ rng.normal(size=(d, k)) + rng.normal(scale=3.0, size=(n + n_val, k)) + 0.5
    return (X[:n], Y[:n]), (X[n:], Y[n:])


@pytest.mark.parametrize("n, d", [(30, 60), (50, 30)])  # n < d, then n >= d
def test_fit_ridge_is_the_normal_equations_at_the_best_grid_penalty(n, d):
    (X, Y), (Xv, Yv) = _ridge_problem(n, d)
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    fits = []
    for lam in _RIDGE_GRID * np.sum(Xc * Xc) / d:
        w = np.linalg.solve(Xc.T @ Xc + lam * np.eye(d), Xc.T @ Yc).T
        b = Y.mean(axis=0) - w @ X.mean(axis=0)
        fits.append((np.sqrt(np.mean((Xv @ w.T + b - Yv) ** 2)), w, b))
    best = int(np.argmin([rmse for rmse, _, _ in fits]))
    assert 0 < best < len(fits) - 1    # the choice is not at an end of the grid
    model = fit_ridge(X, Y, (Xv, Yv))
    np.testing.assert_allclose(model.weights, fits[best][1], rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(model.bias, fits[best][2], rtol=1e-8, atol=1e-10)
    # no other penalty of the grid gives these weights
    assert [np.allclose(model.weights, w, rtol=1e-6, atol=0) for _, w, _ in fits] == \
        [j == best for j in range(len(fits))]


def test_fit_ridge_of_constant_features_predicts_the_mean_target():
    (_, Y), (_, Yv) = _ridge_problem(30, 4)
    X = np.ones((30, 4))
    model = fit_ridge(X, Y, (X[:5], Yv[:5]))
    assert np.array_equal(model.weights, np.zeros((3, 4)))
    np.testing.assert_allclose(model.bias, Y.mean(axis=0), rtol=1e-12)



def _exact_bit_products(X, Y, Xv):
    """(gram, rhs, val_side) of fit_ridge for 0/1 features, from int64
    products of the bits centered by fit_ridge's formulas. rhs, None in
    the dual fit, is one GEMM through scipy's BLAS, which fit_ridge sums
    over row blocks: the two agree bitwise when X is one block."""
    n, d = X.shape
    Xi = X.astype(np.int64)
    if n < d:
        G, Gv = Xi @ Xi.T, Xv.astype(np.int64) @ Xi.T
        t, tv = G.sum(axis=1), Gv.sum(axis=1)
        offset = t.sum() / n**2
        return G - (t[:, None] + t) / n + offset, None, Gv - (tv[:, None] + t) / n + offset
    s = Xi.sum(axis=0)
    rhs = scipy.linalg.blas.dgemm(1.0, X.T, Y - Y.mean(axis=0))
    return Xi.T @ Xi - np.outer(s, s) / n, rhs, Xv - X.mean(axis=0)


def _fit_ridge_one_product(X, Y, Xv, Yv):
    """fit_ridge as one product per step, the oracle of its blocked fits.

    For 0/1 uint8 features the Gram and validation products are int64
    products of the bits, centered by the formulas fit_ridge uses, and
    the primal right-hand side is one product X^T Yc. For other features
    they are products of the float64 Xc. Xc lives to the end, the Gram
    matrix is copied into eigh, and W = (U M)^T Xc is one GEMM. Returns
    (weights, bias)."""
    x_mean, y_mean = X.mean(axis=0, dtype=np.float64), Y.mean(axis=0)
    Xc = X - x_mean
    n, d = X.shape
    dual = n < d
    if X.dtype == np.uint8:
        gram, rhs, val_side = _exact_bit_products(X, Y, Xv)
        if dual:
            rhs = Y - y_mean
    elif dual:
        gram = Xc @ Xc.T
        rhs, val_side = Y - y_mean, (Xv - x_mean) @ Xc.T
    else:
        gram = Xc.T @ Xc
        rhs, val_side = Xc.T @ (Y - y_mean), Xv - x_mean
    lambdas = _RIDGE_GRID * (np.trace(gram) / d or 1.0)
    s, U = scipy.linalg.eigh(gram)
    UtY, val_basis = U.T @ rhs, val_side @ U

    def val_rmse(lam):
        R = val_basis @ (UtY / (s + lam)[:, None]) + y_mean - Yv
        return float(np.sqrt(np.mean(R * R)))

    M = UtY / (s + min(lambdas, key=val_rmse))[:, None]
    weights = (U @ M).T @ Xc if dual else M.T @ U.T
    return weights, y_mean - weights @ x_mean


# a dual problem whose weights take two full column blocks and a partial one
_DUAL_ROWS = 160
_DUAL_BLOCK = block_size(_DUAL_ROWS, GEMM_ROWS)   # 1,632 columns


_ONE_PRODUCT_SHAPES = pytest.mark.parametrize(
    "n, d", [(_DUAL_ROWS, 2 * _DUAL_BLOCK + 100), (50, 30)], ids=["dual-blocked", "primal"])


def _assert_fit_ridge_is_its_one_product_form(n, d, dtype):
    (X, Y), (Xv, Yv) = _ridge_problem(n, d)
    X, Xv = X.astype(dtype), Xv.astype(dtype)
    model = fit_ridge(X, Y, (Xv, Yv))
    weights, bias = _fit_ridge_one_product(X, Y, Xv, Yv)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.bias, bias)


@_ONE_PRODUCT_SHAPES
def test_fit_ridge_equals_its_one_product_form_bitwise(n, d):
    # uint8 bits: the exact Gram matrices
    _assert_fit_ridge_is_its_one_product_form(n, d, np.uint8)


@_ONE_PRODUCT_SHAPES
def test_fit_ridge_of_float_features_equals_its_one_product_form_bitwise(n, d):
    # the same bits as float64: the centered float64 features
    _assert_fit_ridge_is_its_one_product_form(n, d, np.float64)


def test_dual_fit_ridge_frees_the_centered_features_once_the_gram_matrix_exists(monkeypatch):
    n, d = _DUAL_ROWS, 2 * _DUAL_BLOCK + 100
    (X, Y), val_set = _ridge_problem(n, d)
    real_eigh = decoder.eigh

    def eigh_from_here(*args, **kwargs):
        tracemalloc.reset_peak()
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(decoder, "eigh", eigh_from_here)
    tracemalloc.start()
    try:
        fit_ridge(X, Y, val_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # from the eigendecomposition on, nothing as large as the float64 Xc lives
    assert peak < n * d * 8


@pytest.mark.parametrize("n, d", [(160, 10_000), (20_000, 100)], ids=["dual", "primal"])
def test_fit_ridge_on_bits_holds_no_float_copy_of_the_features(n, d):
    (X, Y), val_set = _ridge_problem(n, d)
    tracemalloc.start()
    try:
        fit_ridge(X, Y, val_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * np.dtype(np.float32).itemsize


@pytest.mark.parametrize("block_bytes", [blocks._BLOCK_BYTES, 1 << 14], ids=["default", "small"])
@pytest.mark.parametrize("n, d", [(100, 2_000), (3_000, 60)], ids=["dual", "primal"])
def test_bit_gram_matrices_are_the_exact_integer_products(n, d, block_bytes, monkeypatch):
    monkeypatch.setattr(blocks, "_BLOCK_BYTES", block_bytes)
    (X, Y), (Xv, _) = _ridge_problem(n, d)
    x_mean, y_mean = X.mean(axis=0), Y.mean(axis=0)
    gram, rhs, val_side = decoder._centered_bit_products(X, Y, Xv, x_mean, y_mean)
    ref_gram, ref_rhs, ref_val_side = _exact_bit_products(X, Y, Xv)
    assert np.array_equal(gram, ref_gram) and np.array_equal(gram, gram.T)
    assert np.array_equal(val_side, ref_val_side)
    if n < d:
        assert rhs is None
    else:   # summed over row blocks, in another order than the one product
        np.testing.assert_allclose(rhs, ref_rhs, rtol=1e-12, atol=1e-9)


def test_fit_ridge_rejects_mismatched_sets():
    (X, Y), (Xv, Yv) = _ridge_problem(30, 6)
    with pytest.raises(DimensionError, match="val target dim 1"):
        fit_ridge(X, Y, (Xv, Yv[:, :1]))
    with pytest.raises(DimensionError, match="val feature dim 5"):
        fit_ridge(X, Y, (Xv[:, :5], Yv))
    with pytest.raises(DimensionError, match="train targets"):
        fit_ridge(X, Y[:-1], (Xv, Yv))
    with pytest.raises(DimensionError):
        fit_ridge(X[0], Y, (Xv, Yv))


def _separable_codes():
    """200 rows of four distinct 40-bit class codes, and their labels."""
    rng = spawn_rng(27, "separable")
    codes = rng.integers(0, 2, size=(4, 40))
    y = rng.integers(0, 4, size=200)
    return codes[y].astype(np.uint8), y


def test_train_returns_optimal_init_bit_for_bit():
    # the closed-form fit's validation NLL is exactly 0 in float64, so no
    # epoch can beat it and training stops before the first one
    X, y = _separable_codes()
    init = fit_naive_bayes(X, y, 4)
    cfg = TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=30, patience=3, seed=28)
    trained, report = train(init, (X, y), (X[:60], y[:60]), cfg)
    assert report.init_val_loss == 0.0
    assert report.best_epoch == -1
    assert report.stopped_early and report.epochs_run == 0
    assert report.val_loss_history == [] and report.train_loss_history == []
    assert trained.weights.tobytes() == init.weights.tobytes()
    assert trained.bias.tobytes() == init.bias.tobytes()


def test_train_from_exact_start_makes_no_float32_features():
    rng = spawn_rng(29, "exact-memory")
    codes = rng.integers(0, 2, size=(4, 400))
    y = rng.integers(0, 4, size=20_000)
    X = codes[y].astype(np.uint8)
    init = fit_naive_bayes(X, y, 4)
    cfg = TrainConfig(learning_rate=0.5, batch_size=64, max_epochs=5, patience=3, seed=30)
    tracemalloc.start()
    try:
        _, report = train(init, (X, y), (X[:500], y[:500]), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.epochs_run == 0
    assert peak < X.size * np.dtype(np.float32).itemsize
    # nor does a run from a non-exact start: each batch is widened on its own
    start = LinearDecoder.new_random(400, 4, HEAD_SOFTMAX, seed=31)
    tracemalloc.start()
    try:
        _, report = train(start, (X, y), (X[:500], y[:500]), replace(cfg, max_epochs=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.epochs_run == 1
    assert peak < X.size * np.dtype(np.float32).itemsize


def test_train_stops_after_the_epoch_that_reaches_zero_loss():
    # full-batch steps at a large rate: the validation NLL is positive
    # for the first epochs, then exactly 0, long before patience runs out
    X, y = _separable_codes()
    init = LinearDecoder.new_random(40, 4, HEAD_SOFTMAX, seed=5)
    cfg = TrainConfig(learning_rate=500.0, batch_size=200, max_epochs=40, patience=40,
                      min_delta=0.0, seed=28)
    trained, report = train(init, (X, y), (X[:60], y[:60]), cfg)
    e = report.val_loss_history.index(0.0)
    assert e >= 1 and min(report.val_loss_history[:e]) > 0.0
    assert report.epochs_run == e + 1 and report.best_epoch == e
    assert report.stopped_early
    # the stop only skips epochs: a run capped at e + 1 epochs agrees bit for bit
    capped, _ = train(init, (X, y), (X[:60], y[:60]), replace(cfg, max_epochs=e + 1))
    assert trained.weights.tobytes() == capped.weights.tobytes()
    assert trained.bias.tobytes() == capped.bias.tobytes()


def _spread_logits(dtype):
    """64 rows of 94 logits evenly spread over [-1500, 0]."""
    return np.tile(np.linspace(0.0, -1500.0, 94), (64, 1)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_of_widely_spread_logits_has_no_subnormals(dtype):
    P = _softmax(_spread_logits(dtype))
    assert P.dtype == dtype
    assert np.all(P >= np.finfo(dtype).tiny)
    assert np.allclose(P.sum(axis=1), 1.0)


def test_float32_softmax_gradient_has_no_subnormals():
    Z = _spread_logits(np.float32)
    W = np.zeros((94, 8), dtype=np.float32)
    X = np.ones((64, 8), dtype=np.float32)
    Y = spawn_rng(29, "labels").integers(0, 94, size=64)
    _, dZ = _batch_loss_dz(W, Z[0], X, Y, HEAD_SOFTMAX)
    assert dZ.dtype == np.float32
    nonzero = np.abs(dZ[dZ != 0])
    assert nonzero.size > 0.9 * dZ.size
    assert np.all(nonzero >= np.finfo(np.float32).tiny)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0, batch_size=8)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=8, patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=8, min_delta=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["learning_rate", "min_delta"])
def test_train_config_rejects_non_finite(name, value):
    fields = {"learning_rate": 0.1, "batch_size": 8, name: value}
    with pytest.raises(ConfigError) as excinfo:
        TrainConfig(**fields)
    assert excinfo.value.field == name


def test_model_file_roundtrip(tmp_path):
    rng = spawn_rng(14, "io")
    model = LinearDecoder(rng.normal(size=(3, 7)), rng.normal(size=3), HEAD_SOFTMAX)
    cfg = TrainConfig(learning_rate=0.05, batch_size=64)
    path = tmp_path / "model.json"
    save_model(path, model, epsilon=1.25e-4, train_config=cfg, seed=42)
    loaded, meta = load_model(path)
    assert loaded.head == HEAD_SOFTMAX
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    assert meta["epsilon"] == 1.25e-4
    assert meta["seed"] == 42
    assert meta["train_config"]["batch_size"] == 64


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_sum_to_one(classes, seed):
    rng = np.random.default_rng(seed)
    model = LinearDecoder(rng.normal(size=(classes, 3)),
                          rng.normal(size=classes), HEAD_SOFTMAX)
    probs = model.forward_batch(rng.normal(size=(4, 3)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs > 0)
