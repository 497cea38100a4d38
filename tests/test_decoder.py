import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt.decoder import (HEAD_REGRESSION, HEAD_SOFTMAX, LinearDecoder,
                             TrainConfig, fit_naive_bayes, grad_check,
                             load_model, loss_nll, loss_rmse, save_model,
                             train, _batch_loss_dz, _batch_loss_grads,
                             _one_example, _sgd_step, _softmax)
from hdcrypt.errors import (ConfigError, DimensionError,
                            TrainingDivergedError)
from hdcrypt.hypervector import BinaryHypervector
from hdcrypt.rng import spawn_rng


def test_forward_zero_classifier_is_uniform():
    model = LinearDecoder(np.zeros((94, 10)), np.zeros(94), HEAD_SOFTMAX)
    probs = model.forward(np.ones(10))
    assert np.allclose(probs, 1 / 94, atol=1e-15)


def test_forward_zero_regression_returns_bias():
    bias = np.array([0.2, -0.4, 1.5])
    model = LinearDecoder(np.zeros((3, 5)), bias, HEAD_REGRESSION)
    assert np.array_equal(model.forward(np.ones(5)), bias)


def test_forward_two_class_hand_softmax():
    w = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
    b = np.array([0.1, -0.1])
    model = LinearDecoder(w, b, HEAD_SOFTMAX)
    x = np.array([1.0, 1.0, 0.0])
    # oracle: scalar arithmetic
    z0, z1 = 1.0 + 0.1, 1.0 - 0.1
    e0, e1 = np.exp(z0), np.exp(z1)
    probs = model.forward(x)
    assert np.allclose(probs, [e0 / (e0 + e1), e1 / (e0 + e1)], atol=1e-12)


def test_forward_accepts_hypervector(noiseless_system):
    model = noiseless_system["model"]
    bits = np.zeros(model.in_dim, dtype=np.uint8)
    bits[::3] = 1
    hv = BinaryHypervector.from_bits(bits)
    assert np.array_equal(model.forward(hv), model.forward(bits.astype(float)))


@pytest.mark.parametrize("head", [HEAD_SOFTMAX, HEAD_REGRESSION])
def test_forward_is_a_batch_of_one(head):
    rng = spawn_rng(1, "batch-of-one")
    model = LinearDecoder(rng.normal(size=(9, 20)), rng.normal(size=9), head)
    for x in rng.normal(size=(5, 20)):
        assert np.array_equal(model.forward(x), model.forward_batch(x[None])[0])


def test_forward_dimension_mismatch():
    model = LinearDecoder(np.zeros((2, 4)), np.zeros(2), HEAD_SOFTMAX)
    with pytest.raises(DimensionError):
        model.forward(np.ones(5))


def test_softmax_properties_hold():
    rng = spawn_rng(0, "softmax")
    model = LinearDecoder(rng.normal(size=(7, 5)), rng.normal(size=7), HEAD_SOFTMAX)
    x = rng.normal(size=5)
    probs = model.forward(x)
    assert np.all(probs > 0)
    assert abs(probs.sum() - 1.0) < 1e-9
    shifted = LinearDecoder(model.weights, model.bias + 13.7, HEAD_SOFTMAX)
    assert np.allclose(shifted.forward(x), probs, atol=1e-9)


def test_loss_rmse_cases():
    assert loss_rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    # oracle: sqrt((3^2 + 4^2) / 2)
    assert np.isclose(loss_rmse([3.0, 4.0], [0.0, 0.0]), np.sqrt(12.5))
    base = loss_rmse([1.0, -2.0, 0.5], [0.0, 1.0, 0.25])
    scaled = loss_rmse([-3.0, 6.0, -1.5], [0.0, -3.0, -0.75])
    assert np.isclose(scaled, 3 * base)
    with pytest.raises(DimensionError):
        loss_rmse([1.0], [1.0, 2.0])


def test_loss_nll_cases():
    uniform = np.full(94, 1 / 94)
    assert np.isclose(loss_nll(uniform, 17), np.log(94))
    assert np.isclose(loss_nll(uniform, 17), 4.5433, atol=5e-4)
    certain = np.zeros(5)
    certain[2] = 1.0
    assert loss_nll(certain, 2) == 0.0
    assert np.isclose(loss_nll(np.array([0.7, 0.3]), 1), -np.log(0.3))
    assert np.isclose(loss_nll(np.array([1.0, 0.0]), 1), -np.log(1e-12))
    with pytest.raises(DimensionError):
        loss_nll(np.array([0.5, 0.5]), 2)


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
        X, Y = _one_example(model, example)
        _, gw, gb = _batch_loss_grads(model.weights, model.bias, X, Y, model.head)
        return float(np.sqrt(np.sum(gw * gw) + np.sum(gb * gb)))

    model = LinearDecoder(np.zeros((2, 3)), np.array([0.5, -0.5]), HEAD_REGRESSION)
    x = np.array([1.0, 2.0, 3.0])
    target = model.forward(x)
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
    probs = trained.forward(X[0])
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


def test_train_returns_optimal_init_bit_for_bit():
    # four classes with distinct 40-bit codes: the fit's validation NLL is
    # exactly 0 in float64, so no epoch can beat it
    rng = spawn_rng(27, "separable")
    codes = rng.integers(0, 2, size=(4, 40))
    y = rng.integers(0, 4, size=200)
    X = codes[y].astype(np.uint8)
    init = fit_naive_bayes(X, y, 4)
    cfg = TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=30, patience=3, seed=28)
    trained, report = train(init, (X, y), (X[:60], y[:60]), cfg)
    assert report.init_val_loss == 0.0
    assert report.best_epoch == -1
    assert report.stopped_early and report.epochs_run == 3
    assert len(report.val_loss_history) == report.epochs_run
    assert trained.weights.tobytes() == init.weights.tobytes()
    assert trained.bias.tobytes() == init.bias.tobytes()


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
