import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt.decoder import (HEAD_REGRESSION, HEAD_SOFTMAX, LinearDecoder,
                             TrainConfig, analytic_gradient_norm, grad_check,
                             load_model, loss_nll, loss_rmse, save_model,
                             train, _batch_loss_grads)
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


def test_noiseless_codes_reach_perfect_validation(noiseless_system):
    # separability oracle: distinct noiseless codes are linearly separable
    assert noiseless_system["accuracy"] == 1.0


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0, batch_size=8)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=8, patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.1, batch_size=8, min_delta=-1.0)


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
