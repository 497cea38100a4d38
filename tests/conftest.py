import numpy as np
import pytest

from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.experiments import train_text_system
from hdcrypt.decoder import TrainConfig
from hdcrypt.textcrypto import SecretKeyTable


@pytest.fixture(scope="session")
def noiseless_system():
    """Small noise-free text system trained to perfect separation."""
    cfg = CrossbarConfig(rows=6, cols=300, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.0,
                         p_stuck_on=0.0, p_stuck_off=0.0, seed=101)
    xbar = Crossbar.new_random(cfg)
    keys = SecretKeyTable.new_random(6, 202)
    train_cfg = TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=60,
                            patience=5, min_delta=1e-4)
    model, epsilon, accuracy, report = train_text_system(
        xbar, keys, (4000, 1000, 2000), train_cfg, master_seed=303)
    return dict(xbar=xbar, keys=keys, model=model, epsilon=epsilon,
                accuracy=accuracy, report=report)


@pytest.fixture(scope="session")
def noisy_system():
    """Table-1-style noisy system at reduced dataset sizes."""
    cfg = CrossbarConfig(rows=10, cols=500, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.1,
                         p_stuck_on=0.02, p_stuck_off=0.02, seed=404)
    xbar = Crossbar.new_random(cfg)
    keys = SecretKeyTable.new_random(10, 505)
    train_cfg = TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=40,
                            patience=5, min_delta=1e-4)
    model, epsilon, accuracy, report = train_text_system(
        xbar, keys, (8000, 2000, 3000), train_cfg, master_seed=606)
    return dict(xbar=xbar, keys=keys, model=model, epsilon=epsilon,
                accuracy=accuracy, report=report)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture()
def project_with_noise_matrix():
    """Reference form of an ideal encoder pass, y = (W + N) x with an
    explicit noise matrix N; the package samples N x in projected form."""
    def project(enc, x, noise_matrix):
        assert noise_matrix.shape == enc.weights.shape
        return (enc.weights + noise_matrix) @ x
    return project
