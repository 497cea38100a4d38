import numpy as np
import pytest

from hdcrypt import datasets, textcrypto
from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.datasets import load_digits, synthetic_digits, synthetic_natural_image
from hdcrypt.decoder import TrainConfig
from hdcrypt.encoder import IdealEncoder
from hdcrypt.errors import ConfigError, require_finite, require_int
from hdcrypt.experiments import ExperimentSpec, run_grid
from hdcrypt.imagecrypto import BenchmarkEncoder, bits_to_plane
from hdcrypt.textcrypto import CipherText, SecretKeyTable, build_dataset, uniqueness_stats


def _crossbar(**changes):
    fields = dict(rows=4, cols=8, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.1,
                  p_stuck_on=0.0, p_stuck_off=0.0, seed=1)
    return CrossbarConfig(**(fields | changes))


# every integer config field: a call that sets it to a value, and its name
INTEGER_FIELDS = {
    "crossbar-rows": (lambda v: _crossbar(rows=v), "rows"),
    "crossbar-cols": (lambda v: _crossbar(cols=v), "cols"),
    "crossbar-seed": (lambda v: _crossbar(seed=v), "seed"),
    "spec-key_dim": (lambda v: ExperimentSpec(key_dim=v), "key_dim"),
    "spec-train_size": (lambda v: ExperimentSpec(train_size=v), "train_size"),
    "spec-val_size": (lambda v: ExperimentSpec(val_size=v), "val_size"),
    "spec-test_size": (lambda v: ExperimentSpec(test_size=v), "test_size"),
    "spec-multipliers": (lambda v: ExperimentSpec(multipliers=(10, v)), "multipliers"),
    "grid-jobs": (lambda v: run_grid(ExperimentSpec(), jobs=v), "jobs"),
    "ideal-input_dim": (lambda v: IdealEncoder.new_random(v, 2, 0.1, 1), "input_dim"),
    "ideal-multiplier": (lambda v: IdealEncoder.new_random(4, v, 0.1, 1), "multiplier"),
    "benchmark-dim": (lambda v: BenchmarkEncoder.new_random(v, 0.1, 1), "dim"),
    "plane-height": (lambda v: bits_to_plane(np.zeros(96), v, 6, 4), "height"),
    "plane-width": (lambda v: bits_to_plane(np.zeros(96), 4, v, 4), "width"),
    "plane-multiplier": (lambda v: bits_to_plane(np.zeros(96), 4, 6, v), "multiplier"),
    "train-batch_size": (lambda v: TrainConfig(learning_rate=0.1, batch_size=v), "batch_size"),
    "train-max_epochs": (lambda v: TrainConfig(0.1, 8, max_epochs=v), "max_epochs"),
    "train-patience": (lambda v: TrainConfig(0.1, 8, patience=v), "patience"),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("case", INTEGER_FIELDS)
def test_integer_fields_reject_floats_and_bools(case, value):
    make, field = INTEGER_FIELDS[case]
    with pytest.raises(ConfigError) as excinfo:
        make(value)
    assert excinfo.value.field == field
    assert f"must be an integer, got {value!r}" in str(excinfo.value)


class _NoDraws:
    """A generator stand-in that fails any draw."""

    def __getattr__(self, name):
        raise AssertionError("drew from the generator")


_XBAR = Crossbar.new_random(_crossbar())
_KEYS = SecretKeyTable.new_random(4, 2)

# every size argument of a library call: a call that sets it, and its name
SIZE_ARGUMENTS = {
    "digits-n": (lambda v: synthetic_digits(v, 1), "n"),
    "digits-size": (lambda v: synthetic_digits(3, 1, size=v), "size"),
    "natural-size": (lambda v: synthetic_natural_image(v, 1), "size"),
    "load-n": (lambda v: load_digits(v, 1), "n"),
    "keys-key_dim": (lambda v: SecretKeyTable.new_random(v, 1), "key_dim"),
    "dataset-n": (lambda v: build_dataset(v, _KEYS, _XBAR, 0.0, _NoDraws()), "n"),
    "uniqueness-n_passes": (
        lambda v: uniqueness_stats("A", v, _KEYS, _XBAR, 0.0, _NoDraws()), "n_passes"),
    "ciphertext-dim": (lambda v: CipherText(v, np.zeros((0, 1), np.uint8)), "dim"),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("case", SIZE_ARGUMENTS)
def test_size_arguments_reject_floats_and_bools_before_any_draw(case, value, monkeypatch):
    for module in (datasets, textcrypto):
        monkeypatch.setattr(module, "spawn_rng", lambda *args: _NoDraws())
    make, field = SIZE_ARGUMENTS[case]
    with pytest.raises(ConfigError) as excinfo:
        make(value)
    assert excinfo.value.field == field
    assert f"must be an integer, got {value!r}" in str(excinfo.value)


def test_require_int_takes_numpy_integers_and_checks_the_bound():
    require_int("n", 1, np.int64(7), low=1)
    require_int("seed", -3, 10**400)
    for value in (np.bool_(True), "3", None):
        with pytest.raises(ConfigError, match="must be an integer"):
            require_int("n", value)
    with pytest.raises(ConfigError, match=r"^n: must be >= 2, got 1$"):
        require_int("n", 3, 1, low=2)


def test_require_finite_checks_finiteness_before_the_bound():
    require_finite("sigma", 0, 0.0, 2.5, low=0)
    with pytest.raises(ConfigError, match=r"^sigma: must be >= 0, got -0\.5$"):
        require_finite("sigma", 1.0, -0.5, low=0)
    for value in (float("nan"), float("-inf"), True, 10**400):
        with pytest.raises(ConfigError, match="must be a finite number"):
            require_finite("sigma", value, low=0)
