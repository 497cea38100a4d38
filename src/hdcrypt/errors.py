"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError and DimensionError -> 2,
DataFormatError (and subclasses) and DegenerateStatisticError -> 3.
TrainingDivergedError has no exit code: only decoder.train raises it,
and no command trains by SGD.
"""

import math

import numpy as np

__all__ = [
    "HdcryptError",
    "ConfigError",
    "require_finite",
    "require_int",
    "DimensionError",
    "require_batch",
    "DataFormatError",
    "CharsetError",
    "TrainingDivergedError",
    "DegenerateStatisticError",
]


class HdcryptError(Exception):
    pass


class ConfigError(HdcryptError, ValueError):
    """An invalid configuration value. `field` names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def require_finite(field, *values, low=None):
    """Raise ConfigError(field) unless every value is a finite real number
    and, if `low` is given, at least `low`.

    Range checks such as `value < 0` are all false for NaN, so the
    finiteness check comes first. A bool (JSON `true`) is no number, and
    an integer beyond float range counts as infinite, as in a float."""
    for value in values:
        try:
            finite = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ConfigError(field, f"must be a finite number, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(field, f"must be >= {low}, got {value!r}")


def require_int(field, *values, low=None):
    """Raise ConfigError(field) unless every value is an integer, Python's
    or numpy's but no bool, and, if `low` is given, at least `low`."""
    for value in values:
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise ConfigError(field, f"must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(field, f"must be >= {low}, got {value!r}")


class DimensionError(HdcryptError, ValueError):
    """Shape mismatch between an operand and what the operation expects."""


def require_batch(xs, width):
    """`xs` as a float64 (n, width) array of input rows: DimensionError for
    another shape, ValueError for a non-finite entry."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != width:
        raise DimensionError(f"input shape {xs.shape}, expected (n, {width})")
    if not np.all(np.isfinite(xs)):
        raise ValueError("input vectors must be finite")
    return xs


class DataFormatError(HdcryptError, ValueError):
    """A malformed file or byte stream. `offset` is the first bad byte."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class CharsetError(DataFormatError):
    """Plaintext contains a character outside the supported charset."""

    def __init__(self, char, index):
        self.char = char
        self.index = index
        super().__init__(
            f"character {char!r} at index {index} is outside the supported charset",
            offset=index,
        )


class TrainingDivergedError(HdcryptError, ArithmeticError):
    """Non-finite loss encountered while training. `epoch` is 0-based;
    -1 means the initial weights' validation loss."""

    def __init__(self, epoch, message="non-finite loss"):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}: {message}")


class DegenerateStatisticError(HdcryptError, ValueError):
    """A statistic is undefined on this input (e.g. zero variance)."""
