"""Hyperdimensional stochastic encoding: noisy projection + threshold.

Two interchangeable backends produce the pre-threshold vector y for an
input x of length k:

* a Crossbar, where y is one noisy analog read of x, and
* IdealEncoder, where y = (W + N) x with W fixed and N a fresh Gaussian
  matrix per pass. W's entries are drawn i.i.d. uniform in the fixed
  interval (-2, 2) from a seeded stream, and the noise level sigma must
  be a finite number >= 0.

Binarization compares y against a single global threshold `epsilon`;
entries >= epsilon map to 1. The threshold is calibrated per model:
`calibrate_epsilon` takes the pre-threshold outputs of a calibration
batch, read in one batched call, and returns their median, which
balances the 0/1 bit budget of the ciphertext. Single-input calls
(`threshold_binarize`, `crossbar_pre_threshold`) are batches of one.

For IdealEncoder the fresh noise is sampled in its exact projected form:
since N has i.i.d. Normal(0, sigma^2) entries, N @ x is a vector of
independent Normal(0, sigma^2 * ||x||^2) draws, so we sample that
directly instead of materializing a D x k matrix per pass; the tests
keep the materializing form as their oracle. The image pipeline's
no-expansion control, `imagecrypto.BenchmarkEncoder`, is an
IdealEncoder with a square projection and no threshold, and inherits
these projection paths.
"""

import numpy as np

from .crossbar import _BLOCK_BYTES
from .errors import ConfigError, DimensionError, require_finite
from .hypervector import BinaryHypervector
from .rng import spawn_rng

__all__ = [
    "threshold_binarize",
    "binarize_batch",
    "calibrate_epsilon",
    "encode_crossbar",
    "encode_crossbar_batch",
    "IdealEncoder",
]


def threshold_binarize(y, epsilon):
    """Bit i = 1 iff y[i] >= epsilon (ties map to 1)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise DimensionError("expected a 1-D vector")
    return BinaryHypervector.from_bits(binarize_batch(y[None], epsilon)[0])


def binarize_batch(ys, epsilon):
    """Threshold a (n, D) batch into a uint8 bit matrix."""
    if not np.isfinite(epsilon):
        raise ConfigError("epsilon", f"threshold must be finite, got {epsilon!r}")
    ys = np.asarray(ys, dtype=np.float64)
    if not np.all(np.isfinite(ys)):
        raise ValueError("pre-threshold values must be finite")
    return (ys >= epsilon).astype(np.uint8)


def calibrate_epsilon(pre_threshold):
    """Median of all entries of an array of pre-threshold outputs, e.g.
    one row per read of a calibration batch."""
    pre_threshold = np.asarray(pre_threshold, dtype=np.float64)
    if pre_threshold.size == 0:
        raise ValueError("need at least one calibration output")
    return float(np.median(pre_threshold))


def crossbar_pre_threshold(xbar, x, rng):
    """Differential crossbar read: the raw column currents minus the
    current of an ideal reference column programmed to mid-range.

    All conductances are positive, so a raw read carries a common-mode
    term mean(G) * sum(x) shared by every column; inputs with a large
    entry sum would otherwise saturate the whole code word to all ones
    or all zeros. Sensing each column against a reference column at
    G_mid = (G_on + G_off) / 2 cancels that term exactly:
    y_j = sum_i x_i * (G_ij - G_mid).
    """
    return crossbar_pre_threshold_batch(xbar, np.asarray(x, dtype=np.float64)[None], rng)[0]


def crossbar_pre_threshold_batch(xbar, xs, rng):
    xs = np.asarray(xs, dtype=np.float64)
    return xbar.read_vmm_batch(xs, rng) - xs.sum(axis=1, keepdims=True) * xbar.config.g_mid


def encode_crossbar(xbar, x, epsilon, rng):
    """One encryption pass of x: differential read, then threshold."""
    return threshold_binarize(crossbar_pre_threshold(xbar, x, rng), epsilon)


def encode_crossbar_batch(xbar, xs, epsilon, rng):
    """Encode each row of xs with fresh per-pass noise; returns (n, cols) bits."""
    return binarize_batch(crossbar_pre_threshold_batch(xbar, xs, rng), epsilon)


_INIT_LABEL = "ideal-encoder-init"
# every projection entry is drawn uniform in this fixed interval
_INIT_INTERVAL = (-2.0, 2.0)


def _check_sigma(sigma):
    """The noise level must be finite (NaN would pass as 0) and >= 0."""
    require_finite("sigma", sigma)
    if sigma < 0:
        raise ConfigError("sigma", f"must be >= 0, got {sigma!r}")


def _weight_blocks(label, seed, rows, cols, block_rows):
    """Projection entries i.i.d. uniform in _INIT_INTERVAL from the seeded
    `label` stream, yielded as (first row, block) `block_rows` rows at a
    time. The stream is consumed row-major, so the blocks stack to the
    same matrix whatever the block size, and each entry is
    low + (high - low) * u, bitwise what `rng.uniform` draws. Every block
    is written into one buffer, so it is valid only until the next one is
    drawn."""
    low, high = _INIT_INTERVAL
    rng = spawn_rng(seed, label)
    buf = np.empty((min(block_rows, rows), cols))
    for start in range(0, rows, block_rows):
        block = buf[:rows - start]
        rng.random(out=block)
        block *= high - low
        block += low
        yield start, block


def _add_noise(ys, xs, sigma, rng):
    """Add the fresh-noise term N @ x to projections `ys` of input(s) `xs`,
    sampled in its projected form (see the module docstring).

    The draws go into one reusable buffer a block of rows at a time, then
    are scaled and added in place. They come in the order of one
    `standard_normal(ys.shape)` call and every element sees the same
    operations, so the result is bitwise that of the one-shot form
    `ys + sigma * norms * rng.standard_normal(ys.shape)`."""
    if sigma > 0:
        # a single input's norm is a BLAS dot, a batch's a row-wise sum;
        # the two can differ in the last bit, and both results are pinned
        norms = np.linalg.norm(xs) if xs.ndim == 1 else np.linalg.norm(xs, axis=1, keepdims=True)
        scales = np.reshape(sigma * norms, (-1, 1))
        rows = ys if ys.ndim == 2 else ys[None]
        n, cols = rows.shape
        step = max(1, _BLOCK_BYTES // (8 * max(1, cols)))
        buf = np.empty((min(step, n), cols))
        for start in range(0, n, step):
            z = buf[:n - start]
            rng.standard_normal(out=z)
            z *= scales[start:start + step]
            rows[start:start + step] += z
    return ys


class IdealEncoder:
    """Fixed random projection plus fresh Gaussian matrix noise per pass."""

    __slots__ = ("weights", "sigma", "epsilon")

    def __init__(self, weights, sigma, epsilon):
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise DimensionError("weights must be 2-D (output_dim x input_dim)")
        _check_sigma(sigma)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "epsilon", float(epsilon))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def new_random(cls, input_dim, multiplier, sigma, seed):
        """D = input_dim * multiplier rows of projection entries, i.i.d.
        uniform in (-2, 2), and threshold 0 until `with_epsilon`."""
        if input_dim < 1:
            raise ConfigError("input_dim", "must be >= 1")
        if multiplier < 1:
            raise ConfigError("multiplier", "must be >= 1")
        rows = input_dim * multiplier
        _, w = next(_weight_blocks(_INIT_LABEL, seed, rows, input_dim, block_rows=rows))
        return cls(w, sigma, 0.0)

    @property
    def input_dim(self):
        return self.weights.shape[1]

    @property
    def output_dim(self):
        return self.weights.shape[0]

    def with_epsilon(self, epsilon):
        return IdealEncoder(self.weights, self.sigma, epsilon)

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise DimensionError(f"input shape {x.shape}, expected ({self.input_dim},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("input vector must be finite")
        return x

    def project(self, x, rng):
        """Pre-threshold output (W + N) x for one fresh noise draw."""
        x = self._check_input(x)
        return _add_noise(self.weights @ x, x, self.sigma, rng)

    def project_batch(self, xs, rng):
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.input_dim:
            raise DimensionError(f"input shape {xs.shape}, expected (n, {self.input_dim})")
        return _add_noise(xs @ self.weights.T, xs, self.sigma, rng)

    def encode(self, x, rng):
        return threshold_binarize(self.project(x, rng), self.epsilon)

    def encode_batch(self, xs, rng):
        return binarize_batch(self.project_batch(xs, rng), self.epsilon)


def project_streamed(x, output_dim, sigma, seed, rng):
    """Pre-threshold output of an IdealEncoder too large to materialize.

    Regenerates the projection from the same seeded stream new_random
    would use, so the result matches an in-memory encoder with identical
    parameters. The weights are drawn into one reusable buffer of about
    _BLOCK_BYTES (2 MiB), so the working memory beyond the output vector
    stays about that size whatever the input length. Blocks hold a
    multiple of 4 rows, and at least 4 (one 4-row block exceeds the
    budget for inputs above 65,536 entries): OpenBLAS's matrix-vector
    kernels work on groups of four rows and round a shorter group
    differently, so whole groups keep the output independent of the
    block size.
    """
    _check_sigma(sigma)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DimensionError("expected a nonempty 1-D input")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector must be finite")
    y = np.empty(output_dim)
    block_rows = max(4, _BLOCK_BYTES // (8 * x.size) // 4 * 4)
    for start, block in _weight_blocks(_INIT_LABEL, seed, output_dim, x.size, block_rows):
        np.matmul(block, x, out=y[start:start + len(block)])
    return _add_noise(y, x, sigma, rng)
