"""Hyperdimensional stochastic encoding: noisy projection + threshold.

Two interchangeable backends produce the pre-threshold vector y for an
input x of length k:

* a Crossbar, where y is one noisy analog read of x, and
* IdealEncoder, where y = (W + N) x with W fixed and N a fresh Gaussian
  matrix per pass. W's entries are drawn i.i.d. uniform in the fixed
  interval (-2, 2) from a seeded stream, and the noise level sigma must
  be a finite number >= 0.

Binarization compares y against a single global threshold `epsilon`;
entries >= epsilon map to 1. The threshold is no state of either
backend: `encode_crossbar_batch(xbar, xs, epsilon, rng)` and
`IdealEncoder.encode_batch(xs, epsilon, rng)` both take it as an
argument and run one blocked project-and-threshold loop. It is
calibrated per model: `calibrate_epsilon` takes the pre-threshold
outputs of a calibration batch, read in one batched call, and returns
their median, which balances the 0/1 bit budget of the ciphertext; bits
are uint8 0s and 1s. Single-input calls are batches of one: both
backends take (n, input_dim) batches only, and `threshold_binarize`
runs the batched code on one row and returns that row.

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

from .blocks import GEMM_ROWS, GEMV_ROWS, block_size, block_slices
from .errors import DimensionError, require_batch, require_finite, require_int
from .rng import spawn_rng

__all__ = [
    "threshold_binarize",
    "binarize_batch",
    "calibrate_epsilon",
    "crossbar_pre_threshold_batch",
    "encode_crossbar_batch",
    "IdealEncoder",
]


def threshold_binarize(y, epsilon):
    """Bits of a nonempty 1-D y as uint8: 1 iff y[i] >= epsilon (ties map to 1)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise DimensionError("expected a nonempty 1-D vector")
    return binarize_batch(y[None], epsilon)[0]


def binarize_batch(ys, epsilon):
    """Threshold a (n, D) batch into a uint8 bit matrix."""
    require_finite("epsilon", epsilon)
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


def crossbar_pre_threshold_batch(xbar, xs, rng):
    """Differential crossbar reads of each row of xs: the raw column
    currents minus the current of an ideal reference column programmed
    to mid-range.

    All conductances are positive, so a raw read carries a common-mode
    term mean(G) * sum(x) shared by every column; inputs with a large
    entry sum would otherwise saturate the whole code word to all ones
    or all zeros. Sensing each column against a reference column at
    G_mid = (G_on + G_off) / 2 cancels that term exactly:
    y_j = sum_i x_i * (G_ij - G_mid).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = xbar.read_vmm_batch(xs, rng)
    ys -= xs.sum(axis=1, keepdims=True) * xbar.config.g_mid
    return ys


def _encode_blocks(project, xs, epsilon, in_dim, out_dim, step):
    """Bits of each row of the (n, in_dim) batch xs: `project` maps a block
    of rows to its (rows, out_dim) pre-threshold values, which are
    thresholded at epsilon, `step` rows at a time. Threshold and inputs are
    checked before any draw; the uint8 bits are the only array of one entry
    per output bit, and the noise stream is consumed in order."""
    require_finite("epsilon", epsilon)
    xs = require_batch(xs, in_dim)
    bits = np.empty((len(xs), out_dim), dtype=np.uint8)
    for rows in block_slices(len(xs), step):
        bits[rows] = binarize_batch(project(xs[rows]), epsilon)
    return bits


def encode_crossbar_batch(xbar, xs, epsilon, rng):
    """Encode each row of xs with fresh per-pass noise; returns (n, cols) bits.

    The reads are made and thresholded one `read_vmm_batch` block at a
    time. The bits, and the stream's final state, are bitwise those of
    `binarize_batch(crossbar_pre_threshold_batch(xbar, xs, rng), epsilon)`.
    """
    return _encode_blocks(lambda block: crossbar_pre_threshold_batch(xbar, block, rng), xs,
                          epsilon, xbar.rows, xbar.cols, block_size(xbar.rows * xbar.cols))


_INIT_INTERVAL = (-2.0, 2.0)  # every projection entry is drawn uniform in it


def _weight_blocks(label, seed, rows, cols, step):
    """Projection entries i.i.d. uniform in _INIT_INTERVAL from the seeded
    `label` stream, as (row slice, block) `step` rows at a time, each
    low + (high - low) * u, bitwise what `rng.uniform` draws. The blocks
    stack to the same matrix whatever `step` is. Every block is drawn into
    one buffer, so it is valid only until the next one is drawn."""
    low, high = _INIT_INTERVAL
    rng = spawn_rng(seed, label)
    buf = np.empty((min(step, rows), cols))
    for block in block_slices(rows, step):
        w = buf[:block.stop - block.start]
        rng.random(out=w)
        w *= high - low
        w += low
        yield block, w


def _add_noise(ys, xs, sigma, rng):
    """Add the fresh-noise term N @ x to projections `ys` of input(s) `xs`,
    sampled in its projected form (see the module docstring).

    The draws are made into one buffer a block of rows at a time, in the
    order of one `standard_normal(ys.shape)` call, and scaled and added in
    place, so the result is bitwise that of the one-shot form
    `ys + sigma * norms * rng.standard_normal(ys.shape)`."""
    if sigma > 0:
        # a single input's norm is a BLAS dot, a batch's a row-wise sum;
        # the two can differ in the last bit, and both results are pinned
        norms = np.linalg.norm(xs) if xs.ndim == 1 else np.linalg.norm(xs, axis=1, keepdims=True)
        scales = np.reshape(sigma * norms, (-1, 1))
        rows = ys if ys.ndim == 2 else ys[None]
        n, cols = rows.shape
        step = block_size(cols)
        buf = np.empty((min(step, n), cols))
        for block in block_slices(n, step):
            z = buf[:block.stop - block.start]
            rng.standard_normal(out=z)
            z *= scales[block]
            rows[block] += z
    return ys


class IdealEncoder:
    """Fixed random projection plus fresh Gaussian matrix noise per pass."""

    __slots__ = ("weights", "sigma")
    _INIT_LABEL = "ideal-encoder-init"  # new_random's seeded stream

    def __init__(self, weights, sigma):
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise DimensionError("weights must be 2-D (output_dim x input_dim)")
        require_finite("sigma", sigma, low=0)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma", float(sigma))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def new_random(cls, input_dim, multiplier, sigma, seed):
        """D = input_dim * multiplier rows of projection entries, i.i.d.
        uniform in (-2, 2)."""
        require_int("input_dim", input_dim, low=1)
        require_int("multiplier", multiplier, low=1)
        return cls(cls._seeded_weights(seed, input_dim * multiplier, input_dim), sigma)

    @classmethod
    def _seeded_weights(cls, seed, rows, cols):
        """The rows x cols projection drawn from the class's seeded stream."""
        return next(_weight_blocks(cls._INIT_LABEL, seed, rows, cols, rows))[1]

    @property
    def input_dim(self):
        return self.weights.shape[1]

    @property
    def output_dim(self):
        return self.weights.shape[0]

    def project_batch(self, xs, rng):
        """Pre-threshold output (W + N) x of each row x, each with fresh noise."""
        xs = require_batch(xs, self.input_dim)
        return _add_noise(xs @ self.weights.T, xs, self.sigma, rng)

    def encode_batch(self, xs, epsilon, rng):
        """Encode each row of xs with fresh per-pass noise; returns (n, D) bits.

        Each GEMM-aligned block of rows (80 at D = 3,136) is projected,
        given its noise and thresholded in turn. The bits, and the stream's
        final state, are those of
        `binarize_batch(self.project_batch(xs, rng), epsilon)` wherever the
        BLAS computes such row blocks bitwise as rows of one product.
        OpenBLAS did at each D a multiple of 8 that was tried, the image
        cells' case; at D = 300 a value can differ in its last bit, which
        flips a bit only at a value within rounding of epsilon.
        """
        def project(block):
            return _add_noise(block @ self.weights.T, block, self.sigma, rng)
        return _encode_blocks(project, xs, epsilon, self.input_dim, self.output_dim,
                              block_size(self.output_dim, GEMM_ROWS))


def project_streamed(x, output_dim, sigma, seed, rng):
    """Pre-threshold output of an IdealEncoder too large to materialize.

    Regenerates the projection from the same seeded stream new_random
    would use, so the result matches an in-memory encoder with identical
    parameters. The weights are drawn one GEMV-aligned block at a time
    into one buffer, so the working memory beyond the output vector stays
    about a block (4 rows past 65,536 inputs) whatever the input length.
    """
    require_finite("sigma", sigma, low=0)
    if np.ndim(x) != 1 or np.size(x) == 0:
        raise DimensionError("expected a nonempty 1-D input")
    x = require_batch([x], len(x))[0]
    y = np.empty(output_dim)
    step = block_size(x.size, GEMV_ROWS)
    for rows, block in _weight_blocks(IdealEncoder._INIT_LABEL, seed, output_dim, x.size, step):
        np.matmul(block, x, out=y[rows])
    return _add_noise(y, x, sigma, rng)
