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
runs the batched code on one row and returns that row. IdealEncoder's
`repeats` encodes each row several times, as the rows of
np.tile(xs, (repeats, 1)), with one projection per distinct row.

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


def _encode_blocks(blocks, xs, epsilon, in_dim, out_dim, repeats=1):
    """Bits of each row of np.tile(xs, (repeats, 1)) for the (n, in_dim)
    batch xs: `blocks(xs)` yields (row slice, pre-threshold values) pairs
    over those rows in order, which are thresholded at epsilon. Threshold,
    inputs and repeats are checked before any draw; the uint8 bits are the
    only array of one entry per output bit, and the noise stream is
    consumed in order."""
    require_finite("epsilon", epsilon)
    xs = require_batch(xs, in_dim)
    require_int("repeats", repeats, low=1)
    bits = np.empty((len(xs) * repeats, out_dim), dtype=np.uint8)
    for rows, ys in blocks(xs):
        bits[rows] = binarize_batch(ys, epsilon)
    return bits


def encode_crossbar_batch(xbar, xs, epsilon, rng):
    """Encode each row of xs with fresh per-pass noise; returns (n, cols) bits.

    The reads are made and thresholded one `read_vmm_batch` block at a
    time. The bits, and the stream's final state, are bitwise those of
    `binarize_batch(crossbar_pre_threshold_batch(xbar, xs, rng), epsilon)`.
    """
    step = block_size(xbar.rows * xbar.cols)

    def reads(xs):
        for rows in block_slices(len(xs), step):
            yield rows, crossbar_pre_threshold_batch(xbar, xs[rows], rng)
    return _encode_blocks(reads, xs, epsilon, xbar.rows, xbar.cols)


_INIT_INTERVAL = (-2.0, 2.0)  # every projection entry is drawn uniform in it


def _add_noise(ys, norms, sigma, rng):
    """Add the fresh-noise term N @ x to projections `ys` of inputs of
    Euclidean norms `norms` (one per row of ys, or one for a 1-D ys),
    sampled in its projected form (see the module docstring).

    The draws are made into one buffer a block of rows at a time, in the
    order of one `standard_normal(ys.shape)` call, and scaled and added in
    place, so the result is bitwise that of the one-shot form
    `ys + sigma * norms * rng.standard_normal(ys.shape)`."""
    if sigma > 0:
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
        return spawn_rng(seed, cls._INIT_LABEL).uniform(*_INIT_INTERVAL, (rows, cols))

    @property
    def input_dim(self):
        return self.weights.shape[1]

    @property
    def output_dim(self):
        return self.weights.shape[0]

    def _noisy_blocks(self, xs, rng, repeats):
        """(row slice, pre-threshold values (W + N) x) over the rows x of
        np.tile(xs, (repeats, 1)), one GEMM-aligned block of rows (80 at
        D = 3,136) at a time, the noise drawn in row order. Each distinct
        row is projected once, in the block of its first copy; with
        repeats > 1 the (n, D) projections are held for the later copies,
        at repeats = 1 nothing is."""
        n, weights = len(xs), self.weights
        norms = np.linalg.norm(xs, axis=1)
        held = np.empty((n, self.output_dim)) if repeats > 1 else None
        for rows in block_slices(n * repeats, block_size(self.output_dim, GEMM_ROWS)):
            idx = np.arange(rows.start, rows.stop) % n
            if held is None:
                ys = xs[rows] @ weights.T
            else:   # first-copy rows are projected; every copy reads them back
                first = slice(rows.start, min(rows.stop, n))    # empty past the first copy
                np.matmul(xs[first], weights.T, out=held[first])
                ys = held[idx]
            yield rows, _add_noise(ys, norms[idx], self.sigma, rng)

    def project_batch(self, xs, rng, repeats=1):
        """Pre-threshold output (W + N) x of each row x of
        np.tile(xs, (repeats, 1)), each with fresh noise; each distinct
        row's W x is computed once."""
        xs = require_batch(xs, self.input_dim)
        require_int("repeats", repeats, low=1)
        out = np.empty((len(xs) * repeats, self.output_dim))
        for rows, ys in self._noisy_blocks(xs, rng, repeats):
            out[rows] = ys
        return out

    def encode_batch(self, xs, epsilon, rng, repeats=1):
        """Encode each row of np.tile(xs, (repeats, 1)) with fresh per-pass
        noise; returns (n * repeats, D) bits.

        project_batch's blocks are thresholded in turn, so the bits, and the
        stream's final state, are those of
        `binarize_batch(self.project_batch(xs, rng, repeats), epsilon)`;
        they are the tiled batch's at repeats = 1 wherever the BLAS computes
        GEMM row blocks bitwise as rows of one product. OpenBLAS did at each
        D a multiple of 8 that was tried, the image cells' case; at D = 300
        a value can differ in its last bit, which flips a bit only at a
        value within rounding of epsilon.
        """
        return _encode_blocks(lambda xs: self._noisy_blocks(xs, rng, repeats), xs, epsilon,
                              self.input_dim, self.output_dim, repeats)


def project_streamed(x, output_dim, sigma, seed, rng):
    """Pre-threshold output of an IdealEncoder too large to materialize.

    Regenerates the projection from the same seeded stream new_random
    would use, so the result matches an in-memory encoder with identical
    parameters. The uniform draws u are made one GEMV-aligned block at a
    time into one buffer, so the working memory beyond the output vector
    stays about a block (4 rows past 65,536 inputs) whatever the input
    length. _INIT_INTERVAL is symmetric about 0, so each weight
    low + (high - low) * u is exactly (high - low) * (u - 0.5): a block
    gets one in-place subtraction before its GEMV, and the output one
    scaling by high - low = 4, which, a power of two, is exact too.
    """
    require_finite("sigma", sigma, low=0)
    if np.ndim(x) != 1 or np.size(x) == 0:
        raise DimensionError("expected a nonempty 1-D input")
    x = require_batch([x], len(x))[0]
    low, high = _INIT_INTERVAL
    weights_rng = spawn_rng(seed, IdealEncoder._INIT_LABEL)
    y = np.empty(output_dim)
    step = block_size(x.size, GEMV_ROWS)
    buf = np.empty((min(step, output_dim), x.size))
    for rows in block_slices(output_dim, step):
        u = buf[:rows.stop - rows.start]
        weights_rng.random(out=u)
        u -= 0.5
        np.matmul(u, x, out=y[rows])
    y *= high - low
    # one input's norm is a BLAS dot, a batch's (_noisy_blocks) a row-wise
    # sum; the two can differ in the last bit, and both results are pinned
    return _add_noise(y, np.linalg.norm(x), sigma, rng)
