"""The BLAS property behind the blocked encoder, decoder and decryption.

`IdealEncoder.encode_batch`, decoder inference, `decoder.fit_ridge`'s
dual fit and `textcrypto.decrypt_text` compute one large matrix product
a block at a time, taking their slices from `blocks.block_slices` at GEMM_ROWS
alignment: row blocks that start at multiples of 16, or blocks of 16k
output columns. Each test below iterates those same slices. Their outputs
are bitwise those of the one-product forms only because the BLAS
computes every output entry the same way whatever the block. OpenBLAS
does so at these shapes (13- or 83-row blocks, and blocks of 242
columns, do not). A BLAS build that breaks it fails here first, naming
the shape, rather than as a last-bit drift in the seeded outputs.
"""

import numpy as np
import pytest

from hdcrypt.blocks import GEMM_ROWS, block_size, block_slices
from hdcrypt.decoder import _affine
from hdcrypt.rng import spawn_rng


@pytest.mark.parametrize("n, k, D", [
    (1080, 784, 3136),      # a bhv image cell's training batch at m = 4
    (937, 32, 640),         # test_encoder's blocked-encoding shape
], ids=["bhv-cell", "encoder-test"])
def test_blas_row_blocks_at_multiples_of_16_reproduce_the_one_product(n, k, D):
    rng = spawn_rng(1, f"rows-{n}x{k}x{D}")
    xs, W = rng.uniform(0, 1, (n, k)), rng.uniform(-2, 2, (D, k))
    whole = xs @ W.T
    for rows in block_slices(n, block_size(D, GEMM_ROWS)):
        assert np.array_equal(xs[rows] @ W.T, whole[rows]), rows.start


@pytest.mark.parametrize("n, d, k", [
    (1080, 3136, 784),      # a bhv image cell's dual ridge fit
    (160, 3364, 3),         # test_decoder's blocked dual fit
], ids=["bhv-cell", "ridge-test"])
def test_blas_output_column_blocks_reproduce_the_one_product(n, d, k):
    rng = spawn_rng(2, f"cols-{n}x{d}x{k}")
    X, M = rng.integers(0, 2, (n, d)).astype(np.uint8), rng.normal(size=(n, k))
    x_mean = X.mean(axis=0)
    whole = M.T @ (X - x_mean)
    for cols in block_slices(d, block_size(n, GEMM_ROWS)):
        assert np.array_equal(M.T @ (X[:, cols] - x_mean[cols]), whole[:, cols]), cols.start


def test_blas_decryption_chunks_reproduce_the_one_product_logits():
    # a 94-class text decoder on 500-bit blocks, 512 blocks per chunk
    rng = spawn_rng(3, "logits")
    W, b = rng.normal(size=(94, 500)), rng.normal(size=94)
    X = rng.integers(0, 2, (8000, 500)).astype(np.float64)
    whole = _affine(W, b, X)
    for rows in block_slices(len(X), block_size(500, GEMM_ROWS)):
        chunk = np.ascontiguousarray(X[rows])
        assert np.array_equal(_affine(W, b, chunk), whole[rows]), rows.start


def test_blas_image_head_row_blocks_reproduce_the_one_product():
    # a bhv image cell's forward_batch: 100 test images at m = 4 through a
    # 3,136 -> 784 regression head, the one inference shape that splits
    rng = spawn_rng(4, "image-head")
    W, b = rng.normal(size=(784, 3136)), rng.normal(size=784)
    X = rng.integers(0, 2, (100, 3136)).astype(np.float64)
    whole = _affine(W, b, X)
    step = block_size(3136, GEMM_ROWS)
    assert step == 80
    for rows in block_slices(len(X), step):
        assert np.array_equal(_affine(W, b, X[rows]), whole[rows]), rows.start
