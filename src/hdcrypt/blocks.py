"""Block sizes for every blocked loop in hdcrypt.

Crossbar reads, both encoders, decoder inference and validation losses,
the ridge fit and decryption work a block of rows (or columns) at a
time. A block holds as many rows of float64 values as fit in
_BLOCK_BYTES (2 MiB), so its noise draws, scaling and clamp stay in
cache and its float64 intermediates are the only ones alive, whatever
the batch size. The count is rounded down to a multiple of the loop's
alignment, and is at least one alignment:

* GEMM_ROWS = 16: OpenBLAS computes matrix-product row blocks that start
  at multiples of 16, and blocks of 16k output columns, bitwise as parts
  of the one product at the shapes tests/test_blas.py pins (13- or
  83-row blocks are not);
* GEMV_ROWS = 4: its matrix-vector kernels work on groups of four rows
  and round a shorter group differently, so whole groups keep the output
  independent of the block size;
* 1, where each row is computed on its own, as a read or a draw is.
"""

__all__ = ["GEMM_ROWS", "GEMV_ROWS", "block_size", "block_slices"]

_BLOCK_BYTES = 2 << 20
GEMM_ROWS = 16
GEMV_ROWS = 4


def block_size(width, align=1):
    """Rows of `width` float64 values in one block."""
    return max(align, _BLOCK_BYTES // (8 * max(1, width)) // align * align)


def block_slices(n, step):
    """Slices over range(n), `step` at a time, in order."""
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))
