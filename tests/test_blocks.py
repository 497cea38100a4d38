import pytest

from hdcrypt.blocks import _BLOCK_BYTES, GEMM_ROWS, GEMV_ROWS, block_size, block_slices


def gemm_rows(width):
    """The GEMM row rule: IdealEncoder.encode_batch, fit_ridge's column
    blocks and decrypt_text."""
    return max(16, _BLOCK_BYTES // (8 * width) // 16 * 16)


def crossbar_reads(rows, cols):
    """Reads per block: read_vmm_batch and encode_crossbar_batch."""
    return max(1, _BLOCK_BYTES // (8 * rows * cols))


def noise_rows(cols):
    """Rows of noise drawn at once by the ideal encoders."""
    return max(1, _BLOCK_BYTES // (8 * max(1, cols)))


def gemv_rows(width):
    """Weight rows per block of project_streamed."""
    return max(4, _BLOCK_BYTES // (8 * width) // 4 * 4)


@pytest.mark.parametrize("width, align, rule, expected", [
    (500, GEMM_ROWS, gemm_rows(500), 512),          # text decryption at D = 500
    (3136, GEMM_ROWS, gemm_rows(3136), 80),         # a bhv image cell's encoder
    (640, GEMM_ROWS, gemm_rows(640), 400),          # test_encoder's blocked encoding
    (160, GEMM_ROWS, gemm_rows(160), 1632),         # test_decoder's dual ridge fit
    (10 * 500, 1, crossbar_reads(10, 500), 52),     # the Table-1 10x500 crossbar
    (6 * 40, 1, crossbar_reads(6, 40), 1092),       # test_crossbar's blocked reads
    (3136, 1, noise_rows(3136), 83),
    (320, 1, noise_rows(320), 819),
    (0, 1, noise_rows(0), _BLOCK_BYTES // 8),
    (4096, GEMV_ROWS, gemv_rows(4096), 64),         # a 64x64 image
    (22500, GEMV_ROWS, gemv_rows(22500), 8),        # a 150x150 image
    (70000, GEMV_ROWS, gemv_rows(70000), 4),        # one 4-row block exceeds the budget
])
def test_block_size_keeps_each_sites_rule(width, align, rule, expected):
    assert block_size(width, align) == rule == expected


@pytest.mark.parametrize("step", [1, 4, 52, 80, 512])
def test_block_slices_cover_the_range_once_in_order(step):
    for n in (0, 1, step - 1, step, 3 * step + 1):
        slices = list(block_slices(n, step))
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(0 < s.stop - s.start <= step for s in slices)
        assert all(s.stop - s.start == step for s in slices[:-1])
