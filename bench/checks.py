"""Correctness checks computed apart from hdcrypt.

Each check returns None when the output passes and a one-line reason
when it does not. The reference values come from numpy, scipy and the
standard library alone, or from properties the method must have; none
is a stored copy of an earlier run's output.
"""

import struct

import numpy as np
from scipy.stats import norm

# Acceptance thresholds of the workloads.
MIN_TEXT_ACCURACY = 0.995
ONES_FRACTION_TOLERANCE = 0.01
MIN_DISTINCT_FRACTION = 0.95
READ_MEAN_MAX_Z = 5.5  # per column; 500 columns give a false alarm below 1e-5
MAX_CIPHER_CORRELATION = 0.05
MIN_PLAIN_CORRELATION = 0.5

DIRECTIONS = ("horizontal", "vertical", "diagonal")


def text_accuracy(accuracy):
    if not accuracy >= MIN_TEXT_ACCURACY:
        return f"test accuracy {accuracy} below {MIN_TEXT_ACCURACY}"
    return None


def ones_fraction(bits):
    frac = float(np.mean(bits))
    if not abs(frac - 0.5) <= ONES_FRACTION_TOLERANCE:
        return f"ciphertext ones-fraction {frac:.4f} outside 0.5 +- {ONES_FRACTION_TOLERANCE}"
    return None


def distinct_fraction(frac):
    if not frac >= MIN_DISTINCT_FRACTION:
        return f"uniqueness distinct fraction {frac} below {MIN_DISTINCT_FRACTION}"
    return None


def clamped_normal_moments(mu, s, lo, hi):
    """Mean and variance of clip(mu + N(0, s^2), lo, hi), elementwise."""
    a = (lo - mu) / s
    b = (hi - mu) / s
    pa, pb = norm.cdf(a), norm.cdf(b)
    da, db = norm.pdf(a), norm.pdf(b)
    inside = pb - pa
    mean = lo * pa + hi * (1 - pb) + mu * inside + s * (da - db)
    second = (lo * lo * pa + hi * hi * (1 - pb)
              + mu * mu * inside + 2 * mu * s * (da - db)
              + s * s * (inside + a * da - b * db))
    return mean, np.maximum(second - mean * mean, 0.0)


def noisy_read_mean(reads, v, g_target, free, noise_std, g_off, g_on):
    """Mean of differential reads of one key vector against its expectation.

    `reads` is (n, cols): n reads of sum_i v_i (G_eff_ij - G_mid). Free
    cells read clip(G_ij + N(0, s^2)); stuck cells read G_ij exactly.
    Every column's sample mean must lie within READ_MEAN_MAX_Z standard
    errors of sum_i v_i (E[G_eff_ij] - G_mid).
    """
    g_mid = 0.5 * (g_on + g_off)
    cell_mean, cell_var = clamped_normal_moments(g_target, noise_std, g_off, g_on)
    cell_mean = np.where(free, cell_mean, g_target)
    cell_var = np.where(free, cell_var, 0.0)
    expected = v @ (cell_mean - g_mid)
    std_err = np.sqrt((v * v) @ cell_var / len(reads))
    z = np.abs(reads.mean(axis=0) - expected) / std_err
    worst = int(np.argmax(z))
    if not z[worst] <= READ_MEAN_MAX_Z:
        return (f"noisy-read mean of column {worst} is {z[worst]:.1f} standard errors "
                f"from its expectation (limit {READ_MEAN_MAX_Z})")
    return None


def parse_hlct(data):
    """(dim, bits) of an HLCT file: magic, u64 count, u64 dim, packed rows."""
    magic, count, dim = struct.unpack_from("<4sQQ", data, 0)
    if magic != b"HLCT":
        raise ValueError(f"bad magic {magic!r}")
    block = (dim + 7) // 8
    payload = np.frombuffer(data, dtype=np.uint8, count=count * block, offset=20)
    bits = np.unpackbits(payload.reshape(count, block), axis=1, bitorder="little")
    return dim, bits[:, :dim]


def hlct_size(data, n_chars, dim):
    expected = 20 + n_chars * ((dim + 7) // 8)
    if len(data) != expected:
        return (f"HLCT file has {len(data)} bytes, "
                f"expected 20 + {n_chars}*ceil({dim}/8) = {expected}")
    return None


def hlct_bits(data, bit_matrix):
    _, bits = parse_hlct(data)
    if bits.shape != np.shape(bit_matrix) or not np.array_equal(bits, bit_matrix):
        return "CipherText.bit_matrix differs from the independent HLCT parse"
    return None


def misdecrypted(plaintext, decrypted):
    """Characters of the plaintext the round trip changed."""
    wrong = sum(a != b for a, b in zip(plaintext, decrypted))
    return wrong + abs(len(plaintext) - len(decrypted))


def round_trip_accuracy(plaintext, decrypted):
    """The round trip must keep the share of characters the text cells must.

    Not exact equality: the decoder misreads a noisy block now and then
    (about one character in 10^5 on the benchmark's row), so whether a
    message comes back whole depends on the seed.
    """
    return text_accuracy(1.0 - misdecrypted(plaintext, decrypted) / len(plaintext))


def argmax_decryption(data, model_doc, decrypted):
    """Each decrypted character must be the argmax class of the model's
    JSON weights and bias applied to the independently parsed HLCT bits
    (up to rounding between equal logits)."""
    _, bits = parse_hlct(data)
    weights = np.asarray(model_doc["weights"], dtype=np.float64).reshape(
        model_doc["out_dim"], model_doc["in_dim"])
    logits = bits @ weights.T + np.asarray(model_doc["bias"], dtype=np.float64)
    if len(decrypted) != len(logits):
        return f"decrypted {len(decrypted)} characters from {len(logits)} blocks"
    classes = np.frombuffer(decrypted.encode("latin-1"), dtype=np.uint8).astype(np.int64) - 32
    if classes.min() < 0 or classes.max() >= logits.shape[1]:
        return "decrypted text holds a character outside the 94-character set"
    top = logits.max(axis=1)
    chosen = logits[np.arange(len(logits)), classes]
    wrong = np.flatnonzero(chosen < top - 1e-9 * (1.0 + np.abs(top)))
    if wrong.size:
        return (f"decrypted character {wrong[0]} is not the model's argmax class "
                f"({wrong.size} of {len(logits)} differ)")
    return None


def fresh_ciphertext(first, second):
    if first == second:
        return "two encryptions of one message under different seeds are identical"
    return None


def mean_image_rmse(train_images, test_images):
    """RMSE of predicting every test image as the training-mean image."""
    mean = np.asarray(train_images, dtype=np.float64).mean(axis=0)
    return float(np.sqrt(np.mean((np.asarray(test_images, dtype=np.float64) - mean) ** 2)))


def beats_mean_image(pipeline, rmse, baseline):
    if not rmse < baseline:
        return f"{pipeline} RMSE {rmse:.5f} not below the mean-image RMSE {baseline:.5f}"
    return None


def adjacent_correlations(plane):
    """np.corrcoef of horizontally, vertically and diagonally adjacent pixels."""
    p = np.asarray(plane, dtype=np.float64)
    pairs = {
        "horizontal": (p[:, :-1], p[:, 1:]),
        "vertical": (p[:-1, :], p[1:, :]),
        "diagonal": (p[:-1, :-1], p[1:, 1:]),
    }
    return {d: float(np.corrcoef(a.ravel(), b.ravel())[0, 1]) for d, (a, b) in pairs.items()}


def decorrelated(cipher_plane, plain_pixels):
    cipher = adjacent_correlations(cipher_plane)
    plain = adjacent_correlations(plain_pixels)
    for d in DIRECTIONS:
        if not abs(cipher[d]) < MAX_CIPHER_CORRELATION:
            return f"ciphertext {d} correlation {cipher[d]:.4f} not below {MAX_CIPHER_CORRELATION}"
        if not plain[d] > MIN_PLAIN_CORRELATION:
            return f"original {d} correlation {plain[d]:.4f} not above {MIN_PLAIN_CORRELATION}"
    return None
