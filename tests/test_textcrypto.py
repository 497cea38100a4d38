import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt.crossbar import Crossbar, CrossbarConfig
from hdcrypt.decoder import HEAD_SOFTMAX, LinearDecoder
from hdcrypt.encoder import encode_crossbar_batch
from hdcrypt.errors import CharsetError, ConfigError, DataFormatError, DimensionError
from hdcrypt.rng import spawn_rng
from hdcrypt.textcrypto import (CHARSET, NUM_CLASSES, CipherText,
                                SecretKeyTable, build_dataset, decrypt_text,
                                encrypt_text, evaluate_accuracy, text_to_classes,
                                uniqueness_stats)


def test_charset_is_94_classes_without_tilde():
    assert NUM_CLASSES == 94
    assert len(CHARSET) == 94
    assert CHARSET[0] == " " and CHARSET[-1] == "}"
    assert "~" not in CHARSET


def test_char_class_mapping_roundtrip():
    classes = text_to_classes(CHARSET)
    assert classes.dtype == np.int64
    assert classes.tolist() == list(range(NUM_CLASSES))
    assert "".join(CHARSET[c] for c in classes) == CHARSET
    with pytest.raises(CharsetError) as excinfo:
        text_to_classes("abcde~f\x7f")
    assert excinfo.value.index == 5 and excinfo.value.char == "~"


@pytest.mark.parametrize("text, index", [("ab\u00e9", 2), ("a\ud800b", 1), ("\U0001f600", 0),
                                         ("ok\n", 2)],
                         ids=["latin-1", "lone-surrogate", "astral", "control"])
def test_text_to_classes_rejects_code_points_outside_charset(text, index):
    with pytest.raises(CharsetError) as excinfo:
        text_to_classes(text)
    assert excinfo.value.index == index and excinfo.value.char == text[index]


def test_keys_same_seed_identical():
    a = SecretKeyTable.new_random(8, 42)
    b = SecretKeyTable.new_random(8, 42)
    assert np.array_equal(a.vectors, b.vectors)
    c = SecretKeyTable.new_random(8, 43)
    assert not np.array_equal(a.vectors, c.vectors)


def test_keys_match_uniform_moments():
    # moment oracle for U(-1, 1): mean 0, variance 1/3
    table = SecretKeyTable.new_random(110, 7)   # ~10^4 entries
    entries = table.vectors.ravel()
    assert entries.size >= 10_000
    assert abs(entries.mean()) < 0.02
    assert abs(entries.var() - 1 / 3) < 0.02
    assert entries.min() >= -1 and entries.max() <= 1


def test_keys_ten_dimensional_table():
    table = SecretKeyTable.new_random(10, 3)
    assert table.vectors.shape == (94, 10)
    assert len(np.unique(table.vectors, axis=0)) == 94


def test_keys_json_roundtrip(tmp_path):
    table = SecretKeyTable.new_random(5, 17)
    path = tmp_path / "keys.json"
    table.save(path)
    loaded = SecretKeyTable.load(path)
    assert loaded.key_dim == 5 and loaded.seed == 17
    assert np.array_equal(loaded.vectors, table.vectors)


def test_keys_json_rejects_missing_char(saved_document):
    path, doc = saved_document(SecretKeyTable.new_random(3, 1).save)
    del doc["vectors"]["A"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError):
        SecretKeyTable.load(path)


def _system(sigma=0.0, p=0.0, rows=6, cols=48, seed=9):
    cfg = CrossbarConfig(rows=rows, cols=cols, r_lrs=1e3, r_hrs=1e4,
                         sigma_frac=sigma, p_stuck_on=p, p_stuck_off=p, seed=seed)
    return Crossbar.new_random(cfg), SecretKeyTable.new_random(rows, seed + 1)


def test_encrypt_empty_string():
    xbar, keys = _system()
    ct = encrypt_text("", keys, xbar, 0.0, spawn_rng(0, "e"))
    assert len(ct) == 0


def test_encrypt_noiseless_repeated_char_identical_blocks():
    xbar, keys = _system()
    ct = encrypt_text("AA", keys, xbar, 0.0, spawn_rng(1, "e"))
    assert np.array_equal(ct.packed[0], ct.packed[1])


def test_encrypt_noisy_repeats_differ():
    xbar, keys = _system(sigma=0.1, rows=10, cols=500)
    text = "A" * 200
    ct = encrypt_text(text, keys, xbar, 0.0, spawn_rng(2, "e"))
    assert len({row.tobytes() for row in ct.packed}) > 150


def test_encrypt_seeded_message_bytes_are_pinned():
    # 200 characters are four noise blocks of a 10x500 crossbar; the digest
    # pins the HLCT bytes, so any change to the reads, their order or the
    # threshold shows here
    xbar, keys = _system(sigma=0.1, p=0.02, rows=10, cols=500, seed=31)
    ct = encrypt_text((CHARSET * 3)[:200], keys, xbar, 0.0, spawn_rng(33, "e"))
    data = ct.to_bytes()
    assert len(data) == 20 + 200 * 63     # header, then 63 bytes per 500-bit block
    assert hashlib.blake2b(data, digest_size=16).hexdigest() == \
        "e86b449e754277988cccf1a675721855"


def test_encrypt_rejects_out_of_charset():
    xbar, keys = _system()
    with pytest.raises(CharsetError) as excinfo:
        encrypt_text("ok\ttab", keys, xbar, 0.0, spawn_rng(3, "e"))
    assert excinfo.value.index == 2


def test_encrypt_key_dim_mismatch():
    xbar, _ = _system(rows=6)
    keys = SecretKeyTable.new_random(5, 4)
    with pytest.raises(DimensionError):
        encrypt_text("A", keys, xbar, 0.0, spawn_rng(4, "e"))


def test_decrypt_roundtrip_noiseless(noiseless_system):
    s = noiseless_system
    text = "The quick brown fox jumps over 13 lazy dogs!"
    ct = encrypt_text(text, s["keys"], s["xbar"], s["epsilon"], spawn_rng(5, "e"))
    assert decrypt_text(ct, s["model"]) == text


def test_decrypt_roundtrip_full_charset(noiseless_system):
    s = noiseless_system
    ct = encrypt_text(CHARSET, s["keys"], s["xbar"], s["epsilon"],
                      spawn_rng(15, "e"))
    assert decrypt_text(ct, s["model"]) == CHARSET


def test_decrypt_empty(noiseless_system):
    in_dim = noiseless_system["model"].in_dim
    ct = CipherText(in_dim, np.zeros((0, (in_dim + 7) // 8), dtype=np.uint8))
    assert decrypt_text(ct, noiseless_system["model"]) == ""


def test_decrypt_blocks_independent(noiseless_system):
    s = noiseless_system
    text = "abcXYZ"
    ct = encrypt_text(text, s["keys"], s["xbar"], s["epsilon"], spawn_rng(6, "e"))
    whole = decrypt_text(ct, s["model"])
    for i, row in enumerate(ct.packed):
        single = decrypt_text(CipherText(ct.dim, row[None]), s["model"])
        assert single == whole[i]


def test_chunked_decryption_is_the_whole_argmax_within_bounded_memory(noisy_system):
    s = noisy_system
    classes = spawn_rng(16, "chars").integers(0, NUM_CLASSES, 20_000)
    text = "".join(CHARSET[c] for c in classes)
    ct = encrypt_text(text, s["keys"], s["xbar"], s["epsilon"], spawn_rng(17, "e"))
    # oracle: every block unpacked at once, one argmax over all of them
    expected = (s["model"].predict_classes(ct.bit_matrix()) + 32).astype(np.uint8)
    tracemalloc.start()
    try:
        got = decrypt_text(ct, s["model"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected.tobytes().decode("ascii")
    # the unpacked bits of every block would be len * dim bytes, widened
    # to float64 eight times that
    assert peak <= len(ct) * ct.dim + (8 << 20)


def test_noisy_roundtrip_accuracy(noisy_system):
    assert noisy_system["accuracy"] >= 0.98


def test_build_dataset_shapes_and_labels():
    xbar, keys = _system()
    X, y = build_dataset(10, keys, xbar, 0.0, spawn_rng(7, "d"))
    assert X.shape == (10, 48) and X.dtype == np.uint8
    assert y.shape == (10,)
    assert y.min() >= 0 and y.max() < 94


def test_build_dataset_class_frequencies_multinomial():
    xbar, keys = _system(rows=3, cols=6)
    n = 100_000
    _, y = build_dataset(n, keys, xbar, 0.0, spawn_rng(8, "d"))
    counts = np.bincount(y, minlength=94)
    expected = n / 94
    # multinomial oracle: 3 sigma around n/94 per class
    sigma = np.sqrt(n * (1 / 94) * (1 - 1 / 94))
    assert np.all(np.abs(counts - expected) < 3.5 * sigma)


def test_uniqueness_noiseless_collapses():
    xbar, keys = _system()
    stats = uniqueness_stats("Q", 200, keys, xbar, 0.0, spawn_rng(9, "u"))
    assert stats.distinct_fraction == pytest.approx(1 / 200)
    assert stats.mean_pairwise_hamming == 0.0


def test_uniqueness_matches_naive_oracle():
    xbar, keys = _system(sigma=0.2, rows=5, cols=40, seed=21)
    n_passes = 40
    stats = uniqueness_stats("k", n_passes, keys, xbar, 1e-5, spawn_rng(10, "u"))
    # oracle: re-encode with the same stream, then nested-loop comparisons
    rng = spawn_rng(10, "u")
    hvs = [encode_crossbar_batch(xbar, keys.vectors[CHARSET.index("k")][None], 1e-5, rng)[0]
           for _ in range(n_passes)]
    distinct = len({hv.tobytes() for hv in hvs})
    total = 0
    pairs = 0
    for i in range(n_passes):
        for j in range(i + 1, n_passes):
            total += int(np.count_nonzero(hvs[i] != hvs[j]))
            pairs += 1
    assert stats.distinct_fraction == pytest.approx(distinct / n_passes)
    assert stats.mean_pairwise_hamming == pytest.approx(total / pairs / 40)


def test_uniqueness_needs_two_passes():
    xbar, keys = _system()
    with pytest.raises(ConfigError, match=r"^n_passes: "):
        uniqueness_stats("A", 1, keys, xbar, 0.0, spawn_rng(11, "u"))


@pytest.mark.parametrize("char", ["", "AB"], ids=["empty", "two"])
def test_uniqueness_needs_one_character(char):
    xbar, keys = _system()
    with pytest.raises(DimensionError):
        uniqueness_stats(char, 2, keys, xbar, 0.0, spawn_rng(11, "u"))


def test_evaluate_accuracy_constant_model():
    xbar, keys = _system(rows=4, cols=10)
    X, y = build_dataset(20_000, keys, xbar, 0.0, spawn_rng(12, "d"))
    bias = np.zeros(94)
    bias[0] = 10.0
    always_zero = LinearDecoder(np.zeros((94, 10)), bias, HEAD_SOFTMAX)
    acc = evaluate_accuracy(always_zero, (X, y))
    assert acc == pytest.approx(1 / 94, abs=0.004)


@pytest.mark.parametrize("labels", [
    np.zeros(1, dtype=np.int64),                # would broadcast against 200 predictions
    np.zeros(200),                              # float class indices
    np.full(200, 500),
    np.full(200, -3),
    np.zeros(199, dtype=np.int64),
], ids=["one-label", "float", "above-range", "negative", "short"])
def test_evaluate_accuracy_rejects_bad_labels(labels):
    model = LinearDecoder(np.zeros((94, 10)), np.zeros(94), HEAD_SOFTMAX)
    X = spawn_rng(14, "acc").integers(0, 2, size=(200, 10)).astype(np.uint8)
    with pytest.raises(DimensionError, match="test labels"):
        evaluate_accuracy(model, (X, labels))


def test_ciphertext_wire_roundtrip(tmp_path):
    xbar, keys = _system(sigma=0.05, rows=4, cols=31, seed=30)
    ct = encrypt_text("Hello, World!", keys, xbar, 0.0, spawn_rng(13, "e"))
    blob = ct.to_bytes()
    assert blob[:4] == b"HLCT"
    parsed = CipherText.from_bytes(blob)
    assert parsed == ct
    path = tmp_path / "msg.hlct"
    ct.save(path)
    assert CipherText.load(path) == ct


def test_ciphertext_empty_roundtrip():
    ct = CipherText(16, np.zeros((0, 2), dtype=np.uint8))
    assert CipherText.from_bytes(ct.to_bytes()) == ct


def test_ciphertext_truncated_final_block_offset():
    xbar, keys = _system(rows=4, cols=64, seed=31)
    ct = encrypt_text("abc", keys, xbar, 0.0, spawn_rng(14, "e"))
    blob = ct.to_bytes()
    with pytest.raises(DataFormatError) as excinfo:
        CipherText.from_bytes(blob[:-1])
    # data ends inside the third block: offset points at its start
    assert excinfo.value.offset == 20 + 2 * 8


def test_ciphertext_bad_magic():
    with pytest.raises(DataFormatError) as excinfo:
        CipherText.from_bytes(b"NOPE" + b"\x00" * 16)
    assert excinfo.value.offset == 0


def test_ciphertext_bytes_match_per_block_payloads():
    xbar, keys = _system(sigma=0.1, rows=5, cols=45, seed=32)
    text = "Per-block oracle, 45 bits a block!"
    blob = encrypt_text(text, keys, xbar, 0.0, spawn_rng(16, "e")).to_bytes()
    # oracle: the same reads, packed one block at a time
    classes = [CHARSET.index(ch) for ch in text]
    bits = encode_crossbar_batch(xbar, keys.vectors[classes], 0.0, spawn_rng(16, "e"))
    header = b"HLCT" + len(text).to_bytes(8, "little") + (45).to_bytes(8, "little")
    payload = b"".join(np.packbits(row, bitorder="little").tobytes() for row in bits)
    assert blob == header + payload


def test_ciphertext_padding_bits_name_byte_offset():
    # one block of dim 95: 12 payload bytes, bit 95 set in the last one
    blob = (b"HLCT" + (1).to_bytes(8, "little") + (95).to_bytes(8, "little")
            + b"\x00" * 11 + b"\x80")
    with pytest.raises(DataFormatError) as excinfo:
        CipherText.from_bytes(blob)
    assert excinfo.value.offset == 20 + 12 - 1


def test_ciphertext_equality_hash_and_immutability():
    xbar, keys = _system(sigma=0.1, rows=4, cols=21, seed=33)
    ct = encrypt_text("abc", keys, xbar, 0.0, spawn_rng(17, "e"))
    same = CipherText.from_bytes(ct.to_bytes())
    other = encrypt_text("abc", keys, xbar, 0.0, spawn_rng(18, "e"))
    assert ct == same and hash(ct) == hash(same)
    assert ct != other and ct != ct.to_bytes()
    assert CipherText(ct.dim, list(ct.packed)) == ct
    assert len({ct, same, other}) == 2
    with pytest.raises(ValueError):
        ct.packed[0, 0] ^= 1
    with pytest.raises(AttributeError):
        ct.packed = other.packed


@pytest.mark.parametrize("dim, packed, error", [
    (21, np.zeros((2, 3), dtype=np.int64), DimensionError),
    (21, np.zeros((2, 4), dtype=np.uint8), DimensionError),
    (21, np.zeros(3, dtype=np.uint8), DimensionError),
    (0, np.zeros((1, 0), dtype=np.uint8), DimensionError),
    (21, np.array([[0, 0, 0], [0, 0, 0x20]], dtype=np.uint8), DataFormatError),
])
def test_ciphertext_constructor_rejects_bad_blocks(dim, packed, error):
    with pytest.raises(error):
        CipherText(dim, packed)


_FUZZ_XBAR, _FUZZ_KEYS = _system(sigma=0.1, rows=4, cols=21, seed=34)
_FUZZ_BLOB = encrypt_text("fuzz!", _FUZZ_KEYS, _FUZZ_XBAR, 0.0, spawn_rng(19, "e")).to_bytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_ciphertext_fuzzed_bytes_parse_or_raise_data_format_error(data):
    blob = bytearray(_FUZZ_BLOB)
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(blob) - 1))
        blob[i] = data.draw(st.integers(0, 255))
    blob = bytes(blob[:data.draw(st.integers(0, len(blob)))] if data.draw(st.booleans())
                 else blob + data.draw(st.binary(max_size=12)))
    try:
        ct = CipherText.from_bytes(blob)
    except DataFormatError:
        return
    assert ct.to_bytes() == blob
