import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt.errors import DataFormatError, DimensionError, HdcryptError
from hdcrypt.hypervector import BinaryHypervector, hamming


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_bits_roundtrip(dim, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=dim, dtype=np.uint8)
    hv = BinaryHypervector.from_bits(bits)
    assert hv.dim == dim
    assert np.array_equal(hv.to_bits(), bits)
    assert hv.popcount() == int(bits.sum())


@pytest.mark.parametrize("dim", [1, 7, 8, 63, 64, 65, 128, 1000])
def test_wire_format_roundtrip(dim):
    bits = np.random.default_rng(dim).integers(0, 2, size=dim, dtype=np.uint8)
    hv = BinaryHypervector.from_bits(bits)
    blob = hv.to_bytes()
    assert blob[:4] == b"HBV1"
    assert int.from_bytes(blob[4:12], "little") == dim
    assert len(blob) == 12 + (dim + 7) // 8
    assert BinaryHypervector.from_bytes(blob) == hv


def test_wire_format_bad_magic_offset_zero():
    with pytest.raises(DataFormatError) as excinfo:
        BinaryHypervector.from_bytes(b"XXXX" + b"\x00" * 16)
    assert excinfo.value.offset == 0


def test_wire_format_truncated_payload():
    blob = BinaryHypervector.from_bits(np.ones(64, dtype=np.uint8)).to_bytes()
    with pytest.raises(DataFormatError):
        BinaryHypervector.from_bytes(blob[:-3])


def test_wire_format_zero_dim_rejected():
    blob = b"HBV1" + (0).to_bytes(8, "little")
    with pytest.raises(DataFormatError):
        BinaryHypervector.from_bytes(blob)


def test_padding_bits_must_be_zero():
    words = np.array([1 << 63], dtype=np.uint64)
    with pytest.raises(DataFormatError):
        BinaryHypervector(10, words)   # bit 63 is padding for dim 10


def test_wire_format_padding_bits_name_byte_offset():
    # dim 95: 12 payload bytes, and bit 7 of the last one is padding
    blob = b"HBV1" + (95).to_bytes(8, "little") + b"\x00" * 11 + b"\x80"
    with pytest.raises(DataFormatError) as excinfo:
        BinaryHypervector.from_bytes(blob)
    assert excinfo.value.offset == 23


_FUZZ_BLOB = BinaryHypervector.from_bits(
    np.random.default_rng(3).integers(0, 2, size=95, dtype=np.uint8)).to_bytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_bytes_roundtrip_or_raise_hdcrypt_error(data):
    blob = bytearray(_FUZZ_BLOB)
    for _ in range(data.draw(st.integers(0, 4))):
        i = data.draw(st.integers(0, len(blob) - 1))
        blob[i] = data.draw(st.integers(0, 255))
    blob = bytes(blob[:data.draw(st.integers(0, len(blob)))] if data.draw(st.booleans())
                 else blob + data.draw(st.binary(max_size=12)))
    try:
        hv = BinaryHypervector.from_bytes(blob)
    except HdcryptError:
        return
    assert hv.to_bytes() == blob


def test_equality_and_hash():
    a = BinaryHypervector.from_bits([1, 0, 1])
    b = BinaryHypervector.from_bits([1, 0, 1])
    c = BinaryHypervector.from_bits([1, 0, 0])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_hamming_identical_is_zero():
    hv = BinaryHypervector.from_bits(np.random.default_rng(0).integers(0, 2, 257))
    assert hamming(hv, hv) == 0


def test_hamming_complement_is_dim():
    bits = np.random.default_rng(1).integers(0, 2, size=129, dtype=np.uint8)
    assert hamming(BinaryHypervector.from_bits(bits),
                   BinaryHypervector.from_bits(1 - bits)) == 129


def test_hamming_matches_bit_loop_oracle():
    gen = np.random.default_rng(2)
    a_bits = gen.integers(0, 2, size=10_000, dtype=np.uint8)
    b_bits = gen.integers(0, 2, size=10_000, dtype=np.uint8)
    # oracle: naive per-bit comparison
    expected = sum(int(x != y) for x, y in zip(a_bits, b_bits))
    assert hamming(BinaryHypervector.from_bits(a_bits),
                   BinaryHypervector.from_bits(b_bits)) == expected


def test_hamming_dim_mismatch():
    with pytest.raises(DimensionError):
        hamming(BinaryHypervector.from_bits([1, 0]),
                BinaryHypervector.from_bits([1, 0, 1]))


def test_immutability():
    hv = BinaryHypervector.from_bits([1, 0, 1])
    with pytest.raises(AttributeError):
        hv.dim = 5
    assert not hv.words.flags.writeable
