import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdcrypt.errors import DataFormatError, DimensionError, HdcryptError
from hdcrypt.hypervector import BinaryHypervector
from hdcrypt.textcrypto import CipherText


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_bits_roundtrip(dim, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=dim, dtype=np.uint8)
    hv = BinaryHypervector.from_bits(bits)
    assert hv.dim == dim
    assert np.array_equal(hv.to_bits(), bits)
    assert hv.popcount() == int(bits.sum())


def _one_block_file(hv):
    return CipherText(hv.dim, hv.packed[None]).to_bytes()


def _blocks(ct):
    """Each packed row of a ciphertext as a hypervector."""
    return tuple(BinaryHypervector(ct.dim, row) for row in ct.packed)


@pytest.mark.parametrize("dim", [1, 7, 8, 63, 64, 65, 128, 1000])
def test_wire_format_roundtrip(dim):
    # a hypervector's file is a one-block HLCT file: its bytes are the payload
    bits = np.random.default_rng(dim).integers(0, 2, size=dim, dtype=np.uint8)
    hv = BinaryHypervector.from_bits(bits)
    blob = _one_block_file(hv)
    assert blob[:4] == b"HLCT"
    assert int.from_bytes(blob[4:12], "little") == 1
    assert int.from_bytes(blob[12:20], "little") == dim
    assert blob[20:] == hv.packed.tobytes()
    assert len(blob) == 20 + (dim + 7) // 8
    assert _blocks(CipherText.from_bytes(blob)) == (hv,)


def test_wire_format_truncated_payload():
    blob = _one_block_file(BinaryHypervector.from_bits(np.ones(64, dtype=np.uint8)))
    with pytest.raises(DataFormatError):
        CipherText.from_bytes(blob[:-3])


def test_wire_format_zero_dim_rejected():
    blob = b"HLCT" + (1).to_bytes(8, "little") + (0).to_bytes(8, "little")
    with pytest.raises(DataFormatError) as excinfo:
        CipherText.from_bytes(blob)
    assert excinfo.value.offset == 12


_FUZZ_BLOB = _one_block_file(BinaryHypervector.from_bits(
    np.random.default_rng(3).integers(0, 2, size=95, dtype=np.uint8)))


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
        ct = CipherText.from_bytes(blob)
    except HdcryptError:
        return
    assert ct.to_bytes() == blob
    for hv in _blocks(ct):
        assert _blocks(CipherText.from_bytes(_one_block_file(hv))) == (hv,)


def test_padding_bits_must_be_zero():
    packed = np.array([0, 1 << 7], dtype=np.uint8)
    with pytest.raises(DataFormatError):
        BinaryHypervector(10, packed)   # bit 15 is padding for dim 10


@pytest.mark.parametrize("dim, packed, error", [
    (10, np.array([0, 0x04], dtype=np.uint8), DataFormatError),  # bit 10, the first pad
    (10, np.zeros(3, dtype=np.uint8), DimensionError),
    (10, np.zeros((1, 2), dtype=np.uint8), DimensionError),
    (10, np.zeros(2, dtype=np.int64), TypeError),
    (0, np.zeros(0, dtype=np.uint8), DimensionError),
])
def test_constructor_rejects_bad_packed_bytes(dim, packed, error):
    with pytest.raises(error):
        BinaryHypervector(dim, packed)


def test_equality_and_hash():
    a = BinaryHypervector.from_bits([1, 0, 1])
    b = BinaryHypervector.from_bits([1, 0, 1])
    c = BinaryHypervector.from_bits([1, 0, 0])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_immutability():
    hv = BinaryHypervector.from_bits([1, 0, 1])
    with pytest.raises(AttributeError):
        hv.dim = 5
    assert not hv.packed.flags.writeable
