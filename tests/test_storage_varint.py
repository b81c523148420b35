"""Unit and property tests for the varint codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.varint import (
    decode_delta_list,
    decode_svarint,
    decode_uvarint,
    encode_delta_list,
    encode_svarint,
    encode_uvarint,
    decode_uvarint_list,
    encode_uvarint_list,
    zigzag_decode,
    zigzag_encode,
)


def _encode_u(value):
    out = bytearray()
    encode_uvarint(value, out)
    return bytes(out)


def _encode_s(value):
    out = bytearray()
    encode_svarint(value, out)
    return bytes(out)


class TestUvarint:
    def test_zero_is_single_byte(self):
        assert _encode_u(0) == b"\x00"

    def test_small_values_are_single_byte(self):
        assert _encode_u(127) == b"\x7f"

    def test_128_uses_two_bytes(self):
        assert _encode_u(128) == b"\x80\x01"

    def test_roundtrip_known_values(self):
        for value in [0, 1, 127, 128, 255, 300, 16384, 2**32, 2**63]:
            data = _encode_u(value)
            decoded, offset = decode_uvarint(data)
            assert decoded == value
            assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(StorageError):
            _encode_u(-1)

    def test_truncated_raises(self):
        with pytest.raises(StorageError):
            decode_uvarint(b"\x80")

    def test_overlong_raises(self):
        with pytest.raises(StorageError):
            decode_uvarint(b"\x80" * 11)

    def test_decode_with_offset(self):
        data = b"\xff" + _encode_u(300)
        value, offset = decode_uvarint(data, 1)
        assert value == 300
        assert offset == len(data)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_uvarint(_encode_u(value))
        assert decoded == value


class TestZigzag:
    def test_known_mapping(self):
        assert [zigzag_encode(v) for v in [0, -1, 1, -2, 2]] == [0, 1, 2, 3, 4]

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_encoding_is_non_negative(self, value):
        assert zigzag_encode(value) >= 0


class TestSvarint:
    def test_roundtrip_known(self):
        for value in [0, -1, 1, -1000, 1000, -(2**40), 2**40]:
            decoded, _ = decode_svarint(_encode_s(value))
            assert decoded == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip_property(self, value):
        decoded, _ = decode_svarint(_encode_s(value))
        assert decoded == value


class TestLists:
    def test_uvarint_list_roundtrip(self):
        values = [0, 5, 1000, 3]
        data = encode_uvarint_list(values)
        decoded, offset = decode_uvarint_list(data)
        assert decoded == values
        assert offset == len(data)

    def test_empty_list(self):
        decoded, _ = decode_uvarint_list(encode_uvarint_list([]))
        assert decoded == []

    def test_delta_list_roundtrip_sorted(self):
        values = [3, 10, 11, 200, 201]
        decoded, _ = decode_delta_list(encode_delta_list(values))
        assert decoded == values

    def test_delta_list_roundtrip_unsorted(self):
        values = [100, 3, 77]
        decoded, _ = decode_delta_list(encode_delta_list(values))
        assert decoded == values

    def test_delta_list_compresses_ascending_runs(self):
        values = list(range(1000, 2000))
        data = encode_delta_list(values)
        # first value takes 2 bytes, each subsequent delta of 1 takes 1 byte
        assert len(data) < 2 + 2 + len(values)

    @given(st.lists(st.integers(min_value=0, max_value=2**40)))
    def test_delta_list_property(self, values):
        decoded, _ = decode_delta_list(encode_delta_list(values))
        assert decoded == values


class TestBlockEncode:
    """The block encode kernel and the typed delta column."""

    @given(st.lists(st.integers(min_value=0, max_value=2**62)))
    def test_block_matches_per_value_codec(self, values):
        from repro.storage.varint import encode_uvarint_block

        expected = bytearray()
        for value in values:
            encode_uvarint(value, expected)
        out = bytearray()
        encode_uvarint_block(values, out)
        assert out == expected

    def test_block_rejects_negative(self):
        from repro.storage.varint import encode_uvarint_block

        with pytest.raises(StorageError):
            encode_uvarint_block([3, -1], bytearray())

    def test_delta_list_golden_bytes(self):
        # written by the per-value codec this kernel replaced
        assert encode_delta_list([3, 10, 11, 200, 201, 5, 70000]).hex() == "07060e02fa02028703d6c508"
        assert encode_delta_list([-1, 0, 1, 1, 0, 4], shift=1).hex() == "06000202000108"

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40)), st.integers(-3, 3))
    def test_typed_column_roundtrip(self, values, shift):
        from array import array

        from repro.storage.varint import decode_delta_array

        data = encode_delta_list(array("q", values), shift=shift)
        assert data == encode_delta_list([value + shift for value in values])
        column, offset = decode_delta_array(data, shift=-shift)
        assert isinstance(column, array) and column.typecode == "q"
        assert list(column) == values
        assert offset == len(data)
