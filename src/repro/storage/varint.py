"""Variable-length integer codecs used by the posting-list serializers.

The storage engine keeps posting lists (sequences of small, mostly
ascending integers) in a compact byte form.  We use the classic LEB128
unsigned varint together with zig-zag encoding for signed deltas, the same
building blocks real inverted-file systems use.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from operator import sub

from ..errors import StorageError

_CONTINUATION = 0x80
_PAYLOAD_MASK = 0x7F
_MAX_VARINT_BYTES = 10  # enough for any 64-bit value


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append the LEB128 encoding of a non-negative ``value`` to ``out``."""
    if value < 0:
        raise StorageError(f"cannot uvarint-encode negative value {value}")
    while True:
        byte = value & _PAYLOAD_MASK
        value >>= 7
        if value:
            out.append(byte | _CONTINUATION)
        else:
            out.append(byte)
            return


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one LEB128 value from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    for _ in range(_MAX_VARINT_BYTES):
        if pos >= len(data):
            raise StorageError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & _PAYLOAD_MASK) << shift
        if not byte & _CONTINUATION:
            return result, pos
        shift += 7
    raise StorageError("uvarint too long (more than 10 bytes)")


def decode_uvarint_block(data: bytes, offset: int, count: int) -> tuple[list[int], int]:
    """Decode ``count`` consecutive LEB128 values in one buffer scan.

    This is the block decode kernel under the posting codecs: instead of
    one :func:`decode_uvarint` call (with its bounds bookkeeping) per
    value, the buffer — any bytes-like object, including a
    :class:`memoryview` — is walked once in a single loop, with the
    common one-byte case handled without entering the continuation loop.
    Returns ``(values, next_offset)``.
    """
    values: list[int] = []
    append = values.append
    pos = offset
    try:
        for _ in range(count):
            byte = data[pos]
            pos += 1
            if byte < _CONTINUATION:
                append(byte)
                continue
            result = byte & _PAYLOAD_MASK
            shift = 7
            while True:
                byte = data[pos]
                pos += 1
                if byte < _CONTINUATION:
                    result |= byte << shift
                    break
                result |= (byte & _PAYLOAD_MASK) << shift
                shift += 7
                if shift > 63:
                    raise StorageError("uvarint too long (more than 10 bytes)")
            append(result)
    except IndexError:
        raise StorageError("truncated uvarint") from None
    return values, pos


def encode_uvarint_block(values, out: bytearray) -> None:
    """Append the LEB128 encoding of every (non-negative) value to ``out``.

    The block *encode* kernel, mirror of :func:`decode_uvarint_block`: one
    loop over any iterable of integers with the one-byte case handled
    first, instead of one :func:`encode_uvarint` call per value.  The
    bytes are identical to what the per-value codec writes.
    """
    append = out.append
    for value in values:
        if value < _CONTINUATION:
            if value < 0:
                raise StorageError(f"cannot uvarint-encode negative value {value}")
            append(value)
            continue
        while value > _PAYLOAD_MASK:
            append((value & _PAYLOAD_MASK) | _CONTINUATION)
            value >>= 7
        append(value)


def zigzag_deltas(values, before: int = 0) -> list[int]:
    """The zig-zag-encoded differences of consecutive ``values`` (the
    first against ``before``) — the unsigned stream a delta-coded column
    stores."""
    return [
        (delta << 1) if delta >= 0 else ((-delta) << 1) - 1
        for delta in map(sub, values, chain((before,), values))
    ]


def zigzag_encode(value: int) -> int:
    """Map a signed integer to an unsigned one with small absolute values
    staying small (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...)."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def encode_svarint(value: int, out: bytearray) -> None:
    """Append a zig-zag + LEB128 encoding of a signed ``value``."""
    encode_uvarint(zigzag_encode(value), out)


def decode_svarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one signed varint; returns ``(value, next_offset)``."""
    raw, pos = decode_uvarint(data, offset)
    return zigzag_decode(raw), pos


def encode_uvarint_list(values: list[int]) -> bytes:
    """Encode a list of non-negative integers, length-prefixed."""
    out = bytearray()
    encode_uvarint(len(values), out)
    encode_uvarint_block(values, out)
    return bytes(out)


def decode_uvarint_list(data: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a length-prefixed list of non-negative integers."""
    count, pos = decode_uvarint(data, offset)
    return decode_uvarint_block(data, pos, count)


def encode_delta_list(values, shift: int = 0) -> bytes:
    """Delta-encode a (typically ascending) integer sequence — a list or
    a typed column alike; ``shift`` is added to every value first.

    The first value is stored as-is (zig-zag), subsequent values as signed
    deltas.  Ascending postings therefore compress to ~1 byte per entry.
    """
    out = bytearray()
    encode_uvarint(len(values), out)
    encode_uvarint_block(zigzag_deltas(values, -shift), out)
    return bytes(out)


def decode_delta_array(data: bytes, offset: int = 0, shift: int = 0) -> tuple[array, int]:
    """Inverse of :func:`encode_delta_list` into a flat ``array('q')``
    column (no intermediate value list); ``shift`` is added to every
    decoded value.  Returns ``(column, next_offset)``."""
    count, pos = decode_uvarint(data, offset)
    raws, pos = decode_uvarint_block(data, pos, count)
    deltas = ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1) for raw in raws)
    try:
        column = array("q", accumulate(deltas, initial=shift))
    except OverflowError:
        raise StorageError("delta-coded column overflows 64 bits") from None
    del column[0]
    return column, pos


def decode_delta_list(data: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Inverse of :func:`encode_delta_list` as a plain list."""
    column, pos = decode_delta_array(data, offset)
    return column.tolist(), pos
