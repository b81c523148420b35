"""Binary codec and store segment for the planner's session feedback.

The planner's learned correction (:meth:`repro.planner.cost.Planner.seed`)
persists as one value under the ``planner`` key of the ``stats``
namespace, so a session's corrections survive reopen.  It is written
inside the commit frame of whatever else commits it (a mutation, or a
standalone frame on ``close``).

The planner's :class:`~repro.planner.stats.CollectionStats` are *not*
stored: every number in them is a sum over the schema's instance
columns, which each handle builds anyway
(:meth:`~repro.planner.stats.CollectionStats.from_schema`).

Layout::

    u32   version (PLANNER_STATE_VERSION)
    f64   correction factor (>= 1)
    uvarint  corrections (gross mispredictions that produced it)
"""

from __future__ import annotations

import struct

from ..errors import KeyNotFoundError, StorageError
from .kv import Namespace, Store
from .varint import decode_uvarint, encode_uvarint

STATS_NAMESPACE = b"stats"
PLANNER_KEY = b"planner"
PLANNER_STATE_VERSION = 1
_U32 = "<I"
_F64 = "<d"


def encode_planner_state(correction: float, corrections: int) -> bytes:
    """Serialize the planner's session feedback (the capped correction
    factor plus how many gross mispredictions produced it)."""
    out = bytearray(struct.pack(_U32, PLANNER_STATE_VERSION))
    out += struct.pack(_F64, float(correction))
    encode_uvarint(int(corrections), out)
    return bytes(out)


def decode_planner_state(data: bytes) -> tuple[float, int]:
    """Inverse of :func:`encode_planner_state`."""
    try:
        (version,) = struct.unpack_from(_U32, data, 0)
        if version != PLANNER_STATE_VERSION:
            raise StorageError(f"unsupported planner segment version {version}")
        offset = struct.calcsize(_U32)
        (correction,) = struct.unpack_from(_F64, data, offset)
        offset += struct.calcsize(_F64)
        corrections, _ = decode_uvarint(data, offset)
    except (struct.error, IndexError) as error:
        raise StorageError(f"corrupt planner segment ({error})") from error
    if not correction >= 1.0:
        raise StorageError(f"corrupt planner segment (correction {correction!r})")
    return correction, corrections


def save_planner_state(store: Store, correction: float, corrections: int) -> None:
    """Write the planner segment (the caller owns the commit boundary)
    so the session's learned corrections survive reopen."""
    Namespace(store, STATS_NAMESPACE).put(
        PLANNER_KEY, encode_planner_state(correction, corrections)
    )


def load_planner_state(store: Store) -> "tuple[float, int] | None":
    """Read the planner segment; ``None`` when the store predates it or
    the blob is corrupt (corrections are an optimization, never worth
    failing an open over)."""
    try:
        payload = Namespace(store, STATS_NAMESPACE).get(PLANNER_KEY)
    except KeyNotFoundError:
        return None
    try:
        return decode_planner_state(payload)
    except StorageError:
        return None


__all__ = [
    "PLANNER_KEY",
    "STATS_NAMESPACE",
    "decode_planner_state",
    "encode_planner_state",
    "load_planner_state",
    "save_planner_state",
]
