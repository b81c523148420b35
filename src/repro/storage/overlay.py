"""Snapshot overlays: the writer-preserved read view of MVCC-lite.

A stored database has exactly one copy of every index posting — the bytes
in the key-value store.  When a writer mutates a posting while a snapshot
reader is pinned to the previous store generation, the old decoded value
is *preserved* into the snapshot's :class:`SnapshotOverlay` first
(copy-on-write, performed by the writer under its mutation lock).  A
reader consults the overlay before the store: a hit serves the pinned
value, a miss means the key was never touched since the snapshot was
taken, so the store's current value is still the pinned generation's
value.

Overlays are *ambient* per thread, exactly like the telemetry collector:
the stored indexes check :func:`current_overlay` on every fetch, query
code activates a snapshot's overlay with :func:`using_overlay` around the
evaluation.

Thread-safety relies on the shape of the data: the writer only ever
*adds* entries (``setdefault`` under the database's writer lock, one
writer at a time), readers only ``get`` — both single dict operations,
atomic under CPython.  A preserved value, like every cached posting, is
shared and must be treated as immutable.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager


class _Missing:
    """Sentinel distinguishing "key not preserved" from any real value
    (including an empty posting list, which means "key did not exist at
    the pinned generation")."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISSING>"


#: returned by :meth:`SnapshotOverlay.get` when a key was never preserved
MISSING = _Missing()


class SnapshotOverlay:
    """Pinned decoded values for one snapshot of a stored database.

    Keys are ``(namespace_tag, key)`` byte pairs; values are the decoded
    posting lists the stored indexes would have produced at the pinned
    generation (``[]`` for keys that did not exist then).
    """

    __slots__ = ("generation", "_data", "__weakref__")

    def __init__(self, generation: int) -> None:
        #: store generation this overlay pins
        self.generation = generation
        self._data: dict[tuple[bytes, bytes], object] = {}

    def preserve(self, tag: bytes, key: bytes, value: object) -> bool:
        """Record the pre-mutation ``value`` of ``tag``/``key`` unless one
        is already pinned (the first preservation wins: it is the value
        at the pinned generation).  Returns whether a value was added."""
        data = self._data
        composite = (tag, key)
        if composite in data:
            return False
        data[composite] = value
        return True

    def get(self, tag: bytes, key: bytes) -> object:
        """The pinned value of ``tag``/``key``, or :data:`MISSING` when
        the key was never touched after the snapshot was taken."""
        return self._data.get((tag, key), MISSING)

    def __repr__(self) -> str:
        return f"SnapshotOverlay(generation={self.generation}, pinned={len(self._data)})"


# ----------------------------------------------------------------------
# ambient activation (thread-local)
# ----------------------------------------------------------------------


class _OverlayState(threading.local):
    def __init__(self) -> None:
        self.active: "SnapshotOverlay | None" = None
        self.stack: list["SnapshotOverlay | None"] = []


_state = _OverlayState()


def current_overlay() -> "SnapshotOverlay | None":
    """The overlay stored-index fetches consult *on this thread*."""
    return _state.active


@contextmanager
def using_overlay(overlay: "SnapshotOverlay | None") -> Iterator["SnapshotOverlay | None"]:
    """Activate ``overlay`` on the calling thread for the block (``None``
    deactivates, restoring direct store reads).  Nests like
    :func:`repro.telemetry.collector.collecting`."""
    state = _state
    state.stack.append(state.active)
    state.active = overlay
    try:
        yield overlay
    finally:
        state.active = state.stack.pop()
