"""Serializers for the posting lists stored in the index namespaces.

Two posting shapes occur in the paper:

* **node postings** for ``I_struct`` / ``I_text`` — per node the four
  numbers of the encoding of Section 6.2: ``(pre, bound, pathcost,
  inscost)``, sorted by ``pre``.
* **instance postings** for the secondary index ``I_sec`` (Section 7.3) —
  ``(pre, bound)`` pairs of the instances of one schema node, sorted by
  ``pre``.

Both are stored column-wise: the ``pre`` column delta-encoded (it is
ascending), the other columns as plain varints.

Decoded postings come in two in-memory shapes:

* plain ``list[tuple]`` — the historical shape, still produced by
  :func:`decode_node_postings` / :func:`decode_instance_postings`;
* **columnar** — :class:`PostingColumns` / :class:`InstanceColumns`,
  flat ``array('q')`` buffers, one per field.  The columnar shape
  duck-types a sequence of tuples, so every tuple-shaped consumer keeps
  working, while whole-column consumers (the evaluation kernel) borrow
  the buffers zero-copy.  The stored indexes decode into columns; the
  ``*_columns`` decoders fill the four (or two) buffers in one pass.

The codecs report decoded/encoded entry and byte counts into the ambient
telemetry collector (``codec.*``) — the "postings decoded" currency the
paper's §8 comparison is phrased in, measured where decoding happens.
"""

from __future__ import annotations

from array import array

from ..errors import StorageError
from ..telemetry.collector import count as _telemetry_count, current as _telemetry_current
from .varint import (
    decode_uvarint,
    decode_uvarint_block,
    encode_svarint,
    encode_uvarint,
)

NodePosting = tuple[int, int, int, int]
InstancePosting = tuple[int, int]


class _Columns:
    """Shared sequence-of-tuples duck typing over parallel flat columns.

    Columns are flat signed-64-bit integer buffers (``array('q')``) and
    are **immutable by convention**, exactly like cached posting lists.
    Subclasses name their columns in ``__slots__`` order; rows
    materialize as plain tuples so every tuple-shaped consumer of a
    decoded posting keeps working unchanged.
    """

    __slots__ = ()

    def _columns(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __iter__(self):
        return zip(*self._columns())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(*(column[index] for column in self._columns())))
        return tuple(column[index] for column in self._columns())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_Columns, list)):
            return list(self) == list(other)
        return NotImplemented

    def __hash__(self) -> None:  # pragma: no cover - mirrors list
        raise TypeError(f"unhashable type: {type(self).__name__!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rows={len(self)})"

    def tolist(self) -> list:
        """The posting materialized as the historical list of tuples."""
        return list(self)


class PostingColumns(_Columns):
    """A node posting — ``(pre, bound, pathcost, inscost)`` rows — as
    four parallel flat buffers.  The evaluation kernel borrows the
    buffers directly (zero-copy) instead of re-gathering per-row fields;
    see :meth:`repro.engine.columns.EvalColumns.from_postings`."""

    __slots__ = ("pre", "bound", "pathcost", "inscost")

    def __init__(self, pre, bound, pathcost, inscost) -> None:
        self.pre = pre
        self.bound = bound
        self.pathcost = pathcost
        self.inscost = inscost

    @classmethod
    def from_rows(cls, rows: list[NodePosting]) -> "PostingColumns":
        """Columns built from tuple-shaped rows (tests, exporters)."""
        pre = array("q")
        bound = array("q")
        pathcost = array("q")
        inscost = array("q")
        for row in rows:
            pre.append(row[0])
            bound.append(row[1])
            pathcost.append(row[2])
            inscost.append(row[3])
        return cls(pre, bound, pathcost, inscost)


class InstanceColumns(_Columns):
    """An instance posting — ``(pre, bound)`` rows — as two parallel
    flat buffers (the ``I_sec`` shape of Section 7.3)."""

    __slots__ = ("pre", "bound")

    def __init__(self, pre, bound) -> None:
        self.pre = pre
        self.bound = bound

    @classmethod
    def from_rows(cls, rows: list[InstancePosting]) -> "InstanceColumns":
        pre = array("q")
        bound = array("q")
        for row in rows:
            pre.append(row[0])
            bound.append(row[1])
        return cls(pre, bound)


def encode_node_postings(entries: list[NodePosting]) -> bytes:
    """Serialize ``(pre, bound, pathcost, inscost)`` tuples sorted by pre."""
    _check_sorted(entries)
    _telemetry_count("codec.entries_encoded", len(entries))
    out = bytearray()
    encode_uvarint(len(entries), out)
    previous_pre = 0
    for pre, bound, pathcost, inscost in entries:
        encode_svarint(pre - previous_pre, out)
        previous_pre = pre
        # bound >= pre for struct nodes and 0 for text nodes; store the
        # (possibly negative) offset so both compress well.
        encode_svarint(bound - pre, out)
        encode_uvarint(pathcost, out)
        encode_uvarint(inscost, out)
    return bytes(out)


def decode_node_postings(data: bytes) -> list[NodePosting]:
    """Inverse of :func:`encode_node_postings`.

    The serialized columns are decoded with the block varint kernel —
    one scan of the buffer materializes every raw value, then one tight
    loop zig-zag-decodes, prefix-sums, and batch-builds the tuples —
    instead of four codec function calls per entry.
    """
    count, pos = decode_uvarint(data, 0)
    telemetry = _telemetry_current()
    if telemetry is not None:
        telemetry.count("codec.lists_decoded")
        telemetry.count("codec.entries_decoded", count)
        telemetry.count("codec.bytes_decoded", len(data))
    raws, _ = decode_uvarint_block(data, pos, 4 * count)
    entries: list[NodePosting] = []
    append = entries.append
    pre = 0
    index = 0
    for _ in range(count):
        delta = raws[index]
        offset = raws[index + 1]
        pre += (delta >> 1) if not delta & 1 else -((delta + 1) >> 1)
        bound = pre + ((offset >> 1) if not offset & 1 else -((offset + 1) >> 1))
        append((pre, bound, raws[index + 2], raws[index + 3]))
        index += 4
    return entries


def decode_node_posting_columns(data: bytes) -> PostingColumns:
    """Columnar inverse of :func:`encode_node_postings`.

    Same block-decode kernel as :func:`decode_node_postings`, but the
    values land in four flat ``array('q')`` buffers instead of a list of
    tuples — the shape the evaluation kernel consumes without per-row
    re-gathering.
    """
    count, pos = decode_uvarint(data, 0)
    telemetry = _telemetry_current()
    if telemetry is not None:
        telemetry.count("codec.lists_decoded")
        telemetry.count("codec.entries_decoded", count)
        telemetry.count("codec.bytes_decoded", len(data))
    raws, _ = decode_uvarint_block(data, pos, 4 * count)
    pre_column = array("q", bytes(8 * count))
    bound_column = array("q", bytes(8 * count))
    pathcost_column = array("q", bytes(8 * count))
    inscost_column = array("q", bytes(8 * count))
    pre = 0
    index = 0
    for row in range(count):
        delta = raws[index]
        offset = raws[index + 1]
        pre += (delta >> 1) if not delta & 1 else -((delta + 1) >> 1)
        pre_column[row] = pre
        bound_column[row] = pre + ((offset >> 1) if not offset & 1 else -((offset + 1) >> 1))
        pathcost_column[row] = raws[index + 2]
        inscost_column[row] = raws[index + 3]
        index += 4
    return PostingColumns(pre_column, bound_column, pathcost_column, inscost_column)


def encode_instance_postings(entries: list[InstancePosting]) -> bytes:
    """Serialize ``(pre, bound)`` pairs sorted by pre."""
    _check_sorted(entries)
    _telemetry_count("codec.entries_encoded", len(entries))
    out = bytearray()
    encode_uvarint(len(entries), out)
    previous_pre = 0
    for pre, bound in entries:
        encode_svarint(pre - previous_pre, out)
        previous_pre = pre
        encode_svarint(bound - pre, out)
    return bytes(out)


def decode_instance_postings(data: bytes) -> list[InstancePosting]:
    """Inverse of :func:`encode_instance_postings` (block decode kernel,
    see :func:`decode_node_postings`)."""
    count, pos = decode_uvarint(data, 0)
    telemetry = _telemetry_current()
    if telemetry is not None:
        telemetry.count("codec.lists_decoded")
        telemetry.count("codec.entries_decoded", count)
        telemetry.count("codec.bytes_decoded", len(data))
    raws, _ = decode_uvarint_block(data, pos, 2 * count)
    entries: list[InstancePosting] = []
    append = entries.append
    pre = 0
    index = 0
    for _ in range(count):
        delta = raws[index]
        offset = raws[index + 1]
        pre += (delta >> 1) if not delta & 1 else -((delta + 1) >> 1)
        append((pre, pre + ((offset >> 1) if not offset & 1 else -((offset + 1) >> 1))))
        index += 2
    return entries


def decode_instance_posting_columns(data: bytes) -> InstanceColumns:
    """Columnar inverse of :func:`encode_instance_postings` (see
    :func:`decode_node_posting_columns`)."""
    count, pos = decode_uvarint(data, 0)
    telemetry = _telemetry_current()
    if telemetry is not None:
        telemetry.count("codec.lists_decoded")
        telemetry.count("codec.entries_decoded", count)
        telemetry.count("codec.bytes_decoded", len(data))
    raws, _ = decode_uvarint_block(data, pos, 2 * count)
    pre_column = array("q", bytes(8 * count))
    bound_column = array("q", bytes(8 * count))
    pre = 0
    index = 0
    for row in range(count):
        delta = raws[index]
        offset = raws[index + 1]
        pre += (delta >> 1) if not delta & 1 else -((delta + 1) >> 1)
        pre_column[row] = pre
        bound_column[row] = pre + ((offset >> 1) if not offset & 1 else -((offset + 1) >> 1))
        index += 2
    return InstanceColumns(pre_column, bound_column)


def _check_sorted(entries: list) -> None:
    for left, right in zip(entries, entries[1:]):
        if left[0] >= right[0]:
            raise StorageError("posting entries must be strictly ascending in pre")
