"""Posting lists: their columnar in-memory shapes and the serializer of
the ones stored in the index namespaces.

Two posting shapes occur in the paper:

* **node postings** for ``I_struct`` / ``I_text`` — per node the four
  numbers of the encoding of Section 6.2: ``(pre, bound, pathcost,
  inscost)``, sorted by ``pre``.  Stored column-wise: the ``pre`` column
  delta-encoded (it is ascending), the other columns as varints.
* **instance postings** for the secondary index ``I_sec`` (Section 7.3) —
  ``(pre, bound)`` pairs of the instances of one schema node, sorted by
  ``pre``.  Only the in-memory schema holds them, never a store.

In memory, postings are **columnar** — :class:`PostingColumns` /
:class:`InstanceColumns`, flat ``array('q')`` buffers, one per field.
The columnar shape duck-types a sequence of tuples, so every
tuple-shaped consumer keeps working, while whole-column consumers (the
evaluation kernel) borrow the buffers zero-copy.  The stored indexes
decode into columns (:func:`decode_node_posting_columns`); the schema
keeps its instance postings in the same shape, and a text class's
per-term split as one :class:`TermColumns`.  The plain ``list[tuple]``
shape of :func:`decode_node_postings` remains for tests and exporters;
the encoder takes either shape and writes the same bytes for both.

The codecs report decoded/encoded entry and byte counts into the ambient
telemetry collector (``codec.*``) — the "postings decoded" currency the
paper's §8 comparison is phrased in, measured where decoding happens.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from operator import add
from sys import getsizeof

from ..errors import StorageError
from ..telemetry.collector import count as _telemetry_count, current as _telemetry_current
from .varint import (
    decode_uvarint,
    decode_uvarint_block,
    encode_uvarint,
)

NodePosting = tuple[int, int, int, int]
InstancePosting = tuple[int, int]


def column_bytes(*columns) -> int:
    """Bytes held by flat columns: ``array`` buffers by their used
    length (``buffer_info()[1] * itemsize``), ``bytearray`` and pointer
    ``list`` columns by their object size."""
    return sum(
        column.buffer_info()[1] * column.itemsize
        if isinstance(column, array)
        else getsizeof(column)
        for column in columns
    )


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

    def extended(self, rows: "_Columns"):
        """Copy-on-write successor with ``rows`` appended (grafted pres
        are the highest, so the posting stays sorted)."""
        return type(self)(*map(add, self._columns(), rows._columns()))

    def without(self, low: int, high: int):
        """Copy-on-write successor without the rows whose pre lies in
        ``[low, high]`` — one contiguous run, cut out by column slice."""
        pres = self._columns()[0]
        start, stop = bisect_left(pres, low), bisect_right(pres, high)
        return type(self)(*(column[:start] + column[stop:] for column in self._columns()))


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


class TermColumns(Mapping):
    """The instance postings of one text class split by term — a
    read-only ``term -> InstanceColumns`` mapping over **one** flat
    ``pre``/``bound`` pair ordered by (term, pre), the sorted ``terms``
    and their run ``offsets`` (``len(terms) + 1`` entries).

    A buffer pair per term would cost more than the tuple lists it
    replaces (a posting averages three rows); the flat pair costs 16
    bytes per row plus 16 per term, and a lookup is one string bisect.
    Immutable by convention: :meth:`edited` builds a successor.
    """

    __slots__ = ("terms", "offsets", "pre", "bound")

    def __init__(self) -> None:
        self.terms: list[str] = []
        self.offsets = array("q", [0])
        self.pre = array("q")
        self.bound = array("q")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def _find(self, term: object) -> int:
        """Position of ``term`` in the sorted term list, -1 when absent."""
        index = bisect_left(self.terms, term)
        return index if index < len(self.terms) and self.terms[index] == term else -1

    def _run(self, index: int) -> InstanceColumns:
        low, high = self.offsets[index], self.offsets[index + 1]
        return InstanceColumns(self.pre[low:high], self.bound[low:high])

    def get(self, term: str, default=None):
        """The posting of ``term`` (two slices of the flat pair), or
        ``default`` when the class has no such word."""
        index = self._find(term)
        return default if index < 0 else self._run(index)

    def __contains__(self, term: object) -> bool:
        return self._find(term) >= 0

    def __getitem__(self, term: str) -> InstanceColumns:
        index = self._find(term)
        if index < 0:
            raise KeyError(term)
        return self._run(index)

    def items(self):
        """``(term, posting)`` for every term, without a lookup each."""
        return zip(self.terms, map(self._run, range(len(self.terms))))

    @classmethod
    def from_pres(cls, by_term: "dict[str, list[int]]", bounds) -> "TermColumns":
        """Columns built from ``term -> ascending pres``; ``bounds`` is
        the tree's bound column (indexed by pre)."""
        new = cls()
        for term in sorted(by_term):
            new.terms.append(term)
            new.pre.extend(by_term[term])
            new.offsets.append(len(new.pre))
        new.bound.extend(map(bounds.__getitem__, new.pre))
        return new

    def edited(
        self,
        bounds,
        added: "dict[str, list[int]]",
        dropped: "tuple[int, int] | None" = None,
        touched=(),
    ) -> "TermColumns":
        """Copy-on-write successor after a document mutation.

        Every term in ``touched`` loses its rows whose pre lies in the
        ``dropped`` interval, every term in ``added`` gains the given
        pres (bounds looked up in the tree's ``bounds`` column) at the
        tail of its run — grafted pres are the highest; a run left empty
        disappears with its term.  Untouched runs between two edited
        terms move as one column slice each.
        """
        old = self
        new = TermColumns()

        def carry(start: int, stop: int) -> None:
            low, high = old.offsets[start], old.offsets[stop]
            shift = len(new.pre) - low
            new.terms.extend(old.terms[start:stop])
            new.offsets.extend([offset + shift for offset in old.offsets[start + 1 : stop + 1]])
            new.pre.extend(old.pre[low:high])
            new.bound.extend(old.bound[low:high])

        cursor = 0
        for term in sorted({*added, *touched}):
            index = bisect_left(old.terms, term, cursor)
            carry(cursor, index)
            low = high = old.offsets[index]
            cursor = index
            if index < len(old.terms) and old.terms[index] == term:
                high = old.offsets[index + 1]
                cursor += 1
            cut_from = cut_to = high
            if dropped is not None:
                cut_from = bisect_left(old.pre, dropped[0], low, high)
                cut_to = bisect_right(old.pre, dropped[1], low, high)
            pres = added.get(term, ())
            for column, source, tail in (
                (new.pre, old.pre, pres),
                (new.bound, old.bound, map(bounds.__getitem__, pres)),
            ):
                column.extend(source[low:cut_from])
                column.extend(source[cut_to:high])
                column.extend(tail)
            if len(new.pre) > new.offsets[-1]:
                new.terms.append(term)
                new.offsets.append(len(new.pre))
        carry(cursor, len(old.terms))
        return new


def encode_node_postings(entries) -> bytes:
    """Serialize ``(pre, bound, pathcost, inscost)`` rows sorted by pre —
    a :class:`PostingColumns` or a list of tuples, same bytes.

    The block encode kernel: per row the ``pre`` delta and the signed
    offset ``bound - pre`` (>= 0 for struct nodes, negative for the zeroed
    bounds of text entries — both compress well) zig-zag-coded, then both
    cost values unsigned.  Zig-zag and the one-byte case — nearly every
    value — are inlined, the mirror of
    :func:`~repro.storage.varint.decode_uvarint_block`; longer values go
    through the per-value codec, and the ascending-pre check rides the
    same loop."""
    if isinstance(entries, PostingColumns):
        rows = zip(entries.pre, entries.bound, entries.pathcost, entries.inscost)
    else:
        rows = entries
    _telemetry_count("codec.entries_encoded", len(entries))
    out = bytearray()
    encode_uvarint(len(entries), out)
    append = out.append
    previous = None
    for row in rows:
        current = row[0]
        delta = current if previous is None else current - previous
        if delta <= 0 and previous is not None:
            raise StorageError("posting entries must be strictly ascending in pre")
        previous = current
        raw = (delta << 1) if delta >= 0 else ((-delta) << 1) - 1
        if raw < 0x80:
            append(raw)
        else:
            encode_uvarint(raw, out)
        offset = row[1] - current
        raw = (offset << 1) if offset >= 0 else ((-offset) << 1) - 1
        if raw < 0x80:
            append(raw)
        else:
            encode_uvarint(raw, out)
        for raw in row[2:]:
            if 0 <= raw < 0x80:
                append(raw)
            else:
                encode_uvarint(raw, out)
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
