"""Persistence of a built database in the storage engine.

``save`` writes the normalized data tree into one file store: its
columns, the insert-cost table in force, and nothing derived from them.
``load`` restores the tree into memory; the opener then re-derives
everything else from it, exactly as a memory handle builds it: the
schema (``build_schema`` is a pure function of the tree), whose
instance columns serve ``I_sec`` and the planner statistics, and the
``I_struct`` / ``I_text`` node index, built on the first direct read.

The tree has one stored form, the *tree segment*: the columns of the
nodes from some pre ``start`` on, as one length-prefixed value under a
``seg<start>`` key (:func:`append_tree_segment`).  A save is the insert
of the whole tree into the empty collection: the segment at pre 0.  An
inserted document adds the segment at its start, a deleted document's
root joins the ``deadroots`` metadata list (:func:`save_dead_roots`),
and the ``nodes`` count tracks the full (live + tombstoned) array
length.  :func:`load_tree` replays the segments in start order — data
preorder equals historical append order, which is what keeps the
rebuilt schema numbering identical to the one the incremental updates
maintained.

Format version 4 stores the tree as segments only; version 3 stored the
saved tree as four column keys, version 2 additionally the node
postings and version 1 also ``I_sec``.  All are refused with a typed
error rather than migrated: rebuild the store from its XML.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, replace
from sys import intern

from ..approxql.costs import CostModel
from ..errors import KeyNotFoundError, StorageError
from ..storage.kv import FileStore, Namespace, Store
from ..storage.varint import decode_delta_array, decode_delta_list, encode_delta_list
from ..xmltree.model import DataTree
from ..xmltree.validate import validate_columns

META_NAMESPACE = b"meta"
TREE_NAMESPACE = b"tree"
FORMAT_VERSION = 4
_LABEL_SEPARATOR = "\x00"
_SEGMENT_PREFIX = b"seg"
_LENGTH_FMT = "<I"
_LENGTH_SIZE = struct.calcsize(_LENGTH_FMT)
_LABEL_CHUNK = 1 << 16  # characters of the labels column interned per step
_COLUMNS = ("labels", "types", "parents", "bounds")  # in a tree segment


@dataclass(frozen=True)
class StoreOptions:
    """The single keyword surface for a database file's knobs.

    Shared by :meth:`repro.core.database.Database.open`,
    :meth:`~repro.core.database.Database.save`, and the CLI, so every
    entry point spells the same configuration the same way.  ``None``
    keeps an engine default.

    ``page_cache_pages``, ``posting_cache_bytes`` and ``durability`` are
    accepted and ignored: the store is read once at open, so there is no
    page or posting cache to size, and every commit is one atomic fsynced
    frame, so there is one durability mode (``durability`` still rejects
    values other than ``"none"`` / ``"wal"``).  The fields stay so
    existing callers keep working.

    ``opener`` is the fault-injection seam (an ``open(path, mode)``
    replacement threaded through to every file the store touches); it
    exists for the crash matrix and stays ``None`` in normal operation.
    """

    #: accepted and ignored (there is no page cache)
    page_cache_pages: "int | None" = None
    #: accepted and ignored (there is no decoded-posting cache)
    posting_cache_bytes: "int | None" = None
    #: accepted and ignored: ``"none"`` or ``"wal"``, one mode either way
    durability: str = "none"
    #: compiled-query cache capacity in entries (0 disables; None = default)
    compiled_cache_entries: "int | None" = None
    #: best-n result cache capacity in entries (0 disables; None = default)
    result_cache_entries: "int | None" = None
    #: file-opener replacement for fault injection (testing only)
    opener: "object | None" = None

    def merged(self, **overrides) -> "StoreOptions":
        """A copy with every non-``None`` override applied."""
        changes = {name: value for name, value in overrides.items() if value is not None}
        return replace(self, **changes) if changes else self


def _encode_segment(tree: DataTree, start: int) -> bytes:
    """The nodes from ``start`` on as one tree segment: the four columns
    of :data:`_COLUMNS`, each length-prefixed (parents are >= -1:
    shifted by one so the delta codec sees non-negatives).  Parent and
    bound values are absolute (they point into the full tree), so
    loading is pure concatenation."""
    labels = tree.labels[start:]
    joined = _LABEL_SEPARATOR.join(labels)
    if joined.count(_LABEL_SEPARATOR) != len(labels) - 1:
        label = next(label for label in labels if _LABEL_SEPARATOR in label)
        raise StorageError(f"label {label!r} contains the column separator")
    blobs = (
        joined.encode("utf-8"),
        bytes(tree.types[start:]),
        encode_delta_list(tree.parents[start:], shift=1),
        encode_delta_list(tree.bounds[start:]),
    )
    return b"".join(struct.pack(_LENGTH_FMT, len(blob)) + blob for blob in blobs)


def _decode_segment(value: bytes, start: int) -> tuple[list[str], bytearray, array, array]:
    """Inverse of :func:`_encode_segment`, straight into the typed
    buffers a :class:`DataTree` keeps: each column is decoded from a
    view of the one value, never sliced out of it first.  Labels are
    interned, so the column holds one ``str`` per distinct label."""
    where = f"tree segment at {start}"
    view = memoryview(value)
    blobs = []
    for name in _COLUMNS:
        try:
            (length,) = struct.unpack_from(_LENGTH_FMT, view)
        except struct.error:
            raise StorageError(f"corrupt {where} (tree column {name!r} is missing)") from None
        if len(view) < _LENGTH_SIZE + length:
            raise StorageError(f"corrupt {where} (tree column {name!r} is truncated)")
        blobs.append(view[_LENGTH_SIZE : _LENGTH_SIZE + length])
        view = view[_LENGTH_SIZE + length :]
    try:
        text = str(blobs[0], "utf-8")
    except UnicodeDecodeError as error:
        raise StorageError(f"corrupt {where} (labels column: {error})") from error
    # split piecewise: all the not-yet-interned copies at once would pin
    # every allocator arena one of the few survivors happens to sit in
    labels: list[str] = []
    at = 0
    while at <= len(text):
        stop = text.find(_LABEL_SEPARATOR, at + _LABEL_CHUNK)
        if stop == -1:
            stop = len(text)
        labels.extend(map(intern, text[at:stop].split(_LABEL_SEPARATOR)))
        at = stop + 1
    types = bytearray(blobs[1])
    if types.translate(None, b"\x00\x01"):
        raise StorageError(f"corrupt {where} (a types byte is not a node type)")
    parents, parents_end = decode_delta_array(blobs[2], shift=-1)
    bounds, bounds_end = decode_delta_array(blobs[3])
    if (parents_end, bounds_end) != (len(blobs[2]), len(blobs[3])) or not (
        len(labels) == len(types) == len(parents) == len(bounds)
    ):
        raise StorageError(f"inconsistent column lengths in {where}")
    return labels, types, parents, bounds


def _segment_key(start: int) -> bytes:
    # zero-padded so lexicographic key order equals start order
    return _SEGMENT_PREFIX + b"%016d" % start


def append_tree_segment(tree: DataTree, store: Store, start: int) -> int:
    """Persist the nodes from ``start`` on (an inserted document, or the
    whole tree at pre 0) as one tree segment, and refresh the total node
    count; returns the number of keys written (2)."""
    Namespace(store, TREE_NAMESPACE).put(_segment_key(start), _encode_segment(tree, start))
    Namespace(store, META_NAMESPACE).put(b"nodes", struct.pack("<Q", len(tree)))
    return 2


def save_tree(tree: DataTree, store: Store, insert_costs: CostModel) -> None:
    """Write the tree — the segment at pre 0, the one an insert into the
    empty collection writes — and its metadata into ``store``."""
    meta = Namespace(store, META_NAMESPACE)
    meta.put(b"version", struct.pack("<I", FORMAT_VERSION))
    insert_lines = [
        line
        for line in insert_costs.to_lines()
        if line.startswith("insert ") or line.startswith("default-insert ")
    ]
    meta.put(b"insertcosts", "\n".join(insert_lines).encode("utf-8"))
    append_tree_segment(tree, store, 0)


def _required(namespace: Namespace, key: bytes, what: str) -> bytes:
    try:
        return namespace.get(key)
    except KeyNotFoundError:
        raise StorageError(f"corrupt database ({what} {key.decode()!r} is missing)") from None


def save_dead_roots(tree: DataTree, store: Store) -> int:
    """Persist the tombstoned document roots (sorted delta list); returns
    the number of keys written (1)."""
    meta = Namespace(store, META_NAMESPACE)
    meta.put(b"deadroots", encode_delta_list(sorted(tree.dead_roots)))
    return 1


def load_tree(store: Store) -> tuple[DataTree, CostModel]:
    """Restore the tree (its segments, in historical append order),
    encoded under its build-time insert-cost table, and that table."""
    meta = Namespace(store, META_NAMESPACE)
    columns = Namespace(store, TREE_NAMESPACE)
    try:
        (version,) = struct.unpack("<I", meta.get(b"version"))
        (node_count,) = struct.unpack("<Q", meta.get(b"nodes"))
    except KeyNotFoundError as error:
        raise StorageError(
            "not an approXQL database (missing version metadata)"
        ) from error
    except struct.error as error:
        raise StorageError(f"corrupt database metadata ({error})") from error
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported database format version {version}")
    tree = DataTree()
    # key order is start order is append order
    for key, value in columns.scan():
        digits = key[len(_SEGMENT_PREFIX):]
        if not key.startswith(_SEGMENT_PREFIX) or not digits.isdigit():
            raise StorageError(f"corrupt tree segment key {key!r}")
        start = int(digits)
        if start != len(tree):
            raise StorageError(
                f"tree segment at {start} does not continue the column "
                f"(length {len(tree)})"
            )
        segment = _decode_segment(value, start)
        if not start:  # the saved tree: its columns become the tree's, uncopied
            tree.labels, tree.types, tree.parents, tree.bounds = segment
            continue
        for column, part in zip((tree.labels, tree.types, tree.parents, tree.bounds), segment):
            column.extend(part)
    if not len(tree):
        raise StorageError("corrupt database (tree segment at 0 is missing)")
    if len(tree) != node_count:
        raise StorageError(
            f"stored tree has {len(tree)} nodes, metadata says {node_count}"
        )
    tree.bounds[0] = node_count - 1  # later segments only persist their own columns
    # the stored columns are checked in bulk *before* anything is derived
    # from them; links and both cost columns then hold by construction
    validate_columns(tree)
    tree.inscosts = array("d", bytes(8 * node_count))
    tree.pathcosts = array("d", bytes(8 * node_count))
    tree.rebuild_links()

    try:
        dead_roots, _ = decode_delta_list(meta.get(b"deadroots"))
    except KeyNotFoundError:
        dead_roots = []
    tree.dead_roots = set(dead_roots)

    insert_costs = CostModel.from_lines(
        _required(meta, b"insertcosts", "metadata").decode("utf-8").splitlines()
    )
    tree.encode_costs(insert_costs.insert_cost, fingerprint=insert_costs.insert_fingerprint)
    return tree, insert_costs


def open_file_store(
    path: str,
    options: "StoreOptions | None" = None,
    must_exist: bool = False,
    fresh: bool = False,
) -> FileStore:
    """Open (or create) the single-file store of a database.

    ``options`` carries the knobs (see :class:`StoreOptions`; ``None``
    means all defaults); ``must_exist=True`` turns a missing or empty
    file into a typed error instead of creating it; ``fresh=True`` starts
    an empty store that replaces the file at its first commit."""
    options = options or StoreOptions()
    return FileStore(
        path,
        durability=options.durability,
        opener=options.opener,
        must_exist=must_exist,
        fresh=fresh,
    )


__all__ = [
    "FORMAT_VERSION",
    "StoreOptions",
    "append_tree_segment",
    "load_tree",
    "open_file_store",
    "save_dead_roots",
    "save_tree",
]
