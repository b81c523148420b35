"""Persistence of a built database (tree + node indexes) in the storage
engine.

``save`` writes the normalized data tree and its node postings into one
file store: the tree's columns and the ``I_struct``/``I_text`` node
postings.  ``load`` restores the tree into memory (results need it for
rendering); the opener then re-derives the schema — ``build_schema`` is
a pure function of the tree — whose instance columns serve ``I_sec``
and the planner statistics, and wires the direct evaluator to the
*stored* node indexes, so it fetches postings from disk exactly like
the paper's Berkeley-DB-backed implementation.

Format version 2 stores no ``I_sec`` postings and no statistics segment.
A version-1 store is refused with a typed error rather than migrated:
code that predates version 2 would answer schema-driven queries from the
missing ``I_sec`` keys with nothing.

Document mutation extends the layout without a format bump: an inserted
document's columns land as one *tree segment* under a ``seg<start>`` key
(:func:`append_tree_segment`), a deleted document's root joins the
``deadroots`` metadata list (:func:`save_dead_roots`), and the ``nodes``
count tracks the full (live + tombstoned) array length.  :func:`load_tree`
replays base columns, then segments in start order — data preorder equals
historical append order, which is what keeps the rebuilt schema numbering
identical to the one the incremental updates maintained.

Stored postings bake in the insert-cost table in force at save time;
loading records its fingerprint and queries with a different insert-cost
table are rejected (use an in-memory database for per-query insert
costs).
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
from ..xmltree.indexes import StoredNodeIndexes
from ..xmltree.model import DataTree
from ..xmltree.validate import validate_columns

META_NAMESPACE = b"meta"
TREE_NAMESPACE = b"tree"
FORMAT_VERSION = 2
_LABEL_SEPARATOR = "\x00"
_SEGMENT_PREFIX = b"seg"
_LENGTH_FMT = "<I"
_LABEL_CHUNK = 1 << 16  # characters of the labels column interned per step
_COLUMNS = (b"labels", b"types", b"parents", b"bounds")  # keys of the tree namespace


@dataclass(frozen=True)
class StoreOptions:
    """The single keyword surface for a database file's storage knobs.

    Shared by :meth:`repro.core.database.Database.open`,
    :meth:`~repro.core.database.Database.save`, and the CLI's
    ``--page-cache``/``--posting-cache``/``--durability``/
    ``--wal-checkpoint-kib`` options, so every entry point spells the
    same configuration the same way.  ``None`` keeps an engine default.

    ``opener`` is the fault-injection seam (an ``open(path, mode)``
    replacement threaded through to every file the pager touches); it
    exists for the crash matrix and stays ``None`` in normal operation.
    """

    #: LRU page-cache capacity in pages (0 disables; None = engine default)
    page_cache_pages: "int | None" = None
    #: decoded-posting cache budget in bytes (None = engine default)
    posting_cache_bytes: "int | None" = None
    #: ``"none"`` or ``"wal"``
    durability: str = "none"
    #: WAL size triggering a checkpoint (None = engine default)
    wal_checkpoint_bytes: "int | None" = None
    #: page size for newly created files (an existing file dictates its own)
    page_size: "int | None" = None
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


def _encode_columns(tree: DataTree, start: int = 0) -> tuple[bytes, ...]:
    """The four stored columns of the nodes from ``start`` on, in
    :data:`_COLUMNS` order (parents are >= -1: shifted by one so the
    delta codec sees non-negatives)."""
    labels = tree.labels[start:]
    joined = _LABEL_SEPARATOR.join(labels)
    if joined.count(_LABEL_SEPARATOR) != len(labels) - 1:
        label = next(label for label in labels if _LABEL_SEPARATOR in label)
        raise StorageError(f"label {label!r} contains the column separator")
    return (
        joined.encode("utf-8"),
        bytes(tree.types[start:]),
        encode_delta_list(tree.parents[start:], shift=1),
        encode_delta_list(tree.bounds[start:]),
    )


def _decode_columns(blobs, where: str) -> tuple[list[str], bytearray, array, array]:
    """Inverse of :func:`_encode_columns`, straight into the typed
    buffers a :class:`DataTree` keeps; labels are interned, so the
    column holds one ``str`` per distinct label."""
    try:
        text = blobs[0].decode("utf-8")
    except UnicodeDecodeError as error:
        raise StorageError(f"corrupt {where} (labels column: {error})") from error
    # split piecewise: all the not-yet-interned copies at once would pin
    # every allocator arena one of the few survivors happens to sit in
    labels: list[str] = []
    start = 0
    while start <= len(text):
        stop = text.find(_LABEL_SEPARATOR, start + _LABEL_CHUNK)
        if stop == -1:
            stop = len(text)
        labels.extend(map(intern, text[start:stop].split(_LABEL_SEPARATOR)))
        start = stop + 1
    types = bytearray(blobs[1])
    if types.translate(None, b"\x00\x01"):
        raise StorageError(f"corrupt {where} (a types byte is not a node type)")
    parents, _ = decode_delta_array(blobs[2], shift=-1)
    bounds, _ = decode_delta_array(blobs[3])
    if not (len(labels) == len(types) == len(parents) == len(bounds)):
        raise StorageError(f"inconsistent column lengths in {where}")
    return labels, types, parents, bounds


def save_tree(tree: DataTree, store: Store, insert_costs: CostModel) -> None:
    """Write the tree's columns and metadata into ``store``."""
    meta = Namespace(store, META_NAMESPACE)
    columns = Namespace(store, TREE_NAMESPACE)
    blobs = _encode_columns(tree)
    meta.put(b"version", struct.pack("<I", FORMAT_VERSION))
    meta.put(b"nodes", struct.pack("<Q", len(tree)))
    meta.put(b"insertfp", repr(insert_costs.insert_fingerprint).encode("utf-8"))
    insert_lines = [
        line
        for line in insert_costs.to_lines()
        if line.startswith("insert ") or line.startswith("default-insert ")
    ]
    meta.put(b"insertcosts", "\n".join(insert_lines).encode("utf-8"))
    for name, blob in zip(_COLUMNS, blobs):
        columns.put(name, blob)


def _segment_key(start: int) -> bytes:
    # zero-padded so lexicographic key order equals start order
    return _SEGMENT_PREFIX + b"%016d" % start


def append_tree_segment(tree: DataTree, store: Store, start: int) -> None:
    """Persist the columns of the document grafted at ``start`` as one
    tree segment, and refresh the total node count.

    The segment value holds the four column slices, each length-prefixed;
    parent and bound values are absolute (they already point into the
    full tree), so loading is pure concatenation.
    """
    columns = Namespace(store, TREE_NAMESPACE)
    meta = Namespace(store, META_NAMESPACE)
    value = b"".join(
        struct.pack(_LENGTH_FMT, len(blob)) + blob for blob in _encode_columns(tree, start)
    )
    columns.put(_segment_key(start), value)
    meta.put(b"nodes", struct.pack("<Q", len(tree)))


def _decode_segment(value: bytes) -> tuple[list[str], bytearray, array, array]:
    blobs = []
    offset = 0
    length_size = struct.calcsize(_LENGTH_FMT)
    for _ in range(4):
        if offset + length_size > len(value):
            raise StorageError("corrupt tree segment (truncated length prefix)")
        (length,) = struct.unpack_from(_LENGTH_FMT, value, offset)
        offset += length_size
        if offset + length > len(value):
            raise StorageError("corrupt tree segment (truncated column)")
        blobs.append(value[offset : offset + length])
        offset += length
    return _decode_columns(blobs, "tree segment")


def _required(namespace: Namespace, key: bytes, what: str) -> bytes:
    try:
        return namespace.get(key)
    except KeyNotFoundError:
        raise StorageError(f"corrupt database ({what} {key.decode()!r} is missing)") from None


def save_dead_roots(tree: DataTree, store: Store) -> None:
    """Persist the tombstoned document roots (sorted delta list)."""
    meta = Namespace(store, META_NAMESPACE)
    meta.put(b"deadroots", encode_delta_list(sorted(tree.dead_roots)))


def load_tree(store: Store) -> tuple[DataTree, CostModel, str]:
    """Restore the tree (base columns plus any mutation segments, in
    historical append order), its build-time insert-cost table, and the
    fingerprint string recorded at save time."""
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
    tree.labels, tree.types, tree.parents, tree.bounds = _decode_columns(
        [_required(columns, name, "tree column") for name in _COLUMNS], "stored database"
    )

    # mutation segments: key order is start order is append order
    for key, value in columns.scan():
        if not key.startswith(_SEGMENT_PREFIX):
            continue
        try:
            start = int(key[len(_SEGMENT_PREFIX):])
        except ValueError as error:
            raise StorageError(f"corrupt tree segment key {key!r}") from error
        if start != len(tree):
            raise StorageError(
                f"tree segment at {start} does not continue the column "
                f"(length {len(tree)})"
            )
        for column, segment in zip(
            (tree.labels, tree.types, tree.parents, tree.bounds), _decode_segment(value)
        ):
            column.extend(segment)
    if len(tree) != node_count:
        raise StorageError(
            f"stored tree has {len(tree)} nodes, metadata says {node_count}"
        )
    tree.bounds[0] = node_count - 1  # grafts only persist their own columns
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
    fingerprint = _required(meta, b"insertfp", "metadata").decode("utf-8")
    return tree, insert_costs, fingerprint


def open_file_store(
    path: str,
    options: "StoreOptions | None" = None,
    must_exist: bool = False,
) -> FileStore:
    """Open (or create) the single-file store of a database.

    ``options`` carries the storage knobs (see :class:`StoreOptions`;
    ``None`` means all defaults); ``must_exist=True`` turns a missing or
    empty file into a typed error instead of creating it."""
    options = options or StoreOptions()
    kwargs: dict = {
        "durability": options.durability,
        "wal_checkpoint_bytes": options.wal_checkpoint_bytes,
        "must_exist": must_exist,
    }
    if options.page_cache_pages is not None:
        kwargs["cache_pages"] = options.page_cache_pages
    if options.page_size is not None:
        kwargs["page_size"] = options.page_size
    if options.opener is not None:
        kwargs["opener"] = options.opener
    return FileStore(path, **kwargs)


__all__ = [
    "FORMAT_VERSION",
    "StoreOptions",
    "append_tree_segment",
    "load_tree",
    "open_file_store",
    "save_dead_roots",
    "save_tree",
    "StoredNodeIndexes",
]
