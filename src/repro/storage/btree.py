"""An on-disk B+tree mapping byte keys to byte values.

This is the index structure behind the persistent key-value store that
replaces Berkeley DB in our reproduction.  Design points:

* **Leaf chaining** — leaves form a singly linked list so range scans
  (the tree segments, a namespace's labels) stream in key order without
  touching inner nodes.
* **Overflow chains** — posting lists easily exceed one page, so values
  larger than an inline threshold are stored in a chain of overflow pages
  and the leaf keeps only ``(total_length, first_page)``.
* **Size-based splits** — nodes are serialized after each mutation; a node
  that no longer fits its page is split at the median key.  Deletions
  remove entries without rebalancing (underfull nodes are legal), which
  keeps the code small and is sufficient for the read-mostly index
  workloads of the paper.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from ..errors import CorruptPageError, KeyNotFoundError, StorageError
from ..telemetry.collector import count as _telemetry_count
from .pager import Pager
from .varint import decode_uvarint, encode_uvarint

_LEAF = 1
_INTERNAL = 0
_INLINE_VALUE = 0
_OVERFLOW_VALUE = 1
_NO_PAGE = 0
_META_KEY_ROOT = 1

# Fraction of the page payload a single inline value may occupy before it
# is pushed to overflow pages.  Keeping this below ~1/4 guarantees a leaf
# can always hold at least a couple of entries, so splits terminate.
_INLINE_FRACTION = 4

# Decoded nodes kept by the LRU node cache.  Point lookups and updates
# re-walk the same root-to-leaf paths over and over (a document mutation
# rewrites hundreds of adjacent index keys), and deserializing a node is
# far costlier than reading its page from the pager's cache.
_NODE_CACHE_SIZE = 128


class _Node:
    """In-memory image of one B+tree page."""

    __slots__ = ("page_no", "is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, page_no: int, is_leaf: bool) -> None:
        self.page_no = page_no
        self.is_leaf = is_leaf
        self.keys: list[bytes] = []
        # leaf: parallel to keys; each value is (tag, payload) where payload
        # is bytes for inline values and (total_len, first_page) otherwise.
        self.values: list[tuple[int, object]] = []
        # internal: len(children) == len(keys) + 1
        self.children: list[int] = []
        self.next_leaf = _NO_PAGE


class BTree:
    """B+tree over a :class:`~repro.storage.pager.Pager`.

    The tree persists its root page number inside a tiny metadata page so
    reopening the file restores the index.
    """

    def __init__(
        self,
        pager: Pager,
        meta_page: int | None = None,
        node_cache_size: int | None = None,
    ) -> None:
        self._pager = pager
        self._inline_limit = pager.payload_size // _INLINE_FRACTION
        # decoded-node LRU: page number -> the live _Node image.  Writers
        # mutate these objects in place and every successful node write
        # re-registers them, so the cache always mirrors the tree the
        # current process sees.  Scans bypass it (they iterate private
        # copies so an interleaved put cannot disturb a running cursor).
        # Size 0 disables it, keeping every page read visible to the
        # pager's I/O accounting.
        self._node_cache_size = (
            _NODE_CACHE_SIZE if node_cache_size is None else node_cache_size
        )
        self._node_cache: dict[int, _Node] = {}
        if meta_page is None:
            self._meta_page = self._allocate()
            root = _Node(self._allocate(), is_leaf=True)
            self._write_node(root)
            self._root_page = root.page_no
            self._write_meta()
        else:
            self._meta_page = meta_page
            self._read_meta()

    @property
    def meta_page(self) -> int:
        """Page number to pass back to reopen this tree."""
        return self._meta_page

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes:
        """Return the value stored under ``key``.

        Raises :class:`~repro.errors.KeyNotFoundError` if absent.
        """
        node = self._read_node(self._root_page)
        while not node.is_leaf:
            node = self._read_node(node.children[self._child_index(node, key)])
        index = self._leaf_index(node, key)
        if index is None:
            raise KeyNotFoundError(key)
        return self._load_value(node.values[index])

    def contains(self, key: bytes) -> bool:
        """Return whether ``key`` is present."""
        try:
            self.get(key)
        except KeyNotFoundError:
            return False
        return True

    def put(self, key: bytes, value: bytes) -> None:
        """Insert ``key`` -> ``value``, replacing any previous value.

        Keys are limited to an eighth of the page payload so that any
        two entries always fit one page after a split.
        """
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise StorageError("BTree keys and values must be bytes")
        if len(key) > self._pager.payload_size // 8:
            raise StorageError(
                f"key of {len(key)} bytes exceeds the maximum of "
                f"{self._pager.payload_size // 8} for this page size"
            )
        split = self._insert(self._root_page, key, value)
        if split is not None:
            middle_key, right_page = split
            new_root = _Node(self._allocate(), is_leaf=False)
            new_root.keys = [middle_key]
            new_root.children = [self._root_page, right_page]
            self._write_node(new_root)
            self._root_page = new_root.page_no
            self._write_meta()

    def bulk_load(self, pairs: "list[tuple[bytes, bytes]]", fill: float = 0.9) -> None:
        """Build the tree bottom-up from sorted unique (key, value) pairs.

        Orders of magnitude faster than repeated :meth:`put` — leaves are
        packed left to right (to ``fill`` of the page, leaving slack for
        later updates), then each internal level is packed over the one
        below.  Only valid on an empty tree.
        """
        if next(self.scan(), None) is not None:
            raise StorageError("bulk_load requires an empty tree")
        if not 0.1 <= fill <= 1.0:
            raise StorageError(f"fill factor {fill} outside [0.1, 1.0]")
        for (left_key, _), (right_key, _) in zip(pairs, pairs[1:]):
            if left_key >= right_key:
                raise StorageError("bulk_load needs strictly ascending unique keys")
        if not pairs:
            return
        budget = int(self._pager.payload_size * fill)

        # ---- leaf level ------------------------------------------------
        leaves: list[tuple[bytes, _Node]] = []  # (first key, node)
        current = _Node(self._allocate(), is_leaf=True)
        current_size = 10  # header: type byte + count varint + next link
        for key, value in pairs:
            if not isinstance(key, bytes) or not isinstance(value, bytes):
                raise StorageError("BTree keys and values must be bytes")
            if len(key) > self._pager.payload_size // 8:
                raise StorageError(f"key of {len(key)} bytes exceeds the maximum")
            stored = self._store_value(value)
            entry_size = len(key) + 5 + self._stored_value_size(stored)
            if current.keys and current_size + entry_size > budget:
                leaves.append((current.keys[0], current))
                fresh = _Node(self._allocate(), is_leaf=True)
                current.next_leaf = fresh.page_no
                self._write_node(current)
                current = fresh
                current_size = 10
            current.keys.append(key)
            current.values.append(stored)
            current_size += entry_size
        leaves.append((current.keys[0], current))
        self._write_node(current)

        # ---- internal levels -------------------------------------------
        # level entries are (smallest key in subtree, node); the smallest
        # key of a sibling becomes the separator inside (or between)
        # parents one level up
        level = leaves
        while len(level) > 1:
            parents: list[tuple[bytes, _Node]] = []
            parent = _Node(self._allocate(), is_leaf=False)
            parent.children.append(level[0][1].page_no)
            parent_min = level[0][0]
            parent_size = 20
            for min_key, child in level[1:]:
                entry_size = len(min_key) + 5 + 8
                if parent.keys and parent_size + entry_size > budget:
                    parents.append((parent_min, parent))
                    self._write_node(parent)
                    parent = _Node(self._allocate(), is_leaf=False)
                    parent.children.append(child.page_no)
                    parent_min = min_key
                    parent_size = 20
                    continue
                parent.keys.append(min_key)
                parent.children.append(child.page_no)
                parent_size += entry_size
            parents.append((parent_min, parent))
            self._write_node(parent)
            level = parents
        self._pager.free(self._root_page)  # the empty pre-bulk root leaf
        self._node_cache.pop(self._root_page, None)
        self._root_page = level[0][1].page_no
        self._write_meta()

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` if absent."""
        node = self._read_node(self._root_page)
        while not node.is_leaf:
            node = self._read_node(node.children[self._child_index(node, key)])
        index = self._leaf_index(node, key)
        if index is None:
            raise KeyNotFoundError(key)
        self._free_value(node.values[index])
        del node.keys[index]
        del node.values[index]
        self._write_node(node)

    def scan(
        self, start: bytes = b"", end: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with ``start <= key < end`` in order."""
        node = self._read_node_copy(self._root_page)
        while not node.is_leaf:
            node = self._read_node_copy(node.children[self._child_index(node, start)])
        while True:
            for index, key in enumerate(node.keys):
                if key < start:
                    continue
                if end is not None and key >= end:
                    return
                yield key, self._load_value(node.values[index])
            if node.next_leaf == _NO_PAGE:
                return
            node = self._read_node_copy(node.next_leaf)

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield all pairs whose key starts with ``prefix``."""
        for key, value in self.scan(start=prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def keys(self) -> Iterator[bytes]:
        """Yield every key in order."""
        for key, _ in self.scan():
            yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def _insert(
        self, page_no: int, key: bytes, value: bytes
    ) -> tuple[bytes, int] | None:
        """Insert into the subtree at ``page_no``.

        Returns ``(separator_key, new_right_page)`` when the node split,
        otherwise ``None``.
        """
        node = self._read_node(page_no)
        if node.is_leaf:
            index = self._leaf_index(node, key)
            if index is not None:
                self._free_value(node.values[index])
                node.values[index] = self._store_value(value)
            else:
                position = self._insert_position(node.keys, key)
                node.keys.insert(position, key)
                node.values.insert(position, self._store_value(value))
        else:
            child_index = self._child_index(node, key)
            split = self._insert(node.children[child_index], key, value)
            if split is None:
                return None
            middle_key, right_page = split
            node.keys.insert(child_index, middle_key)
            node.children.insert(child_index + 1, right_page)
        return self._write_or_split(node)

    def _write_or_split(self, node: _Node) -> tuple[bytes, int] | None:
        serialized = self._serialize(node)
        if len(serialized) <= self._pager.payload_size:
            self._pager.write(node.page_no, serialized)
            self._cache_node(node)
            return None
        return self._split(node)

    def _split(self, node: _Node) -> tuple[bytes, int]:
        middle = self._split_point(node)
        right = _Node(self._allocate(), node.is_leaf)
        if node.is_leaf:
            right.keys = node.keys[middle:]
            right.values = node.values[middle:]
            right.next_leaf = node.next_leaf
            node.keys = node.keys[:middle]
            node.values = node.values[:middle]
            node.next_leaf = right.page_no
            separator = right.keys[0]
        else:
            separator = node.keys[middle]
            right.keys = node.keys[middle + 1 :]
            right.children = node.children[middle + 1 :]
            node.keys = node.keys[:middle]
            node.children = node.children[: middle + 1]
        self._write_node(node)
        self._write_node(right)
        return separator, right.page_no

    def _split_point(self, node: _Node) -> int:
        """Split index balancing *serialized bytes*, not entry counts —
        a count-median split can leave a byte-heavy half still oversized
        when entry sizes vary (e.g. one big inline value among small
        ones).  Inline values are capped at a quarter page and keys at an
        eighth, so the byte-balanced split always yields two fitting
        halves."""
        if len(node.keys) < 2:
            raise StorageError("page too small to hold two entries; raise page_size")
        if node.is_leaf:
            sizes = [
                len(key) + self._stored_value_size(value)
                for key, value in zip(node.keys, node.values)
            ]
        else:
            sizes = [len(key) + 8 for key in node.keys]
        total = sum(sizes)
        accumulated = 0
        for index in range(len(sizes) - 1):
            accumulated += sizes[index]
            if accumulated * 2 >= total:
                return index + 1
        return len(sizes) - 1

    @staticmethod
    def _stored_value_size(stored: tuple[int, object]) -> int:
        tag, payload = stored
        if tag == _INLINE_VALUE:
            assert isinstance(payload, bytes)
            return len(payload) + 3
        return 18

    # ------------------------------------------------------------------
    # value storage (inline vs. overflow chain)
    # ------------------------------------------------------------------

    def _store_value(self, value: bytes) -> tuple[int, object]:
        if len(value) <= self._inline_limit:
            return (_INLINE_VALUE, value)
        chunk_size = self._pager.payload_size - 8  # room for the next-page link
        first_page = _NO_PAGE
        previous_payloads: list[tuple[int, bytes]] = []
        offset = 0
        pages: list[int] = []
        while offset < len(value):
            pages.append(self._allocate())
            offset += chunk_size
        offset = 0
        for index, page_no in enumerate(pages):
            next_page = pages[index + 1] if index + 1 < len(pages) else _NO_PAGE
            chunk = value[offset : offset + chunk_size]
            previous_payloads.append((page_no, struct.pack("<Q", next_page) + chunk))
            offset += chunk_size
        for page_no, payload in previous_payloads:
            self._pager.write(page_no, payload)
        first_page = pages[0] if pages else _NO_PAGE
        return (_OVERFLOW_VALUE, (len(value), first_page))

    def _load_value(self, stored: tuple[int, object]) -> bytes:
        tag, payload = stored
        if tag == _INLINE_VALUE:
            assert isinstance(payload, bytes)
            return payload
        _telemetry_count("btree.overflow_values_read")
        total_len, page_no = payload  # type: ignore[misc]
        chunks = []
        remaining = total_len
        chunk_size = self._pager.payload_size - 8
        while page_no != _NO_PAGE and remaining > 0:
            raw = self._pager.read(page_no)
            (page_no,) = struct.unpack_from("<Q", raw, 0)
            take = min(remaining, chunk_size)
            chunks.append(raw[8 : 8 + take])
            remaining -= take
        value = b"".join(chunks)
        if len(value) != total_len:
            raise CorruptPageError("overflow chain shorter than recorded length")
        return value

    def _free_value(self, stored: tuple[int, object]) -> None:
        tag, payload = stored
        if tag == _INLINE_VALUE:
            return
        total_len, page_no = payload  # type: ignore[misc]
        remaining = total_len
        chunk_size = self._pager.payload_size - 8
        while page_no != _NO_PAGE and remaining > 0:
            raw = self._pager.read(page_no)
            next_page = struct.unpack_from("<Q", raw, 0)[0]
            self._pager.free(page_no)
            page_no = next_page
            remaining -= chunk_size

    # ------------------------------------------------------------------
    # node serialization
    # ------------------------------------------------------------------

    def _serialize(self, node: _Node) -> bytes:
        out = bytearray()
        out.append(_LEAF if node.is_leaf else _INTERNAL)
        encode_uvarint(len(node.keys), out)
        if node.is_leaf:
            out += struct.pack("<Q", node.next_leaf)
            for key, (tag, payload) in zip(node.keys, node.values):
                encode_uvarint(len(key), out)
                out += key
                out.append(tag)
                if tag == _INLINE_VALUE:
                    assert isinstance(payload, bytes)
                    encode_uvarint(len(payload), out)
                    out += payload
                else:
                    total_len, first_page = payload  # type: ignore[misc]
                    encode_uvarint(total_len, out)
                    out += struct.pack("<Q", first_page)
        else:
            for child in node.children:
                out += struct.pack("<Q", child)
            for key in node.keys:
                encode_uvarint(len(key), out)
                out += key
        return bytes(out)

    def _deserialize(self, page_no: int, data: bytes) -> _Node:
        if not data:
            raise CorruptPageError(f"empty B+tree page {page_no}")
        is_leaf = data[0] == _LEAF
        node = _Node(page_no, is_leaf)
        count, pos = decode_uvarint(data, 1)
        if is_leaf:
            (node.next_leaf,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            for _ in range(count):
                key_len, pos = decode_uvarint(data, pos)
                key = data[pos : pos + key_len]
                pos += key_len
                tag = data[pos]
                pos += 1
                if tag == _INLINE_VALUE:
                    value_len, pos = decode_uvarint(data, pos)
                    value: tuple[int, object] = (tag, data[pos : pos + value_len])
                    pos += value_len
                else:
                    total_len, pos = decode_uvarint(data, pos)
                    (first_page,) = struct.unpack_from("<Q", data, pos)
                    pos += 8
                    value = (tag, (total_len, first_page))
                node.keys.append(key)
                node.values.append(value)
        else:
            for _ in range(count + 1):
                (child,) = struct.unpack_from("<Q", data, pos)
                pos += 8
                node.children.append(child)
            for _ in range(count):
                key_len, pos = decode_uvarint(data, pos)
                node.keys.append(data[pos : pos + key_len])
                pos += key_len
        return node

    def _allocate(self) -> int:
        """Allocate a page, dropping any decoded node cached for a prior
        life of that page number (the pager recycles freed pages)."""
        page_no = self._pager.allocate()
        self._node_cache.pop(page_no, None)
        return page_no

    def _cache_node(self, node: _Node) -> None:
        if self._node_cache_size == 0:
            return
        cache = self._node_cache
        cache.pop(node.page_no, None)
        cache[node.page_no] = node
        if len(cache) > self._node_cache_size:
            cache.pop(next(iter(cache)))

    def _read_node(self, page_no: int) -> _Node:
        _telemetry_count("btree.node_visits")
        node = self._node_cache.get(page_no)
        if node is not None:
            _telemetry_count("btree.node_cache_hits")
            self._cache_node(node)  # refresh LRU position
            return node
        node = self._deserialize(page_no, self._pager.read(page_no))
        self._cache_node(node)
        return node

    def _read_node_copy(self, page_no: int) -> _Node:
        """A private decoded image for cursors: scans iterate node lists
        while callers may interleave puts, so they must never alias the
        cached (writer-mutated) objects."""
        _telemetry_count("btree.node_visits")
        return self._deserialize(page_no, self._pager.read(page_no))

    def _write_node(self, node: _Node) -> None:
        data = self._serialize(node)
        if len(data) > self._pager.payload_size:
            raise StorageError("internal error: writing oversized node without split")
        self._pager.write(node.page_no, data)
        self._cache_node(node)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------

    def _write_meta(self) -> None:
        self._pager.write(self._meta_page, struct.pack("<BQ", _META_KEY_ROOT, self._root_page))

    def _read_meta(self) -> None:
        raw = self._pager.read(self._meta_page)
        tag, root = struct.unpack_from("<BQ", raw, 0)
        if tag != _META_KEY_ROOT:
            raise CorruptPageError("bad B+tree metadata page")
        self._root_page = root

    # ------------------------------------------------------------------
    # search helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _insert_position(keys: list[bytes], key: bytes) -> int:
        low, high = 0, len(keys)
        while low < high:
            mid = (low + high) // 2
            if keys[mid] < key:
                low = mid + 1
            else:
                high = mid
        return low

    @classmethod
    def _child_index(cls, node: _Node, key: bytes) -> int:
        """Index of the child subtree that may contain ``key``."""
        low, high = 0, len(node.keys)
        while low < high:
            mid = (low + high) // 2
            if node.keys[mid] <= key:
                low = mid + 1
            else:
                high = mid
        return low

    @classmethod
    def _leaf_index(cls, node: _Node, key: bytes) -> int | None:
        position = cls._insert_position(node.keys, key)
        if position < len(node.keys) and node.keys[position] == key:
            return position
        return None
