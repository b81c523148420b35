"""Key-value store façade over the B+tree (the Berkeley-DB stand-in).

The paper's system is "implemented in C++ on top of the Berkeley DB"; the
algorithms only ever *fetch a posting by key* and *scan keys in order*.
This module provides exactly that contract behind a small interface with
two interchangeable backends:

* :class:`MemoryStore` — a sorted-dict store for tests and benchmarks that
  should not measure disk overheads.
* :class:`FileStore` — a persistent store backed by the pager and B+tree.

Logical namespaces (one per stored structure: the tree columns,
metadata, ...) share one store through
:class:`Namespace`, which prefixes keys with a table tag.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from ..errors import KeyNotFoundError, StorageError
from .btree import BTree
from .pager import DEFAULT_CACHE_PAGES, DEFAULT_PAGE_SIZE, CountedLock, Pager


class Store:
    """Abstract ordered key-value store.

    Every store carries a **generation** counter that advances on any
    mutation (``put`` / ``delete`` / ``bulk_load``).  Read-side caches —
    the best-n result cache above all — tag their entries with the
    generation they observed and treat a changed generation as an
    invalidation, so a write anywhere in the store can never serve stale
    answers.

    Concrete stores are **thread-safe**: every operation (including the
    mutation *together with* its generation bump) runs under one
    store-wide lock, so a reader can never observe a half-applied write
    or a generation that disagrees with the bytes it just read.  Readers
    that cache decoded values must snapshot ``generation`` *before* the
    ``get`` and tag the cache entry with that snapshot — a write racing
    the read then at worst wastes one cache entry, never serves a stale
    one.
    """

    #: mutation counter; subclasses bump it on every write
    generation: int = 0

    def get(self, key: bytes) -> bytes:
        """Return the value under ``key``; raises KeyNotFoundError."""
        raise NotImplementedError

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or replace ``key`` -> ``value``."""
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raises KeyNotFoundError when absent."""
        raise NotImplementedError

    def contains(self, key: bytes) -> bool:
        """Whether ``key`` is present."""
        try:
            self.get(key)
        except KeyNotFoundError:
            return False
        return True

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) pairs with ``start <= key < end`` in order."""
        raise NotImplementedError

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield all pairs whose key starts with ``prefix``."""
        for key, value in self.scan(start=prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def bulk_load(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Load sorted unique pairs into an empty store (fast path for
        index construction; the default falls back to puts)."""
        for key, value in pairs:
            self.put(key, value)

    def sync(self) -> None:
        """Flush pending writes (no-op for memory stores)."""

    def close(self) -> None:
        """Release resources (no-op for memory stores)."""

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class MemoryStore(Store):
    """In-memory ordered store (sorted key list + dict).

    Single dict reads are already atomic under the interpreter, so
    ``get`` / ``contains`` stay lock-free; the lock covers the compound
    operations — a ``put``/``delete`` touches the dict, the sorted key
    list, *and* the generation, and ``scan`` snapshots a consistent
    (keys, values) view.  New keys are appended and the list is sorted
    when an ordered operation next needs it: a bulk build (tens of
    thousands of puts, then one scan) pays one sort instead of an
    insertion into the middle of the list per key.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self._sorted_keys: list[bytes] = []
        self._keys_sorted = True
        self._lock = CountedLock("concurrency.store_lock_waits")
        self.generation = 0

    def get(self, key: bytes) -> bytes:
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise StorageError("store keys and values must be bytes")
        with self._lock:
            if key not in self._data:
                self._sorted_keys.append(key)
                self._keys_sorted = False
            self._data[key] = value
            self.generation += 1

    def _ordered_keys(self) -> list[bytes]:
        """The key list, sorted (call with the lock held)."""
        if not self._keys_sorted:
            self._sorted_keys.sort()
            self._keys_sorted = True
        return self._sorted_keys

    def delete(self, key: bytes) -> None:
        with self._lock:
            if key not in self._data:
                raise KeyNotFoundError(key)
            del self._data[key]
            keys = self._ordered_keys()
            del keys[bisect.bisect_left(keys, key)]
            self.generation += 1

    def contains(self, key: bytes) -> bool:
        return key in self._data

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        with self._lock:
            keys = self._ordered_keys()
            index = bisect.bisect_left(keys, start)
            # Snapshot a consistent view so mutation during iteration can
            # neither skip keys nor pair a key with a missing value.
            pairs = [(key, self._data[key]) for key in keys[index:]]
        for key, value in pairs:
            if end is not None and key >= end:
                return
            yield key, value

    def __len__(self) -> int:
        return len(self._data)


class FileStore(Store):
    """Persistent store backed by :class:`Pager` + :class:`BTree`.

    ``cache_pages`` sizes the pager's LRU page cache (0 disables it);
    ``durability`` selects the crash story (``"none"`` or ``"wal"`` —
    see :class:`~repro.storage.pager.Pager`); ``wal_checkpoint_bytes``,
    ``opener``, and ``must_exist`` pass straight through to the pager.
    """

    def __init__(
        self,
        path: str,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
        durability: str = "none",
        wal_checkpoint_bytes: "int | None" = None,
        opener=None,
        must_exist: bool = False,
    ) -> None:
        pager_kwargs = {}
        if wal_checkpoint_bytes is not None:
            pager_kwargs["wal_checkpoint_bytes"] = wal_checkpoint_bytes
        self._pager = Pager(
            path,
            page_size=page_size,
            cache_pages=cache_pages,
            durability=durability,
            opener=opener,
            must_exist=must_exist,
            **pager_kwargs,
        )
        # Crash recovery replayed logged pages into the file: advance the
        # generation so any cache entry recorded against an earlier open
        # of this store is dropped, never served stale.
        self.generation = 1 if self._pager.recovered_frames else 0
        # A fresh pager has only the header page; the B+tree then allocates
        # its meta page as page 1.  An existing file reopens from page 1.
        # cache_pages=0 also disables the B+tree's decoded-node cache, so
        # "caches off" keeps every page read visible to the I/O counters.
        node_cache_size = 0 if cache_pages == 0 else None
        if self._pager.page_count == 1:
            self._tree = BTree(self._pager, node_cache_size=node_cache_size)
        else:
            self._tree = BTree(
                self._pager, meta_page=1, node_cache_size=node_cache_size
            )
        # One coarse lock over the B+tree: a tree operation touches many
        # pages (splits, sibling links), so per-page locking in the pager
        # cannot make a *tree* operation atomic.  Reentrant because
        # commit/checkpoint/close nest through each other.
        self._lock = CountedLock("concurrency.store_lock_waits", reentrant=True)

    @property
    def durability(self) -> str:
        """The pager's durability mode (``"none"`` or ``"wal"``)."""
        return self._pager.durability

    @property
    def page_cache_bytes(self) -> int:
        """Bytes the pager's page cache holds right now."""
        return self._pager.cache_bytes

    def commit(self) -> None:
        """Make every write since the last commit atomically durable
        (the WAL commit point; plain :meth:`sync` in ``"none"`` mode)."""
        with self._lock:
            self._pager.commit()

    def checkpoint(self) -> None:
        """Commit, then fold the write-ahead log into the main file."""
        with self._lock:
            self._pager.checkpoint()

    def get(self, key: bytes) -> bytes:
        with self._lock:
            return self._tree.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._tree.put(key, value)
            self.generation += 1

    def delete(self, key: bytes) -> None:
        with self._lock:
            self._tree.delete(key)
            self.generation += 1

    def contains(self, key: bytes) -> bool:
        with self._lock:
            return self._tree.contains(key)

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        # Materialize under the lock: a B+tree cursor walks sibling links
        # that a concurrent split rewires, so lazily yielding pairs while
        # writers run would read pages mid-reorganization.
        with self._lock:
            return iter(list(self._tree.scan(start=start, end=end)))

    def bulk_load(self, pairs: list[tuple[bytes, bytes]]) -> None:
        with self._lock:
            self._tree.bulk_load(pairs)
            self.generation += 1

    def sync(self) -> None:
        with self._lock:
            self._pager.sync()

    def close(self) -> None:
        with self._lock:
            self._pager.close()


class Namespace(Store):
    """A logical table inside a shared store, realized by key prefixing."""

    def __init__(self, store: Store, tag: bytes) -> None:
        if b"\x00" in tag:
            raise StorageError("namespace tags must not contain NUL bytes")
        self._store = store
        self._prefix = tag + b"\x00"

    @property
    def generation(self) -> int:  # type: ignore[override]
        """The underlying store's mutation counter (namespaces share it)."""
        return self._store.generation

    def get(self, key: bytes) -> bytes:
        return self._store.get(self._prefix + key)

    def put(self, key: bytes, value: bytes) -> None:
        self._store.put(self._prefix + key, value)

    def delete(self, key: bytes) -> None:
        self._store.delete(self._prefix + key)

    def contains(self, key: bytes) -> bool:
        return self._store.contains(self._prefix + key)

    def scan(self, start: bytes = b"", end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        prefix_len = len(self._prefix)
        scan_end = None if end is None else self._prefix + end
        for key, value in self._store.scan(start=self._prefix + start, end=scan_end):
            if not key.startswith(self._prefix):
                return
            yield key[prefix_len:], value

    def sync(self) -> None:
        self._store.sync()
