"""Read-path cache above the storage engine.

:class:`PostingCache` is a byte-budgeted LRU of **decoded posting
lists**, shared across queries and across index objects.  The stored
node indexes (``StoredNodeIndexes``) consult it before hitting the
key-value store, so repeated queries reuse decoded lists instead of
re-decoding varint by varint.  (Second-level queries never come here:
``I_sec`` is the in-memory schema's instance columns.)  A second key plane
(:meth:`PostingCache.get_derived` / ``put_derived``) holds **derived
builds** — the evaluation kernel's columnar fetch lists, together with
whatever sparse tables have lazily grown on them — under the same byte
budget and the same generation invalidation, so repeat queries skip
posting-to-column construction entirely.

Invalidation contract
---------------------
``PostingCache`` entries are tagged with the owning store's
**generation** (a counter every :class:`~repro.storage.kv.Store` bumps
on any ``put`` / ``delete`` / ``bulk_load``).  A lookup that observes a
different generation than the entry recorded is a miss and drops the
stale entry — so *any* write to the store invalidates every cached
posting, lazily, without the writer knowing about the cache.

One memo sits above it: the fetch memo of the Figure 4 recursion
(:mod:`repro.engine.primary`), a plain dict of the lists one evaluator
fetched for one expanded query.  It is never invalidated — its
correctness comes from its bounded lifetime: it is emptied when the
evaluator is handed another expanded query, and the evaluator lives for
one evaluation (direct) or the rounds of one query (top-*k*), during
which the underlying indexes are not mutated.  Cross-query reuse happens
one level below, here.

Cached columns and sparse tables obey the same two-level contract: the
``EvalColumns`` the fetch memo holds live for one query of one
evaluator; the ``EvalColumns`` the derived plane of ``PostingCache`` (or
the fingerprint-tagged memo of the in-memory indexes) holds live until
the store generation (or insert-cost fingerprint) moves.  Both kinds are
immutable shared objects, and the sparse tables lazily built on them are
pure functions of their columns — safe to grow on a cached object and
reuse from any later query.

Thread-safety contract
----------------------
``PostingCache`` is shared by every query a ``Database`` serves, so its
lookup and insert paths are guarded by one coarse lock (the critical
sections are dict operations — micro­seconds — so striping buys nothing
a measurement could see; the ``concurrency.posting_lock_waits`` counter
reports how often a thread actually blocked).  The fetch memo is
unlocked: its evaluator runs on one thread (see above), so it is never
visible to two threads at once.

Cached posting lists are shared objects: callers must treat them as
immutable (every consumer in the engine already does — the list ops
build new lists).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..errors import StorageError
from ..telemetry.collector import count as _telemetry_count

#: default budget for the decoded-posting cache (bytes, estimated)
DEFAULT_POSTING_CACHE_BYTES = 8 * 1024 * 1024

#: estimated in-memory cost of one cached list / one posting tuple; the
#: budget is a sizing knob, not an exact accounting, so a stable estimate
#: beats sys.getsizeof recursion on the hot path
_BASE_COST = 120
_ENTRY_COST = 96

#: key-plane marker separating derived builds (columnar fetch lists)
#: from the decoded postings they were built from
_DERIVED_PLANE = b"\x00derived"


class CountedLock:
    """A lock that counts blocking acquisitions into ambient telemetry.

    The engine's lock-contention observability: entering the context is
    one non-blocking acquire on the fast (uncontended) path; only when
    the calling thread actually has to wait does the named counter tick
    — so a single-threaded run pays one C-level call and records
    nothing.  ``reentrant=True`` backs the lock with an :class:`RLock`
    for owners whose guarded methods call each other (the pager).
    """

    __slots__ = ("_lock", "_counter")

    def __init__(self, counter: str, reentrant: bool = False) -> None:
        self._lock = threading.RLock() if reentrant else threading.Lock()
        self._counter = counter

    def __enter__(self) -> "CountedLock":
        if not self._lock.acquire(blocking=False):
            _telemetry_count(self._counter)
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._lock.release()


class PostingCache:
    """Byte-budgeted LRU over decoded posting lists.

    Keys are ``(namespace_tag, key)`` pairs; values are the decoded
    posting lists exactly as the codecs return them.  Entries carry the
    store generation observed at decode time and are dropped when the
    generation moves (see the module docstring for the contract).
    """

    def __init__(self, max_bytes: int = DEFAULT_POSTING_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise StorageError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        # keys are (namespace, key) for postings and
        # (namespace, key, _DERIVED_PLANE) for derived builds; both kinds
        # share one LRU order and one byte budget
        self._entries: "OrderedDict[tuple, tuple[int, int, object]]" = OrderedDict()
        self._used_bytes = 0
        # One coarse lock over the LRU structure: get/put are dict-sized
        # critical sections, so a single lock measured indistinguishable
        # from striping (see the module docstring's thread-safety notes).
        self._lock = CountedLock("concurrency.posting_lock_waits")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        """Estimated bytes currently held (the budget's currency)."""
        return self._used_bytes

    def get(self, namespace: bytes, key: bytes, generation: int) -> "list | None":
        """The cached posting under ``(namespace, key)``, or ``None`` on
        a miss or when the entry predates ``generation``."""
        return self._lookup((namespace, key), generation, "cache.posting")

    def put(self, namespace: bytes, key: bytes, generation: int, posting: list) -> None:
        """Remember ``posting`` under ``(namespace, key)`` at ``generation``."""
        self._insert((namespace, key), generation, posting, len(posting))

    def get_derived(self, namespace: bytes, key: bytes, generation: int):
        """The cached derived build (columnar fetch list) under
        ``(namespace, key)``, or ``None`` on a miss or when the entry
        predates ``generation``.  Derived entries live in their own key
        plane, so they never shadow the posting cached under the same
        ``(namespace, key)``."""
        return self._lookup((namespace, key, _DERIVED_PLANE), generation, "kernel.column_cache")

    def put_derived(
        self, namespace: bytes, key: bytes, generation: int, value, entries: int
    ) -> None:
        """Remember a derived build at ``generation``; ``entries`` is the
        row count of the posting it was built from (the budget
        estimate's currency, same scale as a cached posting)."""
        self._insert((namespace, key, _DERIVED_PLANE), generation, value, entries)

    def _lookup(self, cache_key, generation: int, family: str):
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is None:
                _telemetry_count(family + "_misses")
                return None
            entry_generation, cost, value = entry
            if entry_generation != generation:
                # a write moved the store's generation: the entry is stale
                del self._entries[cache_key]
                self._used_bytes -= cost
                _telemetry_count(family + "_invalidations")
                _telemetry_count(family + "_misses")
                return None
            self._entries.move_to_end(cache_key)
            _telemetry_count(family + "_hits")
            return value

    def _insert(self, cache_key, generation: int, value, entry_count: int) -> None:
        if not self.max_bytes:
            return
        cost = _BASE_COST + _ENTRY_COST * entry_count
        if cost > self.max_bytes:
            return  # a single oversized list would evict everything else
        with self._lock:
            previous = self._entries.pop(cache_key, None)
            if previous is not None:
                self._used_bytes -= previous[1]
            self._entries[cache_key] = (generation, cost, value)
            self._used_bytes += cost
            entries = self._entries
            while self._used_bytes > self.max_bytes:
                _, (_, evicted_cost, _) = entries.popitem(last=False)
                self._used_bytes -= evicted_cost
                _telemetry_count("cache.posting_evictions")

    def clear(self) -> None:
        """Drop every entry (eager form of generation invalidation)."""
        with self._lock:
            self._entries.clear()
            self._used_bytes = 0

