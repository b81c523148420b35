"""Two-tier hot-query fast path: compiled queries and best-n prefixes.

Serving traffic is dominated by a small set of hot query templates, yet
the engine pays the full pipeline on every request — parse → expanded
representation (the semi-transformed closure of ``build_expanded``) →
planner costing → evaluation.  This module caches the two reusable
artifacts of that pipeline:

Tier 1 — :class:`CompiledQueryCache`.  A :class:`CompiledQuery` is a
query string paired with a full cost-model fingerprint
(:attr:`~repro.approxql.costs.CostModel.fingerprint`): the parsed AST, a
defensive copy of the cost model, the lazily built
:class:`~repro.approxql.expanded.ExpandedQuery` closure, and a small
per-generation memo of planner decisions.  Re-submitting a hot query
skips parsing, closure expansion, and planner costing entirely.  The
cost-model copy matters: ``CostModel`` is mutable, and a caller mutating
their model after a cache hit must not corrupt the entry keyed by the
old fingerprint.

Tier 2 — :class:`ResultCache`.  Both algorithms emit a best-``n``
answer that is a prefix of the full answer — the direct method sorts by
``(cost, root)``, the schema driver executes skeletons in ``(cost,
signature)`` order whatever its k schedule — so a cached top-``k``
prefix answers a request with ``n ≤ k`` byte-identically, and one key,
``(query, costs, method, max_cost)``, serves every ``n``.  Entries carry
the captured :class:`DriverState` of the incremental schema driver, so a
request with ``n > cached-n`` resumes from the cached round state
instead of restarting at the first round.

Invalidation is write-scoped: entries carry the generation they were
computed under (a per-shard vector for ``ShardedDatabase``) and their
root labels, and a document write re-stamps every entry whose root
labels its documents lack (:meth:`ResultCache.carry`) and drops the
rest.  Other generation moves follow the ``PostingCache`` protocol: a
lookup from a *newer* generation evicts the stale entry, one from an
*older* generation (a pinned ``Database.snapshot()``) misses without
evicting.  ``DESIGN.md`` §8 gives the soundness argument.

Both tiers are bounded LRUs, thread-safe, and publish ``querycache.*``
telemetry (hits, misses, evictions, bytes, resumed rounds) to the
ambient collector plus lifetime counters for server ``stats``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from .approxql.ast import NameSelector
from .approxql.costs import CostModel
from .approxql.expanded import ExpandedQuery, build_expanded
from .approxql.parser import parse_query
from .telemetry import collector as _telemetry

#: default Tier-1 capacity (distinct (query text, cost model) pairs)
DEFAULT_COMPILED_ENTRIES = 256
#: default Tier-2 capacity (cached best-n prefixes)
DEFAULT_RESULT_ENTRIES = 128
#: per-compiled-query planner memo entries (distinct (generation, n))
_PLAN_MEMO_LIMIT = 8

# rough per-entry byte accounting for the ``querycache.bytes`` gauge
_ENTRY_BASE_BYTES = 200
_PAIR_BYTES = 48
_STATE_ITEM_BYTES = 56


@dataclass
class DriverState:
    """Captured round state of the incremental schema driver.

    Snapshotting this after a best-n evaluation lets a later request
    with a larger ``n`` resume where the driver stopped — at least the
    same ``k``, the same executed second-level signatures, the same
    found-result dedup map — instead of re-growing ``k`` from its first
    round.

    ``executed`` must only contain signatures whose instances were
    *fully* folded into ``found``: the driver returns mid-skeleton when
    ``n`` is reached, and a partially consumed skeleton must be
    re-executed on resume (``found`` membership dedups the replays).
    """

    k: int
    executed: set
    found: dict
    found_per_class: dict
    exhausted: bool

    def approximate_bytes(self) -> int:
        return _STATE_ITEM_BYTES * (
            len(self.executed) + len(self.found) + len(self.found_per_class)
        )


class CompiledQuery:
    """One fingerprinted, reusable compilation of a query.

    Holds the parsed AST, an immutable-by-convention copy of the cost
    model, the lazily built expanded closure, and a bounded memo of
    planner decisions keyed by ``(stats generation, n, method)`` so hot
    queries skip planner costing per generation.
    """

    __slots__ = ("text", "query", "costs", "fingerprint", "key", "_expanded", "_plan_memo", "_lock")

    def __init__(self, text: str, query: NameSelector, costs: CostModel) -> None:
        self.text = text
        self.query = query
        self.costs = costs
        self.fingerprint = costs.fingerprint
        self.key = (text, self.fingerprint)
        self._expanded: "ExpandedQuery | None" = None
        self._plan_memo: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def expanded(self) -> ExpandedQuery:
        """The semi-transformed closure, built once and reused."""
        built = self._expanded
        if built is None:
            with self._lock:
                built = self._expanded
                if built is None:
                    built = build_expanded(self.query, self.costs)
                    self._expanded = built
        return built

    @property
    def expansion_cached(self) -> bool:
        return self._expanded is not None

    def cached_plan(self, memo_key: tuple) -> "tuple | None":
        """A cached ``(method, reason, estimates)`` planner decision."""
        with self._lock:
            decision = self._plan_memo.get(memo_key)
            if decision is not None:
                self._plan_memo.move_to_end(memo_key)
            return decision

    def store_plan(self, memo_key: tuple, decision: tuple) -> None:
        with self._lock:
            self._plan_memo[memo_key] = decision
            self._plan_memo.move_to_end(memo_key)
            while len(self._plan_memo) > _PLAN_MEMO_LIMIT:
                self._plan_memo.popitem(last=False)

    def root_labels(self) -> frozenset:
        """The labels a result node can carry: the expanded root's label
        and its renaming targets."""
        root = self.expanded().root
        return frozenset([root.label, *(label for label, _ in root.renamings)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledQuery({self.text!r}, expanded={self._expanded is not None})"


def compile_query(query: "str | NameSelector", costs: "CostModel | None") -> CompiledQuery:
    """Compile without caching (the bypass path for AST inputs)."""
    if isinstance(query, str):
        text = query
        parsed = parse_query(query)
    else:
        parsed = query
        text = query.unparse()
    model = (costs if costs is not None else CostModel()).copy()
    return CompiledQuery(text, parsed, model)


class CompiledQueryCache:
    """Tier 1: bounded LRU of :class:`CompiledQuery` entries.

    Keyed by ``(query text, full cost-model fingerprint)``.  A capacity
    of 0 disables the cache (every ``get`` compiles fresh).  AST inputs
    bypass the cache — the hot serving path submits text.
    """

    def __init__(self, max_entries: int = DEFAULT_COMPILED_ENTRIES) -> None:
        self.max_entries = max(0, int(max_entries))
        self._entries: "OrderedDict[tuple, CompiledQuery]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(
        self, query: "str | NameSelector", costs: "CostModel | None"
    ) -> tuple[CompiledQuery, bool]:
        """``(compiled, hit)`` for ``(query, costs)``, parsing on a miss."""
        if not isinstance(query, str) or not self.enabled:
            return compile_query(query, costs), False
        fingerprint = (costs if costs is not None else CostModel()).fingerprint
        key = (query, fingerprint)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                _telemetry.count("querycache.compiled_hits")
                return compiled, True
        compiled = compile_query(query, costs)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # lost a compile race; keep the incumbent (it may
                # already hold the expanded closure)
                self._entries.move_to_end(key)
                self.hits += 1
                _telemetry.count("querycache.compiled_hits")
                return existing, True
            self.misses += 1
            _telemetry.count("querycache.compiled_misses")
            self._entries[key] = compiled
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                _telemetry.count("querycache.compiled_evictions")
        return compiled, False

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "querycache.compiled_entries": len(self._entries),
                "querycache.compiled_hits": self.hits,
                "querycache.compiled_misses": self.misses,
                "querycache.compiled_evictions": self.evictions,
            }


@dataclass
class CachedResult:
    """One cached best-n prefix.

    ``pairs`` is the emitted prefix in emission (cost, tiebreak) order —
    for a single database plain ``(root, cost)`` tuples, for a sharded
    database ``(global_root, cost, shard, local_root)`` tuples.
    ``complete`` marks a fully exhausted evaluation (the prefix answers
    any ``n``); otherwise ``state`` (when present) lets the schema
    driver resume past ``len(pairs)``.  A write carries the entry only if
    it misses every one of ``root_labels`` (never when ``None``).
    """

    generation: object
    pairs: list
    complete: bool
    state: "DriverState | None" = None
    root_labels: "frozenset | None" = None

    def approximate_bytes(self) -> int:
        total = _ENTRY_BASE_BYTES + _PAIR_BYTES * len(self.pairs)
        if self.state is not None:
            total += self.state.approximate_bytes()
        return total

    def serves(self, n: "int | None") -> bool:
        """Whether this prefix alone answers a best-``n`` request."""
        if self.complete:
            return True
        return n is not None and n <= len(self.pairs)


class ResultCache:
    """Tier 2: bounded best-n prefix cache with write-scoped invalidation.

    Lookup semantics follow the ``PostingCache`` generation protocol:

    * entry generation == caller generation → hit, if the prefix serves
      the requested ``n`` or can be resumed; otherwise miss, entry kept;
    * entry generation <  caller generation → the store mutated since
      the entry was cached: evict it, count an invalidation, miss;
    * entry generation >  caller generation → the caller is a pinned
      snapshot older than the entry: miss, but keep the entry for
      current-generation readers.

    Generations are ints for a single database and per-shard vectors
    (tuples) for a sharded one; vectors only grow component-wise, so the
    same ordering applies.
    """

    def __init__(self, max_entries: int = DEFAULT_RESULT_ENTRIES) -> None:
        self.max_entries = max(0, int(max_entries))
        self._entries: "OrderedDict[tuple, CachedResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stores = 0
        self.resumes = 0
        self.carried = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    def lookup(
        self, key: tuple, generation: object, n: "int | None"
    ) -> "CachedResult | None":
        """The cached prefix for ``key`` valid at ``generation`` that a
        best-``n`` request can use: it serves ``n`` outright or carries
        the driver state to resume from.  A too-short prefix that cannot
        resume is a miss — the request is evaluated from scratch."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.generation == generation:
                if entry.serves(n) or entry.state is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    _telemetry.count("querycache.result_hits")
                    return entry
            elif entry is not None:
                try:
                    stale = entry.generation < generation
                except TypeError:  # pragma: no cover - mixed generation kinds
                    stale = True
                if stale:
                    del self._entries[key]
                    self._bytes -= entry.approximate_bytes()
                    self.invalidations += 1
                    _telemetry.count("querycache.result_invalidations")
            self.misses += 1
            _telemetry.count("querycache.result_misses")
            return None

    def carry(self, old: object, new: object, touched: "set[str]") -> None:
        """Carry the entries stamped ``old`` across the write that
        published ``new`` and touched the labels ``touched``: one whose
        root labels avoid them is replaced (readers may hold it) by a copy
        stamped ``new`` without its driver state, whose lists belong to
        ``old``; every other ``old`` entry is dropped now."""
        carried = dropped = 0
        with self._lock:
            for key, entry in list(self._entries.items()):
                if entry.generation != old:
                    continue
                self._bytes -= entry.approximate_bytes()
                labels = entry.root_labels
                if labels is None or not labels.isdisjoint(touched):
                    del self._entries[key]
                    dropped += 1
                    continue
                moved = replace(entry, generation=new, state=None)
                self._entries[key] = moved
                self._bytes += moved.approximate_bytes()
                carried += 1
            self.carried += carried
            self.invalidations += dropped
            if carried:
                _telemetry.count("querycache.result_carried", carried)
            if dropped:
                _telemetry.count("querycache.result_invalidations", dropped)

    def note_resume(self) -> None:
        """Count a driver round resumed from cached state."""
        with self._lock:
            self.resumes += 1
        _telemetry.count("querycache.resumed_rounds")

    def store(self, key: tuple, entry: CachedResult) -> None:
        """Insert or replace the prefix for ``key``.

        A replacement only wins if it is at least as new and at least as
        long as the incumbent, so concurrent readers racing to store
        never shrink a usable prefix.
        """
        if not self.enabled:
            return
        with self._lock:
            incumbent = self._entries.get(key)
            if incumbent is not None:
                try:
                    older = entry.generation < incumbent.generation
                except TypeError:  # pragma: no cover - mixed generation kinds
                    older = False
                same_gen = entry.generation == incumbent.generation
                weaker = same_gen and not entry.complete and (
                    incumbent.complete or len(entry.pairs) <= len(incumbent.pairs)
                )
                if older or weaker:
                    self._entries.move_to_end(key)
                    return
                self._bytes -= incumbent.approximate_bytes()
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._bytes += entry.approximate_bytes()
            self.stores += 1
            _telemetry.count("querycache.result_stores")
            while len(self._entries) > self.max_entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.approximate_bytes()
                self.evictions += 1
                _telemetry.count("querycache.result_evictions")
            _telemetry.gauge("querycache.bytes", self._bytes)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "querycache.result_entries": len(self._entries),
                "querycache.result_hits": self.hits,
                "querycache.result_misses": self.misses,
                "querycache.result_evictions": self.evictions,
                "querycache.result_invalidations": self.invalidations,
                "querycache.result_carried": self.carried,
                "querycache.result_stores": self.stores,
                "querycache.resumed_rounds": self.resumes,
                "querycache.bytes": self._bytes,
            }
