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
skips parsing and closure expansion, and planner costing until the next
write (a read Tier 2 answers does not plan at all).  The
cost-model copy matters: ``CostModel`` is mutable, and a caller mutating
their model after a cache hit must not corrupt the entry keyed by the
old fingerprint.

Tier 2 — :class:`ResultCache`.  Both algorithms emit the best-``n``
answer as the first ``n`` results of one order, ``(cost, root)`` — the
direct method sorts by it, the schema driver hands out each cost class
in root order once it is complete — so a cached top-``k`` prefix answers
a request with ``n ≤ k`` byte-identically, whichever method computed
it, and one key, ``(query, costs, max_cost)``, serves every method and
every ``n``.  An entry is its rows and one bit, ``complete``: a prefix
too short for a request is a miss, the request evaluates cold, and its
longer answer replaces the entry.

Invalidation is write-scoped: entries carry the generation they were
computed under (a per-shard vector for ``ShardedDatabase``), their root
labels and their leaf labels, and a document write re-stamps every entry
(:meth:`ResultCache.carry`).  A document holds or gains an answer only
when it holds a node a root selector matches and a node a leaf selector
matches (every answer needs a real leaf match in its own subtree).  So
an entry whose root labels or whose leaf labels the written documents
lack is still the answer and serves as it is.  One whose root and leaf
labels they both hold is *repaired*, not dropped: every embedding lies inside
its result node's subtree, so the answer is the cost-ordered merge of
the per-document answers, and the written documents' share can be
computed from them alone.  The write marks such an entry with
``repair_from`` (the tree length before its graft); the first read drops
the pairs of deleted documents, evaluates the query directly over the
documents grafted since, and merges (``_PinnedView.repair``).  The read
falls back to a cold evaluation when the written documents are too
large a share of what came before them for the direct pass over them to
be the cheaper run (a measured share per method of the read), or when
the merged prefix no longer serves its ``n``.  Cost ties need no
fallback: every written document's roots follow every old root, so a
merge on cost alone keeps the ``(cost, root)`` order.  An entry that can
match the super-root (``#root``, the one node outside every document) is
dropped, and so is every touched entry of a sharded merge level, which
has no tree to repair on.  Other generation moves follow one protocol: a
lookup from a *newer* generation evicts the stale entry, one
from an *older* generation (a pinned ``Database.snapshot()``) misses
without evicting.  ``DESIGN.md`` §8 gives the soundness argument.

Both tiers are bounded LRUs, thread-safe, and publish ``querycache.*``
telemetry (hits, misses, evictions, bytes) to the
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
from .xmltree.model import ROOT_LABEL, NodeType

#: default Tier-1 capacity (distinct (query text, cost model) pairs)
DEFAULT_COMPILED_ENTRIES = 256
#: default Tier-2 capacity (cached best-n prefixes)
DEFAULT_RESULT_ENTRIES = 128
#: per-compiled-query planner memo entries (distinct (generation, n))
_PLAN_MEMO_LIMIT = 8

# rough per-entry byte accounting for the ``querycache.bytes`` gauge
_ENTRY_BASE_BYTES = 200
_PAIR_BYTES = 48


class CompiledQuery:
    """One fingerprinted, reusable compilation of a query.

    Holds the parsed AST, its canonical text (what reports name the
    query by), an immutable-by-convention copy of the cost model, the
    lazily built expanded closure, and a bounded memo of planner
    decisions keyed by ``(stats generation, n, method)`` so hot queries
    skip planner costing per generation.
    """

    __slots__ = (
        "text", "query", "canonical", "costs", "fingerprint", "key", "_expanded", "_plan_memo",
        "_lock",
    )

    def __init__(self, text: str, query: NameSelector, canonical: str, costs: CostModel) -> None:
        self.text = text
        self.query = query
        #: ``query.unparse()``, rendered once per compilation
        self.canonical = canonical
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
        canonical = parsed.unparse()
    else:
        parsed = query
        text = canonical = query.unparse()
    model = (costs if costs is not None else CostModel()).copy()
    return CompiledQuery(text, parsed, canonical, model)


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

    ``pairs`` is the emitted prefix in (cost, root) order, whichever
    method computed it — for a single database plain ``(root, cost)``
    tuples, for a sharded database ``(global_root, cost, shard,
    local_root)`` tuples.  ``complete`` marks a fully exhausted
    evaluation (the prefix answers any ``n``).  A write whose documents
    hold none of the struct ``root_labels``, or none of the typed
    ``leaf_labels`` (``(node type, label)`` pairs), carries the entry as
    it is; one that holds both marks it for repair from
    ``repair_from``, the tree length before the first such write grafted
    anything (never when ``root_labels`` is ``None`` or holds the
    super-root's label).
    ``method`` is the method of the run that stored the rows; a repair
    keeps it.
    """

    generation: object
    pairs: list
    complete: bool
    root_labels: "frozenset | None" = None
    leaf_labels: "frozenset | None" = None
    repair_from: "int | None" = None
    method: "str | None" = None

    def approximate_bytes(self) -> int:
        return _ENTRY_BASE_BYTES + _PAIR_BYTES * len(self.pairs)

    def serves(self, n: "int | None") -> bool:
        """Whether this prefix alone answers a best-``n`` request."""
        if self.complete:
            return True
        return n is not None and n <= len(self.pairs)


class ResultCache:
    """Tier 2: bounded best-n prefix cache with write-scoped invalidation.

    Lookup semantics follow the store's generation protocol:

    * entry generation == caller generation → hit, if the prefix serves
      the requested ``n``; otherwise miss, entry kept
      (an entry marked for repair is returned uncounted, whatever its
      length: the caller repairs it and settles the outcome,
      :meth:`settle_repair`);
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
        self.carried = 0
        self.repairs = 0
        self.repair_fallbacks = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    def lookup(self, key: tuple, generation: object, n: "int | None") -> "CachedResult | None":
        """The cached prefix for ``key`` valid at ``generation`` that
        serves a best-``n`` request.  A too-short prefix is a miss — the
        request is evaluated from scratch.  An entry a write marked for
        repair is returned uncounted, whatever its length: the caller
        repairs it, and :meth:`settle_repair` decides whether the
        repaired prefix serves ``n``."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.generation == generation:
                if entry.repair_from is not None:
                    self._entries.move_to_end(key)
                    return entry
                if entry.serves(n):
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

    def carry(
        self, old: object, new: object, touched: "frozenset | set", repair_from: "int | None" = None
    ) -> None:
        """Carry the entries stamped ``old`` across the write that
        published ``new`` and wrote documents holding the ``(node type,
        label)`` pairs ``touched``.  Each is replaced (readers may hold
        it) by a copy stamped ``new``: as it is when ``touched`` misses
        its root labels or its leaf labels, marked for repair from
        ``repair_from`` (the tree length before the write grafted; an
        entry already marked keeps its mark) when it holds both.  An
        entry that can match the super-root, and every touched entry
        when ``repair_from`` is ``None``, is dropped now."""
        carried = dropped = 0
        with self._lock:
            for key, entry in list(self._entries.items()):
                if entry.generation != old:
                    continue
                self._bytes -= entry.approximate_bytes()
                roots, leaves = entry.root_labels, entry.leaf_labels
                moved = None
                if roots is not None and leaves is not None and ROOT_LABEL not in roots:
                    # a document holds or gains an answer only with a node
                    # for a root selector and one for a leaf selector
                    if leaves.isdisjoint(touched) or all(
                        (NodeType.STRUCT, label) not in touched for label in roots
                    ):
                        moved = replace(entry, generation=new)
                    elif repair_from is not None:
                        moved = replace(
                            entry, generation=new, repair_from=entry.repair_from or repair_from
                        )
                if moved is None:
                    del self._entries[key]
                    dropped += 1
                    continue
                self._entries[key] = moved
                self._bytes += moved.approximate_bytes()
                carried += 1
            self.carried += carried
            self.invalidations += dropped
            if carried:
                _telemetry.count("querycache.result_carried", carried)
            if dropped:
                _telemetry.count("querycache.result_invalidations", dropped)

    def settle_repair(
        self, key: tuple, repaired: "CachedResult | None", n: "int | None"
    ) -> "CachedResult | None":
        """Settle the read that found ``key`` marked for repair: a
        ``repaired`` entry (``None`` when the repair fell back) that
        serves ``n`` replaces the marked one and counts a hit and a
        repair; anything else counts a miss and a fallback and returns
        ``None`` — the caller evaluates cold and its store replaces the
        marked entry."""
        if repaired is not None and repaired.serves(n):
            with self._lock:
                self.hits += 1
                self.repairs += 1
            _telemetry.count("querycache.result_hits")
            _telemetry.count("querycache.result_repairs")
            self.store(key, repaired)
            return repaired
        with self._lock:
            self.misses += 1
            self.repair_fallbacks += 1
        _telemetry.count("querycache.result_misses")
        _telemetry.count("querycache.result_repair_fallbacks")
        return None

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
                # an incumbent marked for repair is weaker than any answer
                weaker = same_gen and incumbent.repair_from is None and not entry.complete and (
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
                "querycache.result_repairs": self.repairs,
                "querycache.result_repair_fallbacks": self.repair_fallbacks,
                "querycache.result_stores": self.stores,
                "querycache.bytes": self._bytes,
            }
