"""The database façade: build a collection, query it many ways, mutate it
while queries keep running.

This is the public entry point a downstream user adopts::

    db = Database.from_xml(xml_one, xml_two)
    results = db.query('cd[title["piano"]]', n=10, costs=my_costs)
    root = db.insert_document("<cd><title>new disc</title></cd>").root
    db.delete_document(root)

Both of the paper's algorithms are available per query (``method="direct"``
or ``"schema"``); the default ``"auto"`` chooses through the cost-based
planner (:mod:`repro.planner`): selectivity estimates over collection
statistics score direct vs schema-driven evaluation per query,
falling out of the paper's conclusion — schema-driven for best-n, direct
for full retrieval — wherever the statistics agree with it.
:meth:`Database.plan` exposes that decision without
running the query; ``collect="counters"`` (or ``"timings"``) makes
:meth:`Database.query` return a :class:`~repro.core.results.ResultSet`
whose :class:`~repro.telemetry.report.QueryReport` accounts for every
posting decoded and second-level query executed, and for the time each
stage took.

Mutation and snapshot reads (MVCC-lite)
---------------------------------------
:meth:`Database.insert_document` / :meth:`~Database.delete_document` /
:meth:`~Database.replace_document` mutate the collection at document
granularity, incrementally maintaining the pre/bound encoding, the node
indexes, and the DataGuide — see ``docs/MUTATION.md``.  Every
query runs against one immutable *engine state* (tree view + schema +
evaluators) pinned at its start; a writer builds the successor state
copy-on-write and publishes it atomically, so readers never block and
never observe half a mutation.  :meth:`Database.snapshot` pins a state
explicitly — the returned :class:`Snapshot` keeps answering queries
against its generation while writers move the database forward.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import islice
from operator import itemgetter

from ..approxql.ast import NameSelector
from ..approxql.costs import CostModel
from ..engine.evaluator import DirectEvaluator
from ..errors import EvaluationError
from ..planner.stats import CollectionStats
from ..querycache import CachedResult, CompiledQuery
from ..schema.dataguide import (
    Schema,
    build_schema,
    update_schema_for_delete,
    update_schema_for_insert,
)
from ..schema.evaluator import SchemaEvaluator
from ..storage.kv import MemoryStore, Store
from ..telemetry import collector as _telemetry
from ..telemetry.collector import MODE_OFF, MODE_TIMINGS, Telemetry
from ..telemetry.report import QueryReport
from ..xmltree.builder import BuildOptions, CollectionBuilder, tree_from_xml
from ..xmltree.indexes import MemoryNodeIndexes, NodeIndexes
from ..xmltree.model import DataTree, compact_tree
from .explain import Explanation, explain_skeleton
from .memory import format_resident, resident_bytes
from .mutation import MutationReport
from .persist import (
    StoreOptions,
    append_tree_segment,
    load_tree,
    open_file_store,
    save_dead_roots,
    save_tree,
)
from .pipeline import Execution, QueryPipeline, QueryPlan
from .results import QueryResult, ResultSet, ResultStream

#: per chosen method, the share of the nodes before ``repair_from`` the
#: documents grafted since may hold for a cached answer's repair to beat
#: a cold run: the repair's direct pass costs in proportion to them, a
#: cold direct run to the whole collection, and a cold best-n schema run
#: stops early; each sits under every crossover docs/PERFORMANCE.md
#: measured (``tools/repair_crossover.py``)
_REPAIR_DELTA_SHARE = {"direct": 0.2, "schema": 0.05}


class _EngineState:
    """One immutable generation of the engine: the tree view, schema, and
    evaluators a query (or pinned snapshot) runs against.

    States are swapped atomically by the writer; a reader grabs the
    current state once and uses only it.  The tree *object* is shared
    across generations (a graft appends at the tail, a delete only
    tombstones), so the state additionally freezes the two quantities
    that do move: ``node_count`` and the live ``documents`` tuple.

    The components of the newest state build lazily (the first query
    pays, exactly as before mutation existed).  The node index is built
    over the state's own ``documents`` and the schema evaluator over the
    state's own schema, so both may stay lazy for good: a write evolves
    the node index only when a read has built it.  A schema built from
    scratch reads the whole tree, so the writer materializes the
    superseded state's schema (and the statistics read off it) before
    touching the shared arrays, and a *superseded* state never observes
    the grown tree.
    """

    __slots__ = (
        "generation",
        "tree",
        "node_count",
        "documents",
        "schema",
        "node_indexes",
        "direct",
        "schema_evaluator",
        "stats",
        "_lock",
    )

    def __init__(
        self,
        generation: int,
        tree: DataTree,
        schema: "Schema | None" = None,
        node_indexes: "NodeIndexes | None" = None,
        direct: "DirectEvaluator | None" = None,
        schema_evaluator: "SchemaEvaluator | None" = None,
        stats: "CollectionStats | None" = None,
    ) -> None:
        self.generation = generation
        self.tree = tree
        self.node_count = len(tree)
        self.documents: tuple[int, ...] = tuple(tree.document_roots())
        self.schema = schema
        self.node_indexes = node_indexes
        self.direct = direct
        self.schema_evaluator = schema_evaluator
        self.stats = stats
        self._lock = threading.Lock()

    # Lazy accessors use double-checked locking: slot reads are atomic
    # under CPython, the lock only serializes construction.  Dependencies
    # are built *before* taking the lock so it never nests.

    def ensure_node_indexes(self) -> NodeIndexes:
        if self.node_indexes is None:
            with self._lock:
                if self.node_indexes is None:
                    self.node_indexes = MemoryNodeIndexes(self.tree, self.documents)
        return self.node_indexes

    def ensure_schema(self) -> Schema:
        if self.schema is None:
            built = build_schema(self.tree)
            with self._lock:
                if self.schema is None:
                    self.schema = built
        return self.schema

    def direct_evaluator(self) -> DirectEvaluator:
        if self.direct is None:
            indexes = self.ensure_node_indexes()
            with self._lock:
                if self.direct is None:
                    self.direct = DirectEvaluator(self.tree, indexes)
        return self.direct

    def schema_eval(self) -> SchemaEvaluator:
        if self.schema_evaluator is None:
            schema = self.ensure_schema()
            with self._lock:
                if self.schema_evaluator is None:
                    self.schema_evaluator = SchemaEvaluator(self.tree, schema)
        return self.schema_evaluator

    def ensure_stats(self) -> CollectionStats:
        """The planner statistics of *this* generation (read off the
        schema on first use by a built or opened handle, maintained
        incrementally by mutations)."""
        if self.stats is None:
            schema = self.ensure_schema()
            with self._lock:
                if self.stats is None:
                    self.stats = CollectionStats.from_schema(
                        schema, generation=self.generation
                    )
        return self.stats

    def materialize(self) -> None:
        """Build every component that reads the whole tree now (the
        writer calls this before mutating the shared tree)."""
        self.ensure_stats()


class _PinnedView:
    """One engine state as the query pipeline's
    :class:`~repro.core.pipeline.Executor` — the ``(_EngineState,
    store)`` pair every single-store read is: a memory or stored
    :class:`Database` pins the current state per call, a
    :class:`Snapshot` holds one for its lifetime.  The state is all a
    read needs: no read touches the store."""

    __slots__ = ("state", "store")

    def __init__(self, state: _EngineState, store: "Store | None") -> None:
        self.state = state
        self.store = store

    def generation(self) -> "int | tuple":
        # The invalidation authority is the *store's* write counter: any
        # write — a routed mutation or an out-of-band put through the
        # store handle — moves it, and pairing it with the published
        # state generation keeps a pinned snapshot's reads in their own
        # generation class.
        if self.store is None:
            return self.state.generation
        return (self.state.generation, self.store.generation)

    def stats(self) -> CollectionStats:
        return self.state.ensure_stats()

    def execute(
        self,
        compiled: CompiledQuery,
        chosen: str,
        n: "int | None",
        max_cost: "float | None",
        collect: str,
    ) -> Execution:
        evaluator = (
            self.state.direct_evaluator() if chosen == "direct" else self.state.schema_eval()
        )
        raw = evaluator.evaluate(
            compiled.query, compiled.costs, n=n, max_cost=max_cost, expanded=compiled.expanded()
        )
        return Execution([(result.root, result.cost) for result in raw])

    def repair_methods(self, entry: CachedResult) -> tuple[str, ...]:
        """The methods under whose share (``_REPAIR_DELTA_SHARE``) of
        the nodes before ``entry.repair_from`` the documents grafted
        since stay: past it the direct pass over them costs more than
        that method's cold run."""
        start = entry.repair_from
        written = self.state.node_count - start
        return tuple(
            method for method, share in _REPAIR_DELTA_SHARE.items() if written < share * start
        )

    def repair(
        self, compiled: CompiledQuery, entry: CachedResult, max_cost: "float | None"
    ) -> list:
        """The pairs of ``entry`` at this view's state: every embedding
        lies inside its result node's subtree, so the answer is the
        cost-ordered merge of the live cached pairs with the direct
        answer over the documents grafted at or after
        ``entry.repair_from``.  Liveness comes from the pinned
        ``documents``, never from the shared tree's tombstones, which a
        writer moves ahead of this view."""
        state = self.state
        start = entry.repair_from
        tree, documents = state.tree, state.documents
        split = bisect_left(documents, start)
        old, bounds = documents[:split], tree.bounds

        def live(root: int) -> bool:
            # the last live document starting at or before ``root`` holds it
            at = bisect_right(old, root) - 1
            return at >= 0 and root <= bounds[old[at]]

        kept = [pair for pair in entry.pairs if live(pair[0])]
        fresh: "list[tuple[int, float]]" = []
        if split < len(documents):
            expanded = compiled.expanded()
            indexes = MemoryNodeIndexes(tree, documents[split:], expanded.labels())
            fresh = [
                (result.root, result.cost)
                for result in DirectEvaluator(tree, indexes).evaluate(
                    compiled.query, compiled.costs, max_cost=max_cost, expanded=expanded
                )
            ]
        # past the last cost of a prefix that is not complete the old
        # answer is unknown
        last = math.inf if entry.complete else entry.pairs[-1][1] if entry.pairs else -math.inf
        fresh = [pair for pair in fresh if pair[1] < last]
        # a stable merge on cost: every new root follows every old one,
        # so equal costs stay in (cost, root) order
        return list(heapq.merge(kept, fresh, key=itemgetter(1)))

    def materialize(self, rows: list) -> list[QueryResult]:
        tree = self.state.tree
        return [QueryResult(root, cost, tree) for root, cost in rows]

    # -- the reads that neither plan nor cache --------------------------

    def count(self, compiled: CompiledQuery) -> int:
        return self.state.direct_evaluator().count(
            compiled.query, compiled.costs, expanded=compiled.expanded()
        )

    def stream(self, compiled: CompiledQuery, collect: str) -> ResultStream:
        telemetry = Telemetry(timed=collect == MODE_TIMINGS) if collect != MODE_OFF else None
        report = QueryReport(
            query=compiled.canonical,
            method="schema",
            collect=collect,
            n=None,
            counters=telemetry.counters if telemetry is not None else {},
            timings=telemetry.timings if telemetry is not None else {},
        )
        state = self.state

        def results() -> Iterator[QueryResult]:
            # a generator function, so a lazy evaluator build happens on
            # the first pull, in the stream's report
            for result in state.schema_eval().iter_results(compiled.query, compiled.costs):
                yield QueryResult(result.root, result.cost, state.tree)

        return ResultStream(results(), report, telemetry)

    def explain(self, compiled: CompiledQuery, n: "int | None") -> list[Explanation]:
        query, costs = compiled.query, compiled.costs
        schema = self.state.ensure_schema()
        explanations: list[Explanation] = []
        for result in islice(self.state.schema_eval().iter_results(query, costs), n):
            assert result.skeleton is not None
            derived_cost, operations = explain_skeleton(
                query, result.skeleton, costs, schema
            )
            explanations.append(
                Explanation(
                    root=result.root,
                    cost=result.cost,
                    skeleton=result.skeleton.format_skeleton(),
                    operations=operations,
                    consistent=derived_cost == result.cost,
                )
            )
        return explanations


class Snapshot:
    """A read view pinned to one generation of a :class:`Database`.

    Obtained from :meth:`Database.snapshot`; every query method answers
    against the pinned generation even while writers mutate the database
    concurrently, because it holds that generation's immutable engine
    state — memory and stored databases alike.  Close the snapshot (or
    use it as a context manager) when done; a closed snapshot refuses
    queries.
    """

    def __init__(self, database: "Database", state: _EngineState) -> None:
        self._database = database
        self._state = state
        self._closed = False

    # -- pinned facts ---------------------------------------------------

    @property
    def generation(self) -> int:
        """The database generation this snapshot serves."""
        return self._state.generation

    @property
    def node_count(self) -> int:
        return self._state.node_count

    @property
    def documents(self) -> tuple[int, ...]:
        """Root pre numbers of the live documents at the pinned generation."""
        return self._state.documents

    # -- querying (the Database signatures, against the pinned state) ---

    def query(
        self,
        text: "str | NameSelector",
        n: "int | None" = 10,
        costs: "CostModel | None" = None,
        method: str = "auto",
        max_cost: "float | None" = None,
        collect: str = "off",
    ) -> ResultSet:
        """:meth:`Database.query` against the pinned generation."""
        return self._database._pipeline.query(
            self._view(), text, n, costs, method, max_cost, collect
        )

    def count_results(
        self, text: "str | NameSelector", costs: "CostModel | None" = None
    ) -> int:
        """:meth:`Database.count_results` against the pinned generation."""
        view = self._view()
        return view.count(self._database._pipeline.resolve(text, costs))

    def stream(
        self,
        text: "str | NameSelector",
        costs: "CostModel | None" = None,
        collect: str = "off",
    ) -> ResultStream:
        """:meth:`Database.stream` against the pinned generation.

        The stream holds this snapshot's engine state, so it keeps
        answering against the pinned generation even after the snapshot
        is closed.
        """
        view = self._view()
        return view.stream(self._database._pipeline.resolve(text, costs, collect), collect)

    def explain(
        self,
        text: "str | NameSelector",
        n: "int | None" = 5,
        costs: "CostModel | None" = None,
    ) -> list[Explanation]:
        """:meth:`Database.explain` against the pinned generation."""
        view = self._view()
        return view.explain(self._database._pipeline.resolve(text, costs, n=n), n)

    def plan(
        self,
        text: "str | NameSelector",
        n: "int | None" = 10,
        method: str = "auto",
        costs: "CostModel | None" = None,
    ) -> QueryPlan:
        """:meth:`Database.plan` against the pinned generation: the
        decision and estimates :meth:`query` on this snapshot makes."""
        return self._database._pipeline.plan(self._view(), text, n, method, costs)

    def describe(self) -> str:
        """One-line summary of the collection at the pinned generation."""
        self._check_open()
        schema = self._state.ensure_schema()
        return (
            f"Snapshot of generation {self.generation}: "
            f"{self.node_count} data nodes, {len(schema)} schema nodes, "
            f"{len(self.documents)} documents"
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Close the snapshot (idempotent).  Queries on a closed
        snapshot raise a typed error."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise EvaluationError("snapshot is closed")

    def _view(self) -> _PinnedView:
        self._check_open()
        self._database._check_failed()
        return _PinnedView(self._state, self._database._store)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else "open"
        return f"Snapshot(generation={self.generation}, {status})"


class Database:
    """A queryable, mutable collection of XML documents.

    Create instances through :meth:`from_xml`, :meth:`from_tree`, or
    :meth:`open`; the constructor wires an already-built tree.
    """

    def __init__(
        self,
        tree: DataTree,
        default_costs: "CostModel | None" = None,
    ) -> None:
        self._state = _EngineState(0, tree)
        # default costs, planner and the two hot-query cache tiers live
        # with the one query path every read of this handle takes
        self._pipeline = QueryPipeline(default_costs)
        #: the file store behind an opened database (None when in-memory)
        self._store: "Store | None" = None
        self._store_options: "StoreOptions | None" = None
        self._closed = False
        # one writer at a time; readers pin a state and never wait
        self._write_lock = threading.Lock()
        self._failed: "str | None" = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_xml(
        cls,
        *documents: str,
        options: "BuildOptions | None" = None,
        default_costs: "CostModel | None" = None,
    ) -> "Database":
        """Build a database from XML document strings."""
        builder = CollectionBuilder(options)
        for document in documents:
            builder.add_xml_fragment(document)
        return cls(builder.finish(), default_costs)

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[str],
        options: "BuildOptions | None" = None,
        default_costs: "CostModel | None" = None,
    ) -> "Database":
        """Build a database from an iterable of XML document strings."""
        builder = CollectionBuilder(options)
        for document in documents:
            builder.add_xml(document)
        return cls(builder.finish(), default_costs)

    @classmethod
    def from_tree(cls, tree: DataTree, default_costs: "CostModel | None" = None) -> "Database":
        """Wrap an already-built data tree (e.g. from the generator)."""
        return cls(tree, default_costs)

    @classmethod
    def from_directory(
        cls,
        directory: str,
        pattern: str = "*.xml",
        options: "BuildOptions | None" = None,
        default_costs: "CostModel | None" = None,
    ) -> "Database":
        """Build a database from every matching file in ``directory``
        (sorted by name for deterministic preorder numbers)."""
        import pathlib

        builder = CollectionBuilder(options)
        paths = sorted(pathlib.Path(directory).glob(pattern))
        if not paths:
            raise EvaluationError(f"no files matching {pattern!r} in {directory!r}")
        for path in paths:
            builder.add_xml_fragment(path.read_text(encoding="utf-8"))
        return cls(builder.finish(), default_costs)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(
        self,
        path: str,
        options: "StoreOptions | None" = None,
        *,
        durability: "str | None" = None,
    ) -> None:
        """Persist the tree and its insert-cost table into a single-file
        store, as the tree segment at pre 0 (an insert appends the
        segment at its start).  Nothing derived from the tree is stored:
        :meth:`open` rebuilds the schema (and with it ``I_sec`` and the
        planner statistics), and the node index ``I_struct`` / ``I_text``
        is built on the first direct read, as on a memory handle.

        The store is written as a fresh log of one frame to
        ``<path>.tmp`` and renamed over ``path``, so a save killed at any
        point leaves the old file or the new one, never a half-written
        one.  A mutated collection is vacuumed on the way out: tombstoned
        documents are compacted away, so the saved file is as dense as a
        fresh build (reopening it assigns new pre numbers when documents
        were deleted).  A handle still open on the old file keeps
        writing to it, not to the new one: close it before saving over
        its path.

        ``options`` is the shared :class:`~repro.core.persist.StoreOptions`
        keyword surface; ``durability`` is accepted and ignored (see
        there).
        """
        options = (options or StoreOptions()).merged(durability=durability)
        with self._write_lock:
            self._check_failed()
            staging = MemoryStore()
            save_tree(compact_tree(self._state.tree), staging, self._pipeline.default_costs)
            # A fresh store holds no file until ``close`` writes it over
            # ``path``; no ``with``, so a failure before that point
            # abandons the store and leaves the old file as it was.
            store = open_file_store(path, options, fresh=True)
            for key, value in staging.scan():
                store.put(key, value)
            store.close()

    @classmethod
    def open(
        cls,
        path: str,
        options: "StoreOptions | None" = None,
        *,
        page_cache_pages: "int | None" = None,
        posting_cache_bytes: "int | None" = None,
        durability: "str | None" = None,
        compiled_cache_entries: "int | None" = None,
        result_cache_entries: "int | None" = None,
    ) -> "Database":
        """Open a saved database: the tree is loaded into memory and
        every read answers from it, exactly as on a memory handle — the
        schema is built here (the insert of the whole tree into the empty
        schema), the node index on the first direct read.  The file only
        persists: writes go to it.

        The one entry point for stored databases.  A missing, empty, or
        non-database file raises a typed
        :class:`~repro.errors.StorageError` naming the path and reason.
        A commit torn by a crash is dropped: the database opens in its
        last complete commit.

        ``options`` is the single keyword surface
        (:class:`~repro.core.persist.StoreOptions`), shared verbatim with
        :meth:`save` and the CLI.  The explicit keywords override its
        fields, so existing call sites keep working.
        ``page_cache_pages``, ``posting_cache_bytes`` and ``durability``
        are accepted and ignored: there is no page or posting cache, and
        each mutation is one atomic, fsynced commit frame.

        ``compiled_cache_entries`` / ``result_cache_entries`` size the
        two hot-query caches (compiled queries and generation-tagged
        best-n result prefixes — see ``docs/PERFORMANCE.md``); ``0``
        disables a tier, ``None`` keeps the defaults.  Answers are
        byte-identical either way.
        """
        options = (options or StoreOptions()).merged(
            page_cache_pages=page_cache_pages,
            posting_cache_bytes=posting_cache_bytes,
            durability=durability,
            compiled_cache_entries=compiled_cache_entries,
            result_cache_entries=result_cache_entries,
        )
        store = open_file_store(path, options, must_exist=True)
        tree, insert_costs = load_tree(store)
        schema = build_schema(tree)
        schema.encode_costs(insert_costs.insert_cost, fingerprint=insert_costs.insert_fingerprint)
        database = cls(tree, default_costs=insert_costs)
        database._state = _EngineState(
            0, tree, schema=schema, schema_evaluator=SchemaEvaluator(tree, schema)
        )
        database._store = store
        database._store_options = options
        database._pipeline.set_cache(
            options.compiled_cache_entries, options.result_cache_entries
        )
        return database

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def tree(self) -> DataTree:
        return self._state.tree

    @property
    def schema(self) -> Schema:
        """The compacted DataGuide of the collection (built lazily)."""
        return self._state.ensure_schema()

    @property
    def node_count(self) -> int:
        """Total nodes in the arrays, tombstones included (see
        :attr:`live_node_count` for the queryable population)."""
        return len(self._state.tree)

    @property
    def live_node_count(self) -> int:
        """Nodes belonging to live documents, super-root included."""
        return self._state.tree.live_node_count

    @property
    def generation(self) -> int:
        """Number of mutations published so far (0 for a fresh build)."""
        return self._state.generation

    def documents(self) -> tuple[int, ...]:
        """Root pre numbers of the live documents, in insertion order."""
        return self._state.documents

    def describe(self) -> str:
        """One-paragraph summary of the collection."""
        state = self._state
        schema = state.ensure_schema()
        summary = (
            f"Database: {state.node_count} data nodes, {len(schema)} schema nodes, "
            f"{len(state.documents)} documents"
        )
        dead = len(state.tree.dead_roots)
        if dead:
            summary += f", {dead} tombstoned"
        if state.generation:
            summary += f", generation {state.generation}"
        return f"{summary}\n  {format_resident(self.resident_bytes())}"

    def resident_bytes(self) -> dict[str, int]:
        """Bytes each data-sized structure of this handle holds right
        now (see :mod:`repro.core.memory`); what is not built counts 0."""
        state = self._state
        return resident_bytes(state.tree, state.schema, state.node_indexes)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the database's storage resources (idempotent).

        The file store handle is closed; for an in-memory database this
        is a no-op.  Reads answer from memory, so queries issued after
        close still run; writes fail from the closed store.
        """
        if self._closed:
            return
        self._closed = True
        if self._store is not None:
            self._store.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # snapshot pinning (MVCC-lite)
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current generation for reading.

        The returned :class:`Snapshot` answers every query against this
        generation even while :meth:`insert_document` /
        :meth:`delete_document` / :meth:`replace_document` move the
        database forward: it holds the generation's immutable engine
        state, which a writer replaces but never changes — memory and
        stored databases alike.  Close the snapshot when done.
        """
        self._check_failed()
        return Snapshot(self, self._state)

    def _check_failed(self) -> None:
        if self._failed is not None:
            raise EvaluationError(
                f"database is unusable after a failed {self._failed} mutation "
                "(the store may hold an uncommitted half-write); reopen it to "
                "recover the last committed state"
            )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert_document(
        self, xml: str, options: "BuildOptions | None" = None
    ) -> MutationReport:
        """Add one XML document to the collection, online.

        The document's nodes are grafted at the tail of the preorder (no
        existing node is renumbered), the touched index postings and
        DataGuide classes are maintained incrementally, and — for a
        stored database — every write lands in one commit frame of the log.
        Queries running concurrently keep their pinned view.  Returns a
        :class:`~repro.core.mutation.MutationReport` whose ``root`` is
        the new document's root pre number.
        """
        document = tree_from_xml(xml, options=options)
        return self._mutate("insert", document=document)

    def delete_document(self, root: int) -> MutationReport:
        """Remove the document rooted at pre number ``root``, online.

        The document is tombstoned — its nodes stay as holes in the
        preorder, so no survivor is renumbered — and filtered out of
        every index posting and DataGuide instance list; emptied classes
        keep their ids.  :meth:`save` compacts tombstones away.
        """
        return self._mutate("delete", remove_root=root)

    def replace_document(
        self, root: int, xml: str, options: "BuildOptions | None" = None
    ) -> MutationReport:
        """Atomically replace the document at ``root`` with ``xml`` — a
        delete and an insert published as one generation (and, for a
        stored database, one commit frame)."""
        document = tree_from_xml(xml, options=options)
        return self._mutate("replace", document=document, remove_root=root)

    def _mutate(
        self,
        action: str,
        document: "DataTree | None" = None,
        remove_root: "int | None" = None,
    ) -> MutationReport:
        started = time.perf_counter()
        with self._write_lock:
            self._check_failed()
            state = self._state
            old_generation = _PinnedView(state, self._store).generation()
            # A superseded state must not build from the whole tree once
            # the shared arrays change: build that now.
            state.materialize()
            tree = state.tree
            costs = self._pipeline.default_costs
            tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
            if remove_root is not None:
                self._check_document_root(tree, remove_root)
            stored = self._store is not None
            start = len(tree)
            new_root: "int | None" = None
            nodes_removed = 0
            schema = state.schema
            classes_added = 0
            grafted = marked = False
            keys_written = 0
            try:
                if remove_root is not None:
                    nodes_removed = tree.bounds[remove_root] - remove_root + 1
                    tree.mark_dead(remove_root)
                    marked = True
                    schema = update_schema_for_delete(schema, tree, remove_root).schema
                if document is not None:
                    new_root = tree.graft_document(document, costs.insert_cost)
                    grafted = True
                    update = update_schema_for_insert(schema, tree, start)
                    schema, classes_added = update.schema, update.classes_added
                added = range(start, len(tree)) if document is not None else None
                removed = (
                    (remove_root, tree.bounds[remove_root])
                    if remove_root is not None
                    else None
                )
                # the (node type, label) pairs the written documents
                # hold: a cached answer they hold no root or no leaf
                # label of is carried across the write as it is, one
                # they hold both of is repaired from ``start`` by its
                # next read
                touched: set = set()
                for span in (added, range(removed[0], removed[1] + 1) if removed else None):
                    if span:
                        window = slice(span.start, span.stop)
                        touched.update(zip(tree.types[window], tree.labels[window]))
                # planner statistics move with the same deltas the index
                # maintenance consumes; materialize() above guaranteed
                # the superseded state's stats exist
                new_stats = state.stats.apply_mutation(
                    tree, added, removed, state.generation + 1
                )
                # an index no read has built stays lazy in the new state
                node_indexes = state.node_indexes
                if node_indexes is not None:
                    node_indexes = MemoryNodeIndexes.evolve(
                        node_indexes, tree, added=added, removed=removed
                    )
                if stored:
                    if added is not None:
                        keys_written += append_tree_segment(tree, self._store, start)
                    if removed is not None:
                        keys_written += save_dead_roots(tree, self._store)
                    # THE commit point: everything above is one log frame.
                    self._store.commit()
                    _telemetry.count("mutation.keys_rewritten", keys_written)
            except BaseException:
                if stored:
                    # The store may hold uncommitted writes; poison the
                    # handle so no reader trusts it.
                    # Reopening recovers the last committed state.
                    self._failed = action
                else:
                    if grafted:
                        tree.ungraft(start)
                    if marked:
                        tree.dead_roots.discard(remove_root)
                raise
            new_state = _EngineState(
                state.generation + 1,
                tree,
                schema=schema,
                node_indexes=node_indexes,
                schema_evaluator=SchemaEvaluator(tree, schema),
                stats=new_stats,
            )
            self._state = new_state
            self._pipeline.result_cache.carry(
                old_generation, _PinnedView(new_state, self._store).generation(), touched,
                repair_from=start,
            )
            _telemetry.count(f"mutation.{action}s")
            nodes_added = len(tree) - start if document is not None else 0
            if nodes_added:
                _telemetry.count("mutation.nodes_added", nodes_added)
            if nodes_removed:
                _telemetry.count("mutation.nodes_removed", nodes_removed)
            return MutationReport(
                action=action,
                generation=new_state.generation,
                root=new_root,
                removed_root=remove_root,
                nodes_added=nodes_added,
                nodes_removed=nodes_removed,
                classes_added=classes_added,
                keys_rewritten=keys_written,
                wall_seconds=time.perf_counter() - started,
                labels=frozenset(touched),
            )

    @staticmethod
    def _check_document_root(tree: DataTree, root: int) -> None:
        if root <= 0 or root >= len(tree) or tree.parents[root] != 0:
            raise EvaluationError(
                f"pre {root} is not a document root (see Database.documents())"
            )
        if root in tree.dead_roots:
            raise EvaluationError(f"document at pre {root} was already deleted")

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def query(
        self,
        text: "str | NameSelector",
        n: "int | None" = 10,
        costs: "CostModel | None" = None,
        method: str = "auto",
        max_cost: "float | None" = None,
        collect: str = "off",
    ) -> ResultSet:
        """Evaluate an approXQL query and return the best ``n`` results.

        ``n=None`` retrieves every approximate result; ``max_cost`` drops
        results costlier than the bound.  ``method`` picks the algorithm:
        ``"direct"`` (Section 6), ``"schema"`` (Section 7), or ``"auto"``
        (the cost-based planner decides from collection statistics; see
        :meth:`plan` and ``docs/PLANNER.md``).  Every method returns the
        same results, so a read the result cache answers runs neither
        algorithm nor the planner: its report names the requested
        method, or under ``"auto"`` the method whose run stored the
        cached rows.

        The query runs against the generation current at its start: a
        concurrent mutation neither blocks it nor leaks half-applied
        postings into it (see :meth:`snapshot` for pinning one generation
        across many queries).

        ``collect`` controls telemetry: ``"off"`` (default) attaches a
        report with only the method and wall time, ``"counters"`` fills
        the per-stage counters (postings decoded, second-level queries,
        ...), ``"timings"`` additionally records per-stage wall times.
        The returned :class:`~repro.core.results.ResultSet` compares equal
        to a plain list of results and carries the report as ``.report``.
        """
        return self._pipeline.query(self._view(), text, n, costs, method, max_cost, collect)

    def query_many(
        self,
        queries: Iterable,
        n: "int | None" = 10,
        costs: "CostModel | None" = None,
        max_cost: "float | None" = None,
        method: str = "auto",
        collect: str = "off",
    ) -> list[ResultSet]:
        """Evaluate a batch of independent queries; one
        :class:`~repro.core.results.ResultSet` per query, in input order.

        Each item of ``queries`` is query text (or a parsed selector),
        or a ``(text, cost_model)`` pair overriding ``costs`` for that
        query.  Every item is resolved before any is evaluated, so a bad
        one fails the whole batch; the items are then served in order on
        the calling thread, each against the generation current when it
        starts.  Results and reports are those of calling :meth:`query`
        in a loop.
        """
        self._check_failed()

        def serve(compiled: CompiledQuery, compiled_hit: bool) -> ResultSet:
            return self._pipeline.serve(
                self._view(), compiled, compiled_hit, n, method, max_cost, collect
            )

        return self._pipeline.query_many(serve, queries, n, costs, method, max_cost, collect)

    def stream(
        self,
        text: "str | NameSelector",
        costs: "CostModel | None" = None,
        collect: str = "off",
    ) -> ResultStream:
        """Incrementally stream results in increasing cost order — the
        Section 7.4 advantage of the schema-driven evaluation.

        Returns a :class:`~repro.core.results.ResultStream` whose
        ``.report`` is live: with ``collect`` enabled its counters grow
        as results are pulled, so stopping early shows exactly what the
        evaluation did so far.  The stream stays pinned to the generation
        current at its creation — pulls interleaved with mutations keep
        yielding that generation's results.
        """
        view = self._view()
        return view.stream(self._pipeline.resolve(text, costs, collect), collect)

    def plan(
        self,
        text: "str | NameSelector",
        n: "int | None" = 10,
        method: str = "auto",
        costs: "CostModel | None" = None,
    ) -> QueryPlan:
        """Explain which algorithm :meth:`query` would run — the
        ``"auto"`` selection decision, public instead of buried — plus a
        summary of the parsed query and the cost model's ``estimates``
        block (predicted candidates, posting bytes, closure widths).
        ``costs`` matters: renamings widen the selector closures the
        estimates are computed from."""
        return self._pipeline.plan(self._view(), text, n, method, costs)

    def count_results(self, text: "str | NameSelector", costs: "CostModel | None" = None) -> int:
        """Total number of approximate results for the query.

        Uses the direct evaluator's counting fast path: the embedding
        costs are computed once, but no result objects are materialized
        and no sort is performed.  Resolution (parsing, cost-model
        validation) is the exact :meth:`query` path, so identical inputs
        raise identical typed errors from both.
        """
        view = self._view()
        return view.count(self._pipeline.resolve(text, costs))

    def suggest_costs(self, options=None) -> CostModel:
        """Derive a cost model from the collection itself (the paper's
        declared future work): spelling-variant and sibling renamings,
        depth-aware delete costs, frequency-based insert costs.  See
        :func:`repro.approxql.suggest_cost_model`."""
        from ..approxql.suggest import suggest_cost_model

        state = self._state
        return suggest_cost_model(
            MemoryNodeIndexes(state.tree), state.ensure_schema(), options
        )

    def explain(
        self,
        text: "str | NameSelector",
        n: "int | None" = 5,
        costs: "CostModel | None" = None,
    ) -> list[Explanation]:
        """Best-``n`` results with the transformation sequence that
        produced each (renamings, deletions, and the implicitly inserted
        element labels read off the schema)."""
        view = self._view()
        return view.explain(self._pipeline.resolve(text, costs, n=n), n)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _view(self) -> _PinnedView:
        """Pin the current generation for one call: the view the query
        pipeline runs against."""
        self._check_failed()
        return _PinnedView(self._state, self._store)

    def collection_stats(self) -> CollectionStats:
        """The planner statistics of the current generation (see
        ``docs/PLANNER.md``): per-label and per-term live posting
        lengths."""
        return self._state.ensure_stats()

    def query_cache_stats(self) -> dict[str, int]:
        """Lifetime ``querycache.*`` counters of both hot-query cache
        tiers (compiled queries and best-n result prefixes); the server
        merges these into its ``stats`` reply."""
        return self._pipeline.cache_stats()

    def set_query_cache(
        self,
        compiled_entries: "int | None" = None,
        result_entries: "int | None" = None,
    ) -> None:
        """Resize (or disable, with ``0``) the hot-query caches of this
        handle.  ``None`` leaves a tier untouched.  Replacing a tier
        drops its entries and lifetime counters; answers are
        byte-identical at every setting."""
        self._pipeline.set_cache(compiled_entries, result_entries)
