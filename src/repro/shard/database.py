"""A collection partitioned across N independent single-store shards.

:class:`ShardedDatabase` presents the :class:`~repro.core.database.Database`
query surface over N shards, each a full ``Database`` of its own — its own
pager, WAL, page cache, and posting cache when stored.  Queries fan out to
every shard and merge; mutations route to the one shard that owns the
document.  The paper's best-n contract survives the split because an
embedding cost depends only on the result's document subtree (renamings,
deletions, and insertions all happen inside one document), so the union of
per-shard answers *is* the whole-collection answer set, shard layout
notwithstanding.

Global numbering
----------------
Results and mutation routing speak *global* pre numbers — the numbering
the equivalent unsharded ``Database`` would use: documents take
consecutive preorder blocks in insertion order starting at 1, deletions
leave holes, inserts append at the global tail.  The manifest records each
document's (shard, local root, global root) triple; every merged result is
translated local→global before the caller sees it, so a sharded and an
unsharded build of the same collection return identical ``(root, cost)``
pairs.

The merge
---------
Each shard serves a cost-ordered stream (the Section 7.4 incremental
driver).  A k-way heap over the per-shard frontiers drains one *cost
class* at a time — all results of the currently cheapest cost, from every
shard whose frontier sits at that cost — sorts the class by global root,
and emits it.  Termination is early in the best-n sense: once n results
are out, no shard is asked past its frontier (plus the one-result
lookahead each iterator holds).  Within a cost class the single-store
driver's emission order is an implementation accident (skeleton order);
the merge's (cost, global root) order is deterministic and is the order
this module also uses as the reference in its differential tests.

Document-rooted contract
------------------------
A sharded collection serves **document-rooted** results only (global
pre >= 1).  The single store can additionally emit a result rooted at
the collection super-root (pre 0) when the query's root label is — or
renames to — ``#root``: an embedding whose witnesses span the *whole
collection*.  That one pseudo-result is not decomposable by document
partition (a conjunctive query may take its witnesses from different
shards, so no shard computes its true cost), and it names the entire
collection rather than a retrievable document, so the sharded surface
excludes it — from :meth:`ShardedDatabase.query`,
:meth:`~ShardedDatabase.stream`, :meth:`~ShardedDatabase.count_results`,
and :meth:`~ShardedDatabase.explain` alike.  Every document-rooted
result is byte-identical to the unsharded collection's.
"""

from __future__ import annotations

import bisect
import heapq
import os
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

from ..approxql.ast import NameSelector
from ..approxql.costs import CostModel
from ..errors import EvaluationError, ShardError
from ..telemetry import collector as _telemetry
from ..telemetry.report import QueryReport
from ..xmltree.builder import BuildOptions, CollectionBuilder
from ..xmltree.model import (
    ROOT_LABEL,
    DataTree,
    NodeType,
    TreeBuilder,
    extract_document,
)
from ..core.database import Database
from ..planner.stats import CollectionStats, merge_stats
from ..querycache import CompiledQuery
from ..core.explain import Explanation
from ..core.memory import format_resident
from ..core.persist import StoreOptions
from ..core.pipeline import Execution, QueryPipeline, QueryPlan, fold_reports
from ..core.results import QueryResult, ResultSet, ResultStream
from .manifest import DocumentEntry, ShardManifest, shard_file_name
from .partition import assign_insert, check_partitioner, hash_assign, range_assign


class ShardResult(QueryResult):
    """A merged result: global root for identity, shard-local root for
    content access.

    ``root`` and ``cost`` — the pair equality and ranking are defined
    over — are global, byte-identical to the unsharded collection's.
    The inherited content accessors (label, path, words, xml, ...) read
    the owning shard's tree through the local root, which names the same
    subtree.
    """

    __slots__ = ("shard", "local_root")

    def __init__(
        self, root: int, cost: float, tree: DataTree, local_root: int, shard: int
    ) -> None:
        super().__init__(root, cost, tree)
        self.local_root = local_root
        self.shard = shard

    @property
    def _pre(self) -> int:
        return self.local_root

    def __repr__(self) -> str:
        return (
            f"ShardResult(root={self.root}, cost={self.cost}, "
            f"shard={self.shard}, local_root={self.local_root})"
        )


@dataclass(frozen=True)
class ShardMutationReport:
    """What one routed mutation did: the owning shard, the global pre
    numbers the caller speaks, and the shard-level
    :class:`~repro.core.mutation.MutationReport` underneath."""

    action: str
    shard: int
    generation: int
    root: "int | None"
    removed_root: "int | None"
    local_root: "int | None"
    nodes_added: int
    nodes_removed: int
    wall_seconds: float

    def format(self) -> str:
        lines = [
            f"{self.action}: shard {self.shard}, generation {self.generation}, "
            f"{self.wall_seconds * 1000:.1f} ms"
        ]
        if self.root is not None:
            lines.append(
                f"  new document root: {self.root} (global) = "
                f"{self.local_root} (shard-local), {self.nodes_added} nodes"
            )
        if self.removed_root is not None:
            lines.append(
                f"  removed document root: {self.removed_root} (global), "
                f"{self.nodes_removed} nodes"
            )
        return "\n".join(lines)


class ShardedDatabase:
    """N independent shards behind the one-database query surface.

    Create instances through :meth:`from_tree`, :meth:`from_documents`,
    or :meth:`open`; see the module docstring for the contract.
    """

    def __init__(
        self,
        shards: "list[Database]",
        manifest: ShardManifest,
        default_costs: "CostModel | None" = None,
        directory: "str | None" = None,
    ) -> None:
        if not shards:
            raise EvaluationError("a sharded database needs at least one shard")
        if len(shards) != manifest.shards:
            raise ShardError(
                f"manifest says {manifest.shards} shards, got {len(shards)}"
            )
        self._shards = list(shards)
        self._manifest = manifest
        self._directory = directory
        self._write_lock = threading.Lock()
        self._closed = False
        self._generation = 0
        # the merge level's own query path: default costs, a planner over
        # the merged statistics, compiled queries and merged best-n
        # prefixes (stamped with the generation vector and carried across
        # writes that miss their root labels; each shard additionally
        # keeps its own pipeline underneath)
        self._pipeline = QueryPipeline(default_costs)
        # merged planner statistics, keyed by generation (mutations bump
        # the generation, so a stale merge is never served)
        self._stats_cache: "tuple[int, CollectionStats] | None" = None
        # immutable local→global translation tables; swapped whole on
        # every mutation so readers never see a half-updated map
        self._maps: "tuple[tuple[list[int], list[DocumentEntry]], ...]" = ()
        self._rebuild_maps()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(
        cls,
        tree: DataTree,
        shards: int = 2,
        partitioner: str = "hash",
        default_costs: "CostModel | None" = None,
    ) -> "ShardedDatabase":
        """Partition an already-built collection tree across ``shards``.

        The tree's own preorder becomes the global numbering, so the
        sharded build answers with exactly the roots an unsharded
        ``Database.from_tree(tree)`` would.
        """
        check_partitioner(partitioner)
        if shards < 1:
            raise EvaluationError(f"shard count must be >= 1, got {shards}")
        costs = default_costs if default_costs is not None else CostModel()
        roots = tree.document_roots()
        sizes = [tree.bounds[root] - root + 1 for root in roots]
        if partitioner == "hash":
            assignment = [hash_assign(ordinal, shards) for ordinal in range(len(roots))]
        else:
            assignment = range_assign(sizes, shards)
        # every shard starts as the zero-document collection (super-root
        # only), encoded under the table the grafts below are priced with
        shard_trees = [TreeBuilder().finish() for _ in range(shards)]
        for shard_tree in shard_trees:
            shard_tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        manifest = ShardManifest(shards=shards, partitioner=partitioner)
        for ordinal, root in enumerate(roots):
            owner = assignment[ordinal]
            document = extract_document(tree, root)
            local_root = shard_trees[owner].graft_document(document, costs.insert_cost)
            manifest.add_document(
                shard=owner,
                local_root=local_root,
                global_root=root,
                nodes=sizes[ordinal],
            )
        # trailing tombstones in the source tree still occupy global pres
        manifest.global_nodes = max(manifest.global_nodes, len(tree))
        databases = [Database.from_tree(t, costs) for t in shard_trees]
        return cls(databases, manifest, default_costs=costs)

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[str],
        shards: int = 2,
        partitioner: str = "hash",
        options: "BuildOptions | None" = None,
        default_costs: "CostModel | None" = None,
    ) -> "ShardedDatabase":
        """Build from XML document strings (the
        :meth:`Database.from_documents` counterpart)."""
        builder = CollectionBuilder(options)
        for document in documents:
            builder.add_xml(document)
        return cls.from_tree(
            builder.finish(), shards=shards, partitioner=partitioner,
            default_costs=default_costs,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, directory: str, options: "StoreOptions | None" = None) -> None:
        """Persist every shard plus the manifest into ``directory``.

        Each shard becomes its own single-file store (``shard-NNNN.apxq``)
        next to ``MANIFEST.json``.  Shard saves compact tombstones away,
        so the saved manifest re-derives each live document's local root
        for the compacted layout; global numbering is left untouched — it
        stays stable across save/open cycles.

        Saving back into the directory this instance was ``open()``-ed
        from is refused: the live in-memory shards keep their uncompacted
        local numbering, so a later mutation would republish the stale
        manifest over the compacted stores and the next ``open()`` would
        find a torn directory.  Mutations against an opened directory
        already persist through the shard WALs and the manifest rewrite —
        an explicit save is only for exporting to a *new* directory.
        """
        with self._write_lock:
            self._check_open()
            if self._directory is not None and os.path.realpath(
                directory
            ) == os.path.realpath(self._directory):
                raise ShardError(
                    f"cannot save() into the currently open directory "
                    f"{self._directory!r}: the compacted stores would "
                    "disagree with the live manifest after the next "
                    "mutation; save to a fresh directory instead "
                    "(mutations already persist through the shard WALs)"
                )
            os.makedirs(directory, exist_ok=True)
            for index, shard in enumerate(self._shards):
                shard.save(os.path.join(directory, shard_file_name(index)), options)
            saved = ShardManifest(
                shards=self._manifest.shards,
                partitioner=self._manifest.partitioner,
                global_nodes=self._manifest.global_nodes,
                next_doc_id=self._manifest.next_doc_id,
            )
            for index in range(self._manifest.shards):
                compacted_root = 1
                for entry in self._manifest.shard_documents(index):
                    saved.documents.append(
                        DocumentEntry(
                            doc_id=entry.doc_id,
                            shard=index,
                            local_root=compacted_root,
                            global_root=entry.global_root,
                            nodes=entry.nodes,
                        )
                    )
                    compacted_root += entry.nodes
            saved.documents.sort(key=lambda entry: entry.doc_id)
            saved.save(directory)

    @classmethod
    def open(
        cls,
        directory: str,
        options: "StoreOptions | None" = None,
        **open_keywords: object,
    ) -> "ShardedDatabase":
        """Open a saved sharded database directory.

        ``options`` and the keyword knobs are the
        :meth:`Database.open` surface, applied to every shard.  Each
        shard's document roots are cross-checked against the manifest —
        a disagreement (say, a crash between a shard's WAL commit and
        the manifest replace) raises a :class:`~repro.errors.ShardError`
        naming the shard instead of serving a torn view.
        """
        manifest = ShardManifest.load(directory)
        check_partitioner(manifest.partitioner)
        shards: "list[Database]" = []
        try:
            for index in range(manifest.shards):
                path = os.path.join(directory, shard_file_name(index))
                shard = Database.open(path, options, **open_keywords)
                shards.append(shard)
                expected = [e.local_root for e in manifest.shard_documents(index)]
                actual = list(shard.documents())
                if actual != expected:
                    raise ShardError(
                        f"shard {index} of {directory!r} disagrees with the "
                        f"manifest: store holds document roots {actual}, "
                        f"manifest expects {expected} (crash between a shard "
                        "commit and the manifest write?)"
                    )
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        database = cls(
            shards,
            manifest,
            default_costs=shards[0]._pipeline.default_costs,
            directory=directory,
        )
        # the cache knobs size the merge-level caches too (Database.open
        # above resolved them when it sized each shard's own)
        sized = shards[0]._store_options
        database._pipeline.set_cache(
            sized.compiled_cache_entries, sized.result_cache_entries
        )
        # stored shards have their insert costs baked in: refuse a foreign
        # table at the merge level's compile, before any shard re-encodes
        database._pipeline.frozen_fingerprint = shards[0]._pipeline.frozen_fingerprint
        return database

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shards (fixed at build time)."""
        return self._manifest.shards

    @property
    def partitioner(self) -> str:
        return self._manifest.partitioner

    @property
    def manifest(self) -> ShardManifest:
        """The live manifest (read-only introspection; mutating it
        directly desynchronizes routing)."""
        return self._manifest

    @property
    def generation(self) -> int:
        """Number of routed mutations published so far."""
        return self._generation

    def shard_databases(self) -> "tuple[Database, ...]":
        """The underlying per-shard databases (read-only introspection)."""
        return tuple(self._shards)

    def documents(self) -> tuple[int, ...]:
        """Global root pre numbers of the live documents, in insertion
        order — exactly :meth:`Database.documents` of the equivalent
        unsharded collection."""
        return tuple(e.global_root for e in self._manifest.live_documents())

    def describe(self) -> str:
        """One-paragraph summary of the sharded collection."""
        manifest = self._manifest
        live = manifest.live_documents()
        nodes = sum(shard.live_node_count - 1 for shard in self._shards) + 1
        summary = (
            f"ShardedDatabase: {manifest.shards} shards "
            f"({manifest.partitioner} partitioning), {len(live)} documents, "
            f"{nodes} live data nodes, {manifest.global_nodes} global pres"
        )
        if self._generation:
            summary += f", generation {self._generation}"
        per_shard = ", ".join(
            f"#{index}: {len(manifest.shard_documents(index))} docs"
            for index in range(manifest.shards)
        )
        return f"{summary} [{per_shard}]\n  {format_resident(self.resident_bytes())}"

    def resident_bytes(self) -> dict[str, int]:
        """Bytes per data-sized structure, summed over the shards (see
        :meth:`Database.resident_bytes`)."""
        totals: dict[str, int] = {}
        for shard in self._shards:
            for name, size in shard.resident_bytes().items():
                totals[name] = totals.get(name, 0) + size
        return totals

    # ------------------------------------------------------------------
    # local → global translation
    # ------------------------------------------------------------------

    def _rebuild_maps(self) -> None:
        """Recompute the per-shard translation tables (called under the
        write lock; readers grab the tuple once, atomically)."""
        maps = []
        for index in range(self._manifest.shards):
            # dead entries stay translatable: a pinned reader may still
            # return results from a document deleted after it started
            entries = sorted(
                (e for e in self._manifest.documents if e.shard == index),
                key=lambda e: e.local_root,
            )
            maps.append(([e.local_root for e in entries], entries))
        self._maps = tuple(maps)

    def _to_global(
        self,
        shard: int,
        local_pre: int,
        maps: "tuple[tuple[list[int], list[DocumentEntry]], ...] | None" = None,
    ) -> int:
        """Translate a shard-local pre number to the global numbering."""
        current = self._maps if maps is None else maps
        locals_, entries = current[shard]
        position = bisect.bisect_right(locals_, local_pre) - 1
        if position >= 0:
            entry = entries[position]
            if local_pre <= entry.local_root + entry.nodes - 1:
                return entry.global_root + (local_pre - entry.local_root)
        if maps is not None and maps is not self._maps:
            # the captured table predates a concurrent insert; retry on
            # the current one before declaring the manifest inconsistent
            return self._to_global(shard, local_pre, None)
        raise ShardError(
            f"shard {shard} returned pre {local_pre}, which the manifest "
            "maps to no document"
        )

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
        """Fan the query out to every shard and merge — the
        :meth:`Database.query` signature and contract, answered
        scatter-gather.

        The returned prefix is the canonical (cost, global root) order:
        the same result *set* the unsharded collection returns, with ties
        broken deterministically by global root (the single-store driver
        leaves tie order unspecified).
        """
        self._check_open()
        return _counted(
            self._pipeline.query(
                _ScatterGather(self), text, n, costs, method, max_cost, collect
            )
        )

    def stream(
        self,
        text: "str | NameSelector",
        costs: "CostModel | None" = None,
        collect: str = "off",
    ) -> ResultStream:
        """Incrementally stream merged results in canonical
        (cost, global root) order — per-shard streams are pulled only as
        far as the consumer asks (plus one lookahead per shard)."""
        self._check_open()
        compiled = self._pipeline.resolve(text, costs, collect)
        scatter = _ScatterGather(self)
        streams = [
            shard.stream(compiled.query, costs=compiled.costs, collect=collect)
            for shard in self._shards
        ]
        report = QueryReport(
            query=compiled.canonical,
            method="schema",
            collect=collect,
            n=None,
            counters={"shard.fanout": len(self._shards)},
            timings={},
        )

        def on_close() -> None:
            for stream in streams:
                stream.close()
            # fold what the shard streams actually did into the merged
            # report (their reports are live; this runs at exhaustion or
            # explicit close, so early stops show early numbers)
            fold_reports(report, [stream.report for stream in streams])

        merged = map(scatter.result, _merge_streams(streams, scatter.row))
        return ResultStream(merged, report, on_close=on_close)

    def count_results(
        self, text: "str | NameSelector", costs: "CostModel | None" = None
    ) -> int:
        """Total document-rooted results across all shards.

        When the query's root cannot embed at the collection super-root
        (its label neither is nor renames to ``#root`` — every realistic
        query), this is the sum of the per-shard counting fast paths.
        Otherwise each shard retrieves and the per-shard pseudo-results
        are filtered out (see the module docstring's document-rooted
        contract).
        """
        self._check_open()
        compiled = self._pipeline.resolve(text, costs)
        query, costs = compiled.query, compiled.costs
        if not self._may_match_super_root(query, costs):
            return sum(shard.count_results(query, costs) for shard in self._shards)
        total = 0
        for shard in self._shards:
            results = shard.query(query, n=None, costs=costs, method="direct")
            total += sum(1 for result in results if result.root != 0)
        return total

    @staticmethod
    def _may_match_super_root(query: NameSelector, costs: CostModel) -> bool:
        """Whether an embedding rooted at the super-root is possible at
        all: the query root's label is ``#root`` or finitely renames to
        it.  A conservative static test — the counting fast path is only
        taken when this is False."""
        if query.label == ROOT_LABEL:
            return True
        return any(
            to == ROOT_LABEL
            for to, _ in costs.renamings(query.label, NodeType.STRUCT)
        )

    def explain(
        self,
        text: "str | NameSelector",
        n: "int | None" = 5,
        costs: "CostModel | None" = None,
    ) -> list[Explanation]:
        """Best-``n`` merged results with their derivations, roots in the
        global numbering."""
        self._check_open()
        compiled = self._pipeline.resolve(text, costs, n=n)
        maps = self._maps
        merged: "list[Explanation]" = []
        # one extra per shard: at most one pseudo-result gets filtered
        per_shard = None if n is None else n + 1
        for index, shard in enumerate(self._shards):
            for explanation in shard.explain(
                compiled.query, n=per_shard, costs=compiled.costs
            ):
                if explanation.root == 0:
                    continue  # collection-rooted pseudo-result
                merged.append(
                    replace(
                        explanation,
                        root=self._to_global(index, explanation.root, maps),
                    )
                )
        merged.sort(key=lambda e: (e.cost, e.root))
        if n is not None:
            merged = merged[:n]
        return merged

    def plan(
        self,
        text: "str | NameSelector",
        n: "int | None" = 10,
        method: str = "auto",
        costs: "CostModel | None" = None,
    ) -> QueryPlan:
        """The method-selection decision over the *merged* per-shard
        statistics — identical data yields the identical
        :class:`~repro.core.database.QueryPlan` an unsharded database
        returns (the shared planner sees the same posting lengths either
        way)."""
        self._check_open()
        return self._pipeline.plan(_ScatterGather(self), text, n, method, costs)

    def query_many(
        self,
        queries: Iterable,
        n: "int | None" = 10,
        costs: "CostModel | None" = None,
        max_cost: "float | None" = None,
        method: str = "auto",
        collect: str = "off",
    ) -> list[ResultSet]:
        """Evaluate a batch of independent queries, one merged
        :class:`~repro.core.results.ResultSet` per query, in input order
        — :meth:`Database.query_many`'s contract: every item resolved
        first, then served in order, each fanned out and merged exactly
        as :meth:`query` would."""
        self._check_open()

        def serve(compiled: CompiledQuery, compiled_hit: bool) -> ResultSet:
            return _counted(
                self._pipeline.serve(
                    _ScatterGather(self), compiled, compiled_hit, n, method, max_cost, collect
                )
            )

        return self._pipeline.query_many(serve, queries, n, costs, method, max_cost, collect)

    # ------------------------------------------------------------------
    # mutation (routed to the owning shard)
    # ------------------------------------------------------------------

    def insert_document(
        self, xml: str, options: "BuildOptions | None" = None
    ) -> ShardMutationReport:
        """Add one document: the partitioner picks the owning shard, the
        shard commits (its own WAL frame when stored), the manifest is
        rewritten last.  The new document's global root is the global
        tail — exactly where the unsharded collection would graft it."""
        started = time.perf_counter()
        with self._write_lock:
            self._check_open()
            manifest = self._manifest
            owner = assign_insert(
                manifest.partitioner, manifest.next_doc_id, manifest.shards
            )
            global_root = manifest.global_nodes
            old_generation = _ScatterGather(self).generation()
            report = self._shards[owner].insert_document(xml, options)
            manifest.add_document(
                shard=owner,
                local_root=report.root,
                global_root=global_root,
                nodes=report.nodes_added,
            )
            self._publish(old_generation, report.labels)
            _telemetry.count("shard.routed_inserts")
            return ShardMutationReport(
                action="insert",
                shard=owner,
                generation=self._generation,
                root=global_root,
                removed_root=None,
                local_root=report.root,
                nodes_added=report.nodes_added,
                nodes_removed=0,
                wall_seconds=time.perf_counter() - started,
            )

    def delete_document(self, root: int) -> ShardMutationReport:
        """Remove the document whose *global* root is ``root`` (see
        :meth:`documents`); routed to the owning shard."""
        started = time.perf_counter()
        with self._write_lock:
            self._check_open()
            entry = self._manifest.find_by_global_root(root)
            if entry is None:
                raise EvaluationError(
                    f"global pre {root} is not a live document root "
                    "(see ShardedDatabase.documents())"
                )
            old_generation = _ScatterGather(self).generation()
            report = self._shards[entry.shard].delete_document(entry.local_root)
            entry.alive = False
            self._publish(old_generation, report.labels)
            _telemetry.count("shard.routed_deletes")
            return ShardMutationReport(
                action="delete",
                shard=entry.shard,
                generation=self._generation,
                root=None,
                removed_root=root,
                local_root=None,
                nodes_added=0,
                nodes_removed=entry.nodes,
                wall_seconds=time.perf_counter() - started,
            )

    def replace_document(
        self, root: int, xml: str, options: "BuildOptions | None" = None
    ) -> ShardMutationReport:
        """Atomically replace the document at global root ``root`` — one
        shard-level replace (one generation, one WAL frame on a stored
        shard).  The replacement stays on the owning shard; its global
        root moves to the global tail, as an unsharded replace would."""
        started = time.perf_counter()
        with self._write_lock:
            self._check_open()
            manifest = self._manifest
            entry = manifest.find_by_global_root(root)
            if entry is None:
                raise EvaluationError(
                    f"global pre {root} is not a live document root "
                    "(see ShardedDatabase.documents())"
                )
            global_root = manifest.global_nodes
            old_generation = _ScatterGather(self).generation()
            report = self._shards[entry.shard].replace_document(
                entry.local_root, xml, options
            )
            entry.alive = False
            manifest.add_document(
                shard=entry.shard,
                local_root=report.root,
                global_root=global_root,
                nodes=report.nodes_added,
            )
            self._publish(old_generation, report.labels)
            _telemetry.count("shard.routed_replaces")
            return ShardMutationReport(
                action="replace",
                shard=entry.shard,
                generation=self._generation,
                root=global_root,
                removed_root=root,
                local_root=report.root,
                nodes_added=report.nodes_added,
                nodes_removed=entry.nodes,
                wall_seconds=time.perf_counter() - started,
            )

    def _publish(self, old_generation: tuple, touched: frozenset) -> None:
        """Make a routed mutation visible: refresh the translation
        tables and, for an opened directory, rewrite the manifest (the
        shard's WAL frame committed first; see the manifest module on
        the crash window between the two), and carry the merged answers
        ``touched`` misses (their global roots never renumber)."""
        self._generation += 1
        self._rebuild_maps()
        if self._directory is not None:
            self._manifest.save(self._directory)
        self._pipeline.result_cache.carry(
            old_generation, _ScatterGather(self).generation(), touched
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every shard (idempotent) — each shard's store handle
        is released."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def _check_open(self) -> None:
        if self._closed:
            raise EvaluationError("sharded database is closed")

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else "open"
        return (
            f"ShardedDatabase(shards={self.shards}, "
            f"partitioner={self.partitioner!r}, {status})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def collection_stats(self) -> CollectionStats:
        """Planner statistics of the whole collection: every shard's
        posting lengths summed (the duplicated per-shard ``#root``
        postings collapsed back to one).  Cached per generation;
        mutations invalidate by bumping it."""
        cached = self._stats_cache
        generation = self._generation
        if cached is not None and cached[0] == generation:
            return cached[1]
        merged = merge_stats(
            [shard.collection_stats() for shard in self._shards],
            generation=generation,
        )
        self._stats_cache = (generation, merged)
        return merged

    def query_cache_stats(self) -> dict[str, int]:
        """Lifetime ``querycache.*`` counters of the merge-level caches
        (the per-shard databases keep their own; see
        :meth:`Database.query_cache_stats`)."""
        return self._pipeline.cache_stats()

    def set_query_cache(
        self,
        compiled_entries: "int | None" = None,
        result_entries: "int | None" = None,
    ) -> None:
        """Resize (or disable, with ``0``) the merge-level hot-query
        caches, and every shard's, in one call.  ``None`` leaves a tier
        untouched; answers are byte-identical at every setting."""
        self._pipeline.set_cache(compiled_entries, result_entries)
        for shard in self._shards:
            shard.set_query_cache(compiled_entries, result_entries)


def _counted(results: ResultSet) -> ResultSet:
    """Count one merged query, plus its scatter's fanout when one ran (a
    merge-level cache hit has none), on the ambient collector."""
    fanout = results.report.counters.get("shard.fanout")
    if fanout:
        _telemetry.count("shard.fanout", fanout)
    _telemetry.count("shard.queries")
    return results


class _ScatterGather:
    """A sharded collection as the query pipeline's
    :class:`~repro.core.pipeline.Executor`: scatter to every shard
    through its public ``query`` / ``stream``, gather into the canonical
    (cost, global root) order.  Rows are ``(global root, cost, shard,
    local root)`` tuples.  Made per call — it captures the translation
    tables current at the call's start."""

    def __init__(self, database: ShardedDatabase) -> None:
        self._database = database
        self._shards = database._shards
        self._maps = database._maps

    def generation(self) -> tuple:
        """The routing generation plus every shard's (published state,
        store write counter) pair.  Each component is monotone, so the
        tuple orders lexicographically the way the generation protocol
        expects — any routed mutation, per-shard WAL recovery, or
        out-of-band shard-store write moves the vector and strands older
        entries."""
        parts = [self._database._generation]
        for shard in self._shards:
            parts.append(shard.generation)
            store = shard._store
            parts.append(0 if store is None else store.generation)
        return tuple(parts)

    def stats(self) -> CollectionStats:
        return self._database.collection_stats()

    def execute(
        self,
        compiled: CompiledQuery,
        chosen: str,
        n: "int | None",
        max_cost: "float | None",
        resume: None,
        collect: str,
    ) -> Execution:
        """Shards run with the explicit ``chosen`` method, reporting in
        the ``collect`` mode.  Nothing
        is resumable at this level: a larger ``n`` recomputes."""
        if chosen == "schema" and n is not None:
            rows, reports = self._best_n(compiled, n, max_cost, collect)
        else:
            rows, reports = self._full(compiled, n, chosen, max_cost, collect)
        counters = {
            "shard.fanout": len(self._shards),
            "shard.results_merged": sum(report.results for report in reports),
        }
        return Execution(
            rows, complete=n is None or len(rows) < n, reports=tuple(reports), counters=counters
        )

    def repair(self, compiled, chosen, entry, max_cost) -> None:
        """A merge level has no tree to repair on: a cold run.  (No
        entry gets here — :meth:`ShardedDatabase._publish` drops the
        merged entries a write touches instead of marking them.)"""
        return None

    def materialize(self, rows: list) -> "list[ShardResult]":
        return [self.result(row) for row in rows]

    def result(self, row: tuple) -> ShardResult:
        root, cost, shard, local_root = row
        return ShardResult(root, cost, self._shards[shard].tree, local_root, shard)

    def row(self, shard: int, result: QueryResult) -> tuple:
        return (
            self._database._to_global(shard, result.root, self._maps),
            result.cost,
            shard,
            result.root,
        )

    def _best_n(self, compiled, n, max_cost, collect):
        """Best-n retrieval: the lazy k-way cost-class merge of per-shard
        cost-ordered streams — shards are pulled only as far as the
        global prefix needs."""
        streams = [
            shard.stream(compiled.query, costs=compiled.costs, collect=collect)
            for shard in self._shards
        ]
        rows: "list[tuple]" = []
        try:
            for row in _merge_streams(streams, self.row):
                if max_cost is not None and row[1] > max_cost:
                    break
                rows.append(row)
                if len(rows) >= n:
                    break
        finally:
            for stream in streams:
                stream.close()
        return rows, [stream.report for stream in streams]

    def _full(self, compiled, n, chosen, max_cost, collect):
        """Full retrieval (or an explicit direct-method best-n): every
        shard computes its complete (cost-bounded) answer set, the union
        is sorted canonically, and ``n`` truncates.  Per-shard full sets
        sidestep tie-cut truncation entirely."""
        rows: "list[tuple]" = []
        reports: "list[QueryReport]" = []
        for index, shard in enumerate(self._shards):
            result_set = shard.query(
                compiled.query, n=None, costs=compiled.costs, method=chosen,
                max_cost=max_cost, collect=collect,
            )
            # root 0 is the collection-rooted pseudo-result
            rows.extend(self.row(index, result) for result in result_set if result.root != 0)
            reports.append(result_set.report)
        rows.sort(key=lambda row: (row[1], row[0]))
        return (rows if n is None else rows[:n]), reports


def _merge_streams(
    streams: "list[ResultStream]", row_of: "Callable[[int, QueryResult], tuple]"
) -> Iterator[tuple]:
    """The k-way cost-class merge (see the module docstring), as rows.

    Each shard stream holds one result of lookahead; a heap over the
    frontier costs picks the cheapest class, every stream sitting at
    that cost is drained through it, and the class is emitted sorted
    by global root.  Nondecreasing per-shard order (the Section 7.4
    stream contract) makes the emitted order globally nondecreasing.
    """
    lookahead: "list[QueryResult | None]" = []
    frontier: "list[tuple[float, int]]" = []
    for index, stream in enumerate(streams):
        result = next(stream, None)
        lookahead.append(result)
        if result is not None:
            heapq.heappush(frontier, (result.cost, index))
    while frontier:
        cost = frontier[0][0]
        bucket: "list[tuple]" = []
        while frontier and frontier[0][0] == cost:
            _, index = heapq.heappop(frontier)
            result = lookahead[index]
            while result is not None and result.cost == cost:
                if result.root != 0:  # skip the collection-rooted pseudo-result
                    bucket.append(row_of(index, result))
                result = next(streams[index], None)
            lookahead[index] = result
            if result is not None:
                heapq.heappush(frontier, (result.cost, index))
        bucket.sort(key=lambda row: row[0])
        yield from bucket
