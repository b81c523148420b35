"""The incremental schema-driven best-n evaluator (Section 7.4, Figure 6).

The driver asks the top-k primary for the best k second-level queries,
executes the not-yet-executed ones against ``I_sec`` in cost order, and
collects result roots.  If fewer than n results accumulate, k is
increased by δ and the loop repeats; executed skeletons are remembered by
signature, so growing k only executes the newly exposed suffix (the
paper's prefix-erasure, made robust against tie reordering).

The driver stops growing k when a round's root list is *exact* (nothing
was discarded anywhere below it, see :mod:`.topk_ops`) and holds no more
than k second-level queries — at that point the executed skeletons are
provably the whole closure's image in the schema.  One
:class:`~repro.schema.primary_k.PrimaryKEvaluator` serves all rounds of a
call, so a larger k recomputes only the lists the smaller k truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..approxql.ast import NameSelector
from ..approxql.costs import CostModel
from ..approxql.expanded import ExpandedQuery, build_expanded
from ..approxql.parser import parse_query
from ..concurrent import QueryPool, make_query_pool, resolve_jobs, worker_context
from ..errors import EvaluationError
from ..querycache import DriverState
from ..telemetry import collector as _telemetry
from ..xmltree.model import DataTree
from .dataguide import Schema, build_schema
from .entries import SchemaEntry  # noqa: F401 - part of SchemaResult's type
from .indexes import MemorySecondaryIndex, SchemaNodeIndexes, SecondaryIndex
from .primary_k import PrimaryKEvaluator
from .secondary import SecondaryExecutor
from .topk_ops import sort_roots

#: safety valve: k never grows beyond this
DEFAULT_MAX_K = 1_000_000

#: fallback ``initial_k`` when neither the caller nor ``n`` supplies one
DEFAULT_INITIAL_K = 16


def effective_schedule(
    n: "int | None",
    initial_k: "int | None",
    delta: "int | None",
) -> "tuple[int, int]":
    """The ``(k, delta)`` the incremental driver actually starts with
    for this request — defaults resolved exactly as :meth:`SchemaEvaluator.
    iter_results` resolves them.  The emitted order of equal-cost results
    depends on the round boundaries this schedule induces, so the
    resolved pair is part of a best-n answer's identity (the result
    cache keys on it; see ``repro.querycache``)."""
    if initial_k is None:
        initial_k = n if n is not None else DEFAULT_INITIAL_K
    k = max(1, initial_k)
    if delta is None:
        delta = max(1, k)
    return k, delta


@dataclass(frozen=True)
class SchemaResult:
    """One root-cost pair produced by the schema-driven algorithm.

    ``skeleton`` is the second-level query that retrieved the root; it is
    excluded from equality (two runs may retrieve the same root through
    different equally-cheap skeletons) and feeds the explanation facility.
    """

    root: int
    cost: float
    skeleton: "SchemaEntry | None" = field(default=None, compare=False, repr=False)


@dataclass
class EvaluationStats:
    """Observability for experiments: what the incremental driver did.

    .. deprecated::
        Superseded by the engine-wide telemetry layer: pass
        ``collect="counters"`` to :meth:`repro.core.database.Database.query`
        and read the ``schema.*`` counters off the returned report.  Kept
        as a shim for callers that drive :class:`SchemaEvaluator` directly.
    """

    rounds: int = 0
    final_k: int = 0
    second_level_generated: int = 0
    second_level_executed: int = 0
    second_level_nonempty: int = 0
    secondary_fetches: int = 0
    secondary_semijoins: int = 0
    results_found: int = 0
    exhausted: bool = False
    executed_skeletons: list[str] = field(default_factory=list)


class SchemaEvaluator:
    """Evaluates approXQL queries through the schema (the paper's second
    algorithm).

    Parameters
    ----------
    tree:
        The data tree.
    schema:
        Prebuilt schema; derived from ``tree`` when omitted.
    schema_indexes / secondary_index:
        Prebuilt index structures; in-memory ones are derived on demand.
    """

    def __init__(
        self,
        tree: "DataTree | None",
        schema: "Schema | None" = None,
        schema_indexes: "SchemaNodeIndexes | None" = None,
        secondary_index: "SecondaryIndex | None" = None,
    ) -> None:
        self._tree = tree
        if schema is None and (schema_indexes is None or secondary_index is None):
            if tree is None:
                raise EvaluationError(
                    "SchemaEvaluator needs a tree or prebuilt schema indexes"
                )
            schema = build_schema(tree)
        self._schema = schema
        self._indexes = (
            schema_indexes if schema_indexes is not None else SchemaNodeIndexes(schema)
        )
        self._isec = (
            secondary_index if secondary_index is not None else MemorySecondaryIndex(schema)
        )

    @property
    def schema(self) -> "Schema | None":
        return self._schema

    def evaluate(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        n: "int | None" = None,
        initial_k: "int | None" = None,
        delta: "int | None" = None,
        max_k: int = DEFAULT_MAX_K,
        growth: str = "geometric",
        max_cost: "float | None" = None,
        stats: "EvaluationStats | None" = None,
        jobs: "int | None" = None,
        executor: str = "thread",
        expanded: "ExpandedQuery | None" = None,
        resume: "DriverState | None" = None,
        state_sink=None,
    ) -> list[SchemaResult]:
        """Best-``n`` root-cost pairs via the incremental algorithm.

        ``n = None`` retrieves *all* approximate results.  ``initial_k``
        defaults to ``n`` (or 16); ``delta`` defaults to ``initial_k``.
        Pass an :class:`EvaluationStats` to observe the driver.
        ``jobs > 1`` executes each round's second-level queries on a
        worker pool — ``executor`` picks threads or processes (see
        :meth:`iter_results`).
        """
        results = list(
            self.iter_results(
                query,
                costs,
                n=n,
                initial_k=initial_k,
                delta=delta,
                max_k=max_k,
                growth=growth,
                max_cost=max_cost,
                stats=stats,
                jobs=jobs,
                executor=executor,
                expanded=expanded,
                resume=resume,
                state_sink=state_sink,
            )
        )
        if n is not None:
            results = results[:n]
        return results

    def iter_results(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        n: "int | None" = None,
        initial_k: "int | None" = None,
        delta: "int | None" = None,
        max_k: int = DEFAULT_MAX_K,
        growth: str = "geometric",
        max_cost: "float | None" = None,
        stats: "EvaluationStats | None" = None,
        jobs: "int | None" = None,
        executor: str = "thread",
        expanded: "ExpandedQuery | None" = None,
        resume: "DriverState | None" = None,
        state_sink=None,
    ):
        """Generator form of :meth:`evaluate` — the paper's "results can
        be sent immediately to the user" advantage: second-level queries
        stream their results in increasing cost order.

        ``growth`` selects how k advances between rounds: ``"linear"`` is
        the paper's fixed ``k += delta``; the default ``"geometric"``
        doubles the step after every unproductive round, which bounds the
        number of (re-)runs of the top-k primary by O(log k_final) and
        matters when n is far beyond the initial guess (or infinite).

        ``jobs > 1`` executes each round's independent second-level
        queries on a worker pool and merges their result streams back in
        cost order, so the emitted sequence is **identical** to the
        serial one.  Work counters may differ: the parallel driver
        dispatches a round's whole batch up front, so skeletons the
        serial driver would have skipped (root class saturated mid-round,
        n reached early) can count as executed.

        ``executor="process"`` runs the round's queries on a
        :class:`~repro.concurrent.ProcessQueryPool`: the ``I_sec``
        postings are exported once into a read-only shared-memory
        segment (cached per store generation) and each worker evaluates
        zero-copy against it — only skeleton payloads and result roots
        cross the pipe.  Falls back to threads when process pools or the
        export are unavailable.

        ``expanded`` supplies a prebuilt closure (the compiled-query
        cache's Tier-1 artifact), skipping parse and expansion.
        ``resume`` seeds the driver from a captured
        :class:`~repro.querycache.DriverState` — the continuation only
        re-emits results not in the resumed ``found`` map, so it yields
        exactly the suffix a cold run at a larger ``n`` would append.
        ``state_sink`` is called with the final :class:`DriverState`
        when the generator finishes (in-flight skeletons are removed
        from ``executed`` first, so a resume re-runs any skeleton whose
        instances were only partially consumed).
        """
        if executor not in ("thread", "process"):
            raise EvaluationError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        # captured before the serial SecondaryExecutor below shadows the
        # parameter name
        process_requested = executor == "process"
        if isinstance(query, str) and expanded is None:
            query = parse_query(query)
        if costs is None:
            costs = CostModel()
        if self._schema is not None:
            fingerprint = costs.insert_fingerprint
            self._schema.encode_costs(costs.insert_cost, fingerprint=fingerprint)
        if expanded is None:
            expanded = build_expanded(query, costs)

        if growth not in ("linear", "geometric"):
            raise EvaluationError(f"unknown growth mode {growth!r}")
        k, delta = effective_schedule(n, initial_k, delta)
        if delta < 1:
            raise EvaluationError(f"delta must be positive, got {delta}")

        executor = SecondaryExecutor(self._isec)
        # Root-class saturation (an exact early-termination rule): every
        # result is an instance of a candidate root class (the root label
        # or one of its renamings).  Results stream in increasing cost
        # order, so once every such instance has been retrieved, all
        # remaining second-level queries can only re-deliver known roots
        # at equal or higher cost — the answer is complete.  This bounds
        # full retrieval on permissive cost models, whose skeleton
        # closures are combinatorial while their result sets are not.
        # The same argument applies per class: a skeleton whose root
        # class is already fully retrieved needs no execution.
        run = _BestN(n, max_cost, stats, self._root_instance_counts(expanded.root), executor)
        if resume is not None:
            k = max(1, resume.k)
            delta = max(1, resume.delta)
            run.resume(resume)

        # Parallel second-level execution: one pool plus one
        # SecondaryExecutor per worker for the whole evaluation, so each
        # worker's fetch memo persists across rounds like the serial
        # executor's does.  Created lazily — a query that never sees a
        # round with two fresh skeletons never starts a thread.
        jobs = resolve_jobs(jobs)
        pool = None
        workers: "list[SecondaryExecutor]" = []
        process_pool = False
        shared_segment = None
        shared_segment_private = False

        try:
            if resume is not None and resume.exhausted:
                run.drained = True
                return
            if n is not None and run.emitted >= n:
                return
            # one evaluator for all rounds: its scoped candidates and
            # exact lists carry over as k grows (they live for this call
            # only and never enter the captured DriverState)
            evaluator = PrimaryKEvaluator(self._indexes, k)
            while True:
                with _telemetry.timer("schema.topk"):
                    root_entries = evaluator.evaluate(expanded, k)
                    queries = sort_roots(k, root_entries)
                if stats is not None:
                    stats.rounds += 1
                    stats.final_k = k
                    stats.second_level_generated = len(queries)
                _telemetry.count("schema.rounds")
                _telemetry.gauge("schema.final_k", k)
                _telemetry.gauge("schema.skeletons_enumerated", len(queries))
                fresh = [entry for entry in queries if entry.signature not in run.executed]
                if jobs > 1 and len(fresh) > 1:
                    # -- parallel round ----------------------------------
                    # The queries in `fresh` are independent; only the
                    # driver state is shared, and it stays on this thread.
                    # Dispatch the batch, then fold results back in the
                    # original cost order so the emitted sequence matches
                    # the serial path exactly.  Saturation is judged at
                    # round start (the parallel form of the serial
                    # mid-round check: conservative, never changes
                    # results — see the docstring).
                    batch = []
                    beyond_bound = False
                    for entry in fresh:
                        verdict = run.admit(entry)
                        if verdict is _BEYOND_BOUND:
                            beyond_bound = True
                            break
                        if verdict is _EXECUTE:
                            batch.append(entry)
                    if pool is None:
                        if process_requested:
                            setup, shared_segment, shared_segment_private = (
                                self._shared_secondary_setup()
                            )
                            if setup is not None:
                                pool = make_query_pool(jobs, "process", setup)
                                process_pool = not isinstance(pool, QueryPool)
                                if not process_pool and shared_segment_private:
                                    # thread fallback: the private export
                                    # will never be attached
                                    shared_segment.destroy()
                                    shared_segment = None
                        if pool is None:
                            pool = QueryPool(jobs)
                        if not process_pool:
                            workers = [SecondaryExecutor(self._isec) for _ in range(jobs)]
                            run.executors.extend(workers)
                    if process_pool:
                        # workers run their own SecondaryExecutor over the
                        # shared segment (set up once per worker process);
                        # only the skeleton entries cross the pipe
                        chunks = [batch[i::jobs] for i in range(jobs)]
                        with _telemetry.timer("schema.secondary"):
                            chunk_results = pool.map_ordered(_execute_chunk_shared, chunks)
                        stride = jobs
                    else:
                        chunks = [
                            (workers[i], batch[i :: len(workers)])
                            for i in range(len(workers))
                        ]
                        with _telemetry.timer("schema.secondary"):
                            chunk_results = pool.map_ordered(_execute_chunk, chunks)
                        stride = len(workers)
                    instances_by_index: "dict[int, list]" = {}
                    for i, chunk in enumerate(chunk_results):
                        for j, instances in enumerate(chunk):
                            instances_by_index[i + j * stride] = instances
                    for index, entry in enumerate(batch):
                        yield from run.fold(entry, instances_by_index[index])
                        if run.finished:
                            return
                    if beyond_bound:
                        run.drain()
                        return
                else:
                    for entry in fresh:
                        verdict = run.admit(entry)
                        if verdict is _BEYOND_BOUND:
                            run.drain()
                            return
                        if verdict is _EXECUTE:
                            with _telemetry.timer("schema.secondary"):
                                instances = executor.execute(entry)
                            yield from run.fold(entry, instances)
                            if run.finished:
                                return
                if root_entries.exact and root_entries.valid_count() <= k:
                    # nothing was discarded below the root list and the
                    # global cut kept all of it: every second-level query
                    # of the closure has been seen
                    run.drain()
                    return
                if k >= max_k:
                    # a short answer that is NOT known to be complete
                    _telemetry.count("schema.max_k_stops")
                    return
                k = min(max_k, k + delta)
                if growth == "geometric":
                    delta *= 2
                # a further round of the top-k primary with the larger k
                # (it rebuilds only the lists the smaller k truncated)
                _telemetry.count("schema.kdoubling_restarts")
        finally:
            if state_sink is not None:
                state_sink(run.capture(k, delta))
            if pool is not None:
                pool.shutdown()
            if shared_segment is not None:
                if shared_segment_private:
                    # query-private export (overlay view / memory index)
                    shared_segment.destroy()
                else:
                    # registered export: drop this query's pin so the
                    # registry may destroy it once a generation bump
                    # retires it (it outlives the query until then)
                    release = getattr(self._isec, "release_segment", None)
                    if release is not None:
                        release(shared_segment)

    def _shared_secondary_setup(self):
        """The worker setup spec for process-pool rounds: export ``I_sec``
        into a shared segment and hand workers its name.  Returns
        ``(setup, segment, private)``; ``(None, None, False)`` when the
        secondary index cannot export (process rounds then fall back to
        threads)."""
        shared = getattr(self._isec, "shared_segment", None)
        if shared is not None:
            segment, private = shared()
            return _SharedExecutorSetup(segment.name), segment, private
        export = getattr(self._isec, "export_postings", None)
        if export is not None:
            from ..storage.shm import SharedPostingSegment

            segment = SharedPostingSegment.build(dict(export()))
            return _SharedExecutorSetup(segment.name), segment, True
        return None, None, False

    def _root_instance_counts(self, root) -> "dict[int, int] | None":
        """Instance counts of every candidate root class (the data nodes
        that could possibly be results).  ``None`` when no schema object
        is available (stored-index mode)."""
        if self._schema is None:
            return None
        labels = [root.label]
        labels.extend(label for label, _ in root.renamings)
        candidate_classes: set[int] = set()
        for label in labels:
            for posting in self._indexes.fetch(label, root.node_type):
                candidate_classes.add(posting[0])
        return {
            node: self._schema.instance_count(node) for node in candidate_classes
        }

    def count_results(
        self, query: "str | NameSelector", costs: "CostModel | None" = None
    ) -> int:
        """Total number of approximate results (full retrieval)."""
        return len(self.evaluate(query, costs))


#: verdicts of :meth:`_BestN.admit`
_EXECUTE, _SATURATED, _BEYOND_BOUND = "execute", "saturated", "beyond-bound"


class _BestN:
    """What one run of the incremental driver has found so far, and the
    one place a second-level query is admitted and its instances are
    folded in — serial and parallel rounds differ only in when they
    execute what was admitted."""

    def __init__(
        self,
        n: "int | None",
        max_cost: "float | None",
        stats: "EvaluationStats | None",
        instances_per_class: "dict[int, int] | None",
        executor: SecondaryExecutor,
    ) -> None:
        self.n = n
        self.max_cost = max_cost
        self.stats = stats
        self.instances_per_class = instances_per_class
        self.total_possible = (
            sum(instances_per_class.values()) if instances_per_class is not None else None
        )
        #: every executor that ran a skeleton of this run (for the stats)
        self.executors = [executor]
        self.executed: set = set()
        self.found: dict[int, float] = {}
        self.found_per_class: dict[int, int] = {}
        self.emitted = 0
        # signatures added to ``executed`` whose instances are not yet
        # fully folded into ``found``; subtracted before a state capture
        self.pending: set = set()
        #: n reached, or every possible root found: stop the run
        self.finished = False
        # True when the answer is provably complete (exhaustion, cost
        # cutoff, or root-class saturation) — False when the driver
        # merely stopped at ``n``
        self.drained = False

    def resume(self, state: DriverState) -> None:
        self.executed = set(state.executed)
        self.found = dict(state.found)
        self.found_per_class = dict(state.found_per_class)
        self.emitted = len(self.found)

    def capture(self, k: int, delta: int) -> DriverState:
        # in-flight skeletons (executed but not fully folded) must
        # re-run on resume; ``found`` dedups their replays
        self.executed.difference_update(self.pending)
        return DriverState(
            k=k,
            delta=delta,
            executed=self.executed,
            found=self.found,
            found_per_class=self.found_per_class,
            exhausted=self.drained,
        )

    def drain(self) -> None:
        """The answer is complete."""
        self.drained = True
        if self.stats is not None:
            self.stats.exhausted = True

    def admit(self, entry: SchemaEntry) -> str:
        """Whether the next second-level query (they come in cost order)
        is to be executed."""
        if self.max_cost is not None and entry.embcost > self.max_cost:
            # everything from here on exceeds the bound, in this round
            # and in all larger-k rounds that merely extend the prefix
            return _BEYOND_BOUND
        self.executed.add(entry.signature)
        per_class = self.instances_per_class
        if per_class is not None and self.found_per_class.get(
            entry.pre, 0
        ) >= per_class.get(entry.pre, 0):
            # this root class is saturated: the skeleton can only
            # re-deliver known roots at equal or higher cost
            _telemetry.count("schema.saturation_skips")
            return _SATURATED
        self.pending.add(entry.signature)
        return _EXECUTE

    def fold(self, entry: SchemaEntry, instances):
        """Yield the results ``entry`` is the cheapest second-level query
        of; sets :attr:`finished` when the run is over."""
        stats = self.stats
        _telemetry.count("schema.second_level_executed")
        if instances:
            _telemetry.count("schema.second_level_nonempty")
        if stats is not None:
            stats.second_level_executed += 1
            stats.executed_skeletons.append(entry.format_skeleton())
            stats.secondary_fetches = sum(e.fetch_count for e in self.executors)
            stats.secondary_semijoins = sum(e.semijoin_count for e in self.executors)
            if instances:
                stats.second_level_nonempty += 1
        found = self.found
        cost = entry.embcost
        for pre, _ in instances:
            if pre in found:
                continue
            found[pre] = cost
            self.found_per_class[entry.pre] = self.found_per_class.get(entry.pre, 0) + 1
            self.emitted += 1
            if stats is not None:
                stats.results_found = self.emitted
            _telemetry.gauge("schema.results_found", self.emitted)
            yield SchemaResult(pre, cost, entry)
            if self.n is not None and self.emitted >= self.n:
                self.finished = True
                return
            if self.total_possible is not None and self.emitted >= self.total_possible:
                self.finished = True
                self.drain()
                return
        self.pending.discard(entry.signature)


def _execute_chunk(item: "tuple[SecondaryExecutor, list]") -> list:
    """Worker body of a parallel round: one worker's share of the batch,
    executed sequentially on that worker's dedicated executor (so its
    fetch memo is never touched by two threads)."""
    worker, entries = item
    return [worker.execute(entry) for entry in entries]


class _SharedExecutorSetup:
    """Process-worker setup: attach the shared ``I_sec`` segment and
    build the worker's own :class:`SecondaryExecutor` over it.  The
    executor (and its skeleton memo) lives for the worker's lifetime,
    mirroring the one-executor-per-thread-worker arrangement."""

    __slots__ = ("segment_name",)

    def __init__(self, segment_name: str) -> None:
        self.segment_name = segment_name

    def activate(self) -> SecondaryExecutor:
        from ..storage.shm import SharedPostingSegment
        from .indexes import SharedSecondaryIndex

        segment = SharedPostingSegment.attach(self.segment_name)
        return SecondaryExecutor(SharedSecondaryIndex(segment))


def _execute_chunk_shared(entries: list) -> list:
    """Process twin of :func:`_execute_chunk`: the executor comes from
    the worker's process-local context, not the task payload — only the
    skeleton entries and the result instances cross the pipe."""
    executor = worker_context()
    return [executor.execute(entry) for entry in entries]
