"""The incremental schema-driven best-n evaluator (Section 7.4, Figure 6).

The driver asks the top-k primary for the best k second-level queries,
executes the not-yet-executed ones against ``I_sec`` in cost order, and
collects result roots.  If fewer than n results accumulate, k doubles
and the loop repeats; executed skeletons are remembered by signature, so
growing k only executes the newly exposed suffix (the paper's
prefix-erasure, made robust against tie reordering).

The k schedule is a private policy: it changes how long an answer
takes, never what it is.  Every top-k list is a prefix of one order,
(cost, signature), so the skeletons execute in that order whatever the
round boundaries.  Results are held back one cost class at a time and
handed out in root order once the next skeleton to run costs more (or
the run ends), so the answer is in (cost, root) order — the direct
algorithm's — and ``evaluate(q, n)`` is ``evaluate(q, None)[:n]``, ties
included.  The first round's k is n scaled by the query's mean
renaming-closure width (see :meth:`SchemaEvaluator._initial_k`).

The driver stops growing k when a round's root list is *exact* (nothing
was discarded anywhere below it, see :mod:`.topk_ops`) and holds no more
than k second-level queries — at that point the executed skeletons are
provably the whole closure's image in the schema.  One
:class:`~repro.schema.primary_k.PrimaryKEvaluator` serves all rounds of a
call, so a larger k recomputes only the lists the smaller k truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..approxql.ast import NameSelector
from ..approxql.costs import CostModel
from ..approxql.expanded import ExpandedNode, ExpandedQuery, RepType, build_expanded
from ..approxql.parser import parse_query
from ..errors import EvaluationError
from ..querycache import DriverState
from ..telemetry import collector as _telemetry
from ..xmltree.model import DataTree
from .dataguide import Schema, build_schema
from .entries import SchemaEntry  # noqa: F401 - part of SchemaResult's type
from .indexes import MemorySecondaryIndex, SchemaNodeIndexes
from .primary_k import PrimaryKEvaluator
from .secondary import SecondaryExecutor
from .topk_ops import sort_roots

#: safety valve: k never grows beyond this
DEFAULT_MAX_K = 1_000_000

#: the first round's k of full retrieval (``n`` is ``None``)
DEFAULT_INITIAL_K = 16

#: ceiling of the first round's k (``max_k`` still bounds growth)
MAX_INITIAL_K = 4096


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


class SchemaEvaluator:
    """Evaluates approXQL queries through the schema (the paper's second
    algorithm).

    Parameters
    ----------
    tree:
        The data tree.
    schema:
        Prebuilt schema; derived from ``tree`` when omitted.  Its
        instance columns serve ``I_sec`` (second-level queries) for
        in-memory and stored databases alike.
    """

    def __init__(self, tree: "DataTree | None", schema: "Schema | None" = None) -> None:
        if schema is None:
            if tree is None:
                raise EvaluationError("SchemaEvaluator needs a tree or a prebuilt schema")
            schema = build_schema(tree)
        self._schema = schema
        self._indexes = SchemaNodeIndexes(schema)
        self._isec = MemorySecondaryIndex(schema)

    @property
    def schema(self) -> Schema:
        return self._schema

    def evaluate(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        n: "int | None" = None,
        max_k: int = DEFAULT_MAX_K,
        max_cost: "float | None" = None,
        expanded: "ExpandedQuery | None" = None,
        resume: "DriverState | None" = None,
        state_sink=None,
    ) -> list[SchemaResult]:
        """Best-``n`` root-cost pairs via the incremental algorithm.

        ``n = None`` retrieves *all* approximate results.
        """
        return list(
            self.iter_results(
                query,
                costs,
                n=n,
                max_k=max_k,
                max_cost=max_cost,
                expanded=expanded,
                resume=resume,
                state_sink=state_sink,
            )
        )

    def iter_results(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        n: "int | None" = None,
        max_k: int = DEFAULT_MAX_K,
        max_cost: "float | None" = None,
        expanded: "ExpandedQuery | None" = None,
        resume: "DriverState | None" = None,
        state_sink=None,
    ):
        """Generator form of :meth:`evaluate` — the paper's "results can
        be sent immediately to the user" advantage: second-level queries
        stream their results in increasing cost order, each cost class
        handed out in root order as soon as the next skeleton costs more.

        k doubles after every unproductive round, which bounds the
        number of (re-)runs of the top-k primary by O(log k_final);
        ``max_k`` caps it.

        ``expanded`` supplies a prebuilt closure (the compiled-query
        cache's Tier-1 artifact), skipping parse and expansion.
        ``resume`` seeds the driver from a captured
        :class:`~repro.querycache.DriverState` — the continuation first
        hands out the found roots past the resumed prefix (the rest of
        the cost class it was cut in), then only results not in
        ``found``, so it yields exactly the suffix a cold run at a larger
        ``n`` would append.  ``state_sink`` is called with the final
        :class:`DriverState` when the generator finishes.
        """
        if isinstance(query, str) and expanded is None:
            query = parse_query(query)
        if costs is None:
            costs = CostModel()
        self._schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        if expanded is None:
            expanded = build_expanded(query, costs)

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
        run = _BestN(n, max_cost, self._root_instance_counts(expanded.root))
        k = self._initial_k(expanded, n)
        if resume is not None:
            k = max(k, resume.k)
            run.resume(resume)
        k = min(k, max_k)

        try:
            # a resumed run first hands out the rest of the cost class
            # its prefix was cut in
            yield from run.flush()
            if run.finished or run.drained:
                return
            # one evaluator for all rounds: its scoped candidates and
            # exact lists carry over as k grows (they live for this call
            # only and never enter the captured DriverState)
            evaluator = PrimaryKEvaluator(self._indexes, k)
            while True:
                with _telemetry.timer("schema.topk"):
                    root_entries = evaluator.evaluate(expanded, k)
                    queries = sort_roots(k, root_entries)
                _telemetry.count("schema.rounds")
                _telemetry.gauge("schema.final_k", k)
                _telemetry.gauge("schema.skeletons_enumerated", len(queries))
                for entry in queries:
                    if entry.signature in run.executed:
                        continue
                    if entry.embcost > run.cost:
                        # the held cost class is passed: nothing cheaper
                        # or equal is left to find
                        yield from run.flush()
                        if run.finished:
                            return
                    run.take(entry, executor)
                    if run.drained:
                        break
                if root_entries.exact and root_entries.valid_count() <= k:
                    # nothing was discarded below the root list and the
                    # global cut kept all of it: every second-level query
                    # of the closure has been seen
                    run.drained = True
                if run.drained or k >= max_k:
                    if not run.drained:
                        # a short answer that is NOT known to be complete
                        _telemetry.count("schema.max_k_stops")
                    yield from run.flush()
                    return
                k = min(max_k, 2 * k)
                # a further round of the top-k primary with the larger k
                # (it rebuilds only the lists the smaller k truncated)
                _telemetry.count("schema.kdoubling_restarts")
        finally:
            if state_sink is not None:
                state_sink(run.capture(k))

    def _initial_k(self, expanded: ExpandedQuery, n: "int | None") -> int:
        """The first round's k: ``n`` scaled by the mean renaming-closure
        width over the query's selectors, so a wide closure — many
        low-yield skeletons per result — needs fewer rounds to expose
        ``n`` results."""
        if n is None:
            return DEFAULT_INITIAL_K
        widths = [
            self._closure_width(node)
            for node in expanded.iter_unique_nodes()
            if node.reptype in (RepType.NODE, RepType.LEAF)
        ]
        mean_width = sum(widths) / len(widths)
        return min(MAX_INITIAL_K, max(n, math.ceil(n * mean_width)))

    def _closure_width(self, node: ExpandedNode) -> int:
        """How many labels of a selector's renaming closure (the label
        and its finite-cost rename targets) the collection holds a live
        instance of; at least 1."""
        present = self._indexes.posting_size
        labels = {node.label, *(target for target, _ in node.renamings)}
        return max(1, sum(1 for label in labels if present(label, node.node_type)))

    def _root_instance_counts(self, root) -> "dict[int, int]":
        """Instance counts of every candidate root class (the data nodes
        that could possibly be results)."""
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


class _BestN:
    """What one run of the incremental driver has found so far: the one
    place a second-level query is admitted and its instances are folded
    in, and the one place results are handed out.

    Results are held back one cost class at a time and handed out in
    root order once the class is passed, so every run emits the (cost,
    root) order whatever its k schedule, and stops at ``n`` only at a
    class boundary."""

    def __init__(
        self,
        n: "int | None",
        max_cost: "float | None",
        instances_per_class: "dict[int, int]",
    ) -> None:
        self.n = n
        self.max_cost = max_cost
        self.instances_per_class = instances_per_class
        self.total_possible = sum(instances_per_class.values())
        self.executed: set = set()
        self.found: dict[int, float] = {}
        self.found_per_class: dict[int, int] = {}
        #: results handed out so far (a resumed run counts its prefix)
        self.emitted = 0
        #: the cost class being collected, and its results
        self.cost = -math.inf
        self.held: list[SchemaResult] = []
        #: n reached at a class boundary: stop the run
        self.finished = False
        # True when the answer is provably complete (exhaustion, cost
        # cutoff, or root-class saturation) — False when the driver
        # merely stopped at ``n``
        self.drained = False

    def resume(self, state: DriverState) -> None:
        self.executed = set(state.executed)
        self.found = dict(state.found)
        self.found_per_class = dict(state.found_per_class)
        self.emitted = state.emitted
        self.drained = state.exhausted
        # the found roots the resumed prefix did not hand out: the rest
        # of the (complete) cost class it was cut in
        ranked = sorted(self.found.items(), key=lambda pair: (pair[1], pair[0]))
        self.held = [SchemaResult(root, cost) for root, cost in ranked[self.emitted:]]

    def capture(self, k: int) -> DriverState:
        # every executed skeleton is fully folded: a run stops only
        # between skeletons, or mid-skeleton once it has drained
        return DriverState(
            k=k,
            executed=self.executed,
            found=self.found,
            found_per_class=self.found_per_class,
            exhausted=self.drained,
            emitted=self.emitted,
        )

    def flush(self):
        """Hand out the held cost class in root order, ``n`` results in
        all at most; sets :attr:`finished` when ``n`` is reached."""
        held, self.held = self.held, []
        held.sort(key=lambda result: result.root)
        for result in held:
            if self.n is not None and self.emitted >= self.n:
                break
            self.emitted += 1
            yield result
        self.finished = self.n is not None and self.emitted >= self.n

    def take(self, entry: SchemaEntry, executor: SecondaryExecutor) -> None:
        """Admit the next second-level query (they come in cost order)
        and fold in what it retrieves; sets :attr:`drained` when nothing
        it or any later one retrieves can be part of the answer."""
        if self.max_cost is not None and entry.embcost > self.max_cost:
            # everything from here on exceeds the bound, in this round
            # and in all larger-k rounds that merely extend the prefix
            self.drained = True
            return
        self.executed.add(entry.signature)
        self.cost = entry.embcost
        if self.found_per_class.get(entry.pre, 0) >= self.instances_per_class.get(entry.pre, 0):
            # this root class is saturated: the skeleton can only
            # re-deliver known roots at equal or higher cost
            _telemetry.count("schema.saturation_skips")
            return
        with _telemetry.timer("schema.secondary"):
            instances = executor.execute(entry)
        _telemetry.count("schema.second_level_executed")
        if instances:
            _telemetry.count("schema.second_level_nonempty")
        found = self.found
        for pre, _ in instances:
            if pre in found:
                continue
            found[pre] = self.cost
            self.found_per_class[entry.pre] = self.found_per_class.get(entry.pre, 0) + 1
            self.held.append(SchemaResult(pre, self.cost, entry))
            if len(found) >= self.total_possible:
                self.drained = True
                break
        _telemetry.gauge("schema.results_found", len(found))
