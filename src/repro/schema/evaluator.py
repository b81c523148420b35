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
round boundaries, and ``evaluate(q, n)`` is ``evaluate(q, None)[:n]``.
The first round's k is n scaled by the query's mean renaming-closure
width (see :meth:`SchemaEvaluator._initial_k`).

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
        results = list(
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
        if n is not None:
            results = results[:n]
        return results

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
        stream their results in increasing cost order.

        k doubles after every unproductive round, which bounds the
        number of (re-)runs of the top-k primary by O(log k_final);
        ``max_k`` caps it.

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
                _telemetry.count("schema.rounds")
                _telemetry.gauge("schema.final_k", k)
                _telemetry.gauge("schema.skeletons_enumerated", len(queries))
                fresh = [entry for entry in queries if entry.signature not in run.executed]
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


#: verdicts of :meth:`_BestN.admit`
_EXECUTE, _SATURATED, _BEYOND_BOUND = "execute", "saturated", "beyond-bound"


class _BestN:
    """What one run of the incremental driver has found so far, and the
    one place a second-level query is admitted and its instances are
    folded in."""

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

    def capture(self, k: int) -> DriverState:
        # in-flight skeletons (executed but not fully folded) must
        # re-run on resume; ``found`` dedups their replays
        self.executed.difference_update(self.pending)
        return DriverState(
            k=k,
            executed=self.executed,
            found=self.found,
            found_per_class=self.found_per_class,
            exhausted=self.drained,
        )

    def drain(self) -> None:
        """The answer is complete."""
        self.drained = True

    def admit(self, entry: SchemaEntry) -> str:
        """Whether the next second-level query (they come in cost order)
        is to be executed."""
        if self.max_cost is not None and entry.embcost > self.max_cost:
            # everything from here on exceeds the bound, in this round
            # and in all larger-k rounds that merely extend the prefix
            return _BEYOND_BOUND
        self.executed.add(entry.signature)
        if self.found_per_class.get(entry.pre, 0) >= self.instances_per_class.get(entry.pre, 0):
            # this root class is saturated: the skeleton can only
            # re-deliver known roots at equal or higher cost
            _telemetry.count("schema.saturation_skips")
            return _SATURATED
        self.pending.add(entry.signature)
        return _EXECUTE

    def fold(self, entry: SchemaEntry, instances):
        """Yield the results ``entry`` is the cheapest second-level query
        of; sets :attr:`finished` when the run is over."""
        _telemetry.count("schema.second_level_executed")
        if instances:
            _telemetry.count("schema.second_level_nonempty")
        found = self.found
        cost = entry.embcost
        for pre, _ in instances:
            if pre in found:
                continue
            found[pre] = cost
            self.found_per_class[entry.pre] = self.found_per_class.get(entry.pre, 0) + 1
            self.emitted += 1
            _telemetry.gauge("schema.results_found", self.emitted)
            yield SchemaResult(pre, cost, entry)
            if self.n is not None and self.emitted >= self.n:
                self.finished = True
                return
            if self.emitted >= self.total_possible:
                self.finished = True
                self.drain()
                return
        self.pending.discard(entry.signature)
