"""The incremental schema-driven best-n evaluator (Section 7.4, Figure 6).

The paper's driver reruns the top-k ``primary`` with a growing k until
its second-level queries have delivered n results.  Here the top-k lists
are built on demand (:mod:`.topk_ops`), so there is one run: the driver
pulls root skeletons in (cost, pre, signature) order, executes each
against ``I_sec`` and collects result roots, and a list is extended only
as far as the pull reaches.  Conjunctions whose sides share no instance
are skipped while the lists are built, so every pulled skeleton has an
instance.

Results are held back one cost class at a time and handed out in root
order once the next skeleton costs more (or the pull ends), so the
answer is in (cost, root) order — the direct algorithm's — and
``evaluate(q, n)`` is ``evaluate(q, None)[:n]``, ties included.  When
the pull ends, every second-level query of the closure has been seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..approxql.ast import NameSelector
from ..approxql.costs import CostModel
from ..approxql.expanded import ExpandedQuery, build_expanded
from ..approxql.parser import parse_query
from ..errors import EvaluationError
from ..telemetry import collector as _telemetry
from ..xmltree.model import DataTree
from .dataguide import Schema, build_schema
from .entries import SchemaEntry  # noqa: F401 - part of SchemaResult's type
from .indexes import MemorySecondaryIndex, SchemaNodeIndexes
from .primary_k import PrimaryKEvaluator
from .secondary import SecondaryExecutor


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
        max_cost: "float | None" = None,
        expanded: "ExpandedQuery | None" = None,
    ) -> list[SchemaResult]:
        """Best-``n`` root-cost pairs via the incremental algorithm.

        ``n = None`` retrieves *all* approximate results.
        """
        return list(self.iter_results(query, costs, n=n, max_cost=max_cost, expanded=expanded))

    def iter_results(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        n: "int | None" = None,
        max_cost: "float | None" = None,
        expanded: "ExpandedQuery | None" = None,
    ):
        """Generator form of :meth:`evaluate` — the paper's "results can
        be sent immediately to the user" advantage: second-level queries
        stream their results in increasing cost order, each cost class
        handed out in root order as soon as the next skeleton costs more.

        ``expanded`` supplies a prebuilt closure (the compiled-query
        cache's Tier-1 artifact), skipping parse and expansion.
        """
        if isinstance(query, str) and expanded is None:
            query = parse_query(query)
        if costs is None:
            costs = CostModel()
        self._schema.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        if expanded is None:
            expanded = build_expanded(query, costs)
        if n == 0:
            return

        executor = SecondaryExecutor(self._isec)
        # Root-class saturation (an exact early-termination rule): every
        # result is an instance of a candidate root class (the root label
        # or one of its renamings).  Results stream in increasing cost
        # order, so once every such instance has been retrieved, all
        # remaining second-level queries can only re-deliver known roots
        # at equal or higher cost — the answer is complete.  This bounds
        # full retrieval on permissive cost models, whose skeleton
        # closures are combinatorial while their result sets are not.
        # The same argument applies per class: once a root class is fully
        # retrieved, the pull drops its remaining skeletons.
        run = _BestN(n, max_cost, self._root_instance_counts(expanded.root))
        _telemetry.count("schema.rounds")
        with _telemetry.timer("schema.topk"):
            roots = PrimaryKEvaluator(self._indexes, executor).evaluate(expanded)
        # one pull never yields a skeleton signature twice
        skeletons = roots.skeletons(run.saturated)
        pulled = 0
        while not run.drained:
            # the top-k lists are built as far as this pull reads them
            with _telemetry.timer("schema.topk"):
                entry = next(skeletons, None)
            if entry is None:
                # every second-level query of the closure has been seen
                break
            pulled += 1
            _telemetry.gauge("schema.skeletons_enumerated", pulled)
            if entry.embcost > run.cost:
                # the held cost class is passed: nothing cheaper or
                # equal is left to find
                yield from run.flush()
                if run.finished:
                    return
            run.take(entry, executor)
        yield from run.flush()

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
    root) order, and stops at ``n`` only at a class boundary."""

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
        self.found: dict[int, float] = {}
        self.found_per_class: dict[int, int] = {}
        #: results handed out so far
        self.emitted = 0
        #: the cost class being collected, and its results
        self.cost = -math.inf
        self.held: list[SchemaResult] = []
        #: n reached at a class boundary: stop the run
        self.finished = False
        #: nothing a later skeleton retrieves can be part of the answer
        #: (cost cutoff or root-class saturation)
        self.drained = False

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

    def saturated(self, root_class: int) -> bool:
        """Whether every instance of a root class has been found: its
        further skeletons can only re-deliver known roots at equal or
        higher cost, so the pull drops them."""
        return self.found_per_class.get(root_class, 0) >= self.instances_per_class.get(
            root_class, 0
        )

    def take(self, entry: SchemaEntry, executor: SecondaryExecutor) -> None:
        """Admit the next second-level query (they come in cost order)
        and fold in what it retrieves; sets :attr:`drained` when nothing
        it or any later one retrieves can be part of the answer."""
        if self.max_cost is not None and entry.embcost > self.max_cost:
            # everything from here on exceeds the bound
            self.drained = True
            return
        self.cost = entry.embcost
        with _telemetry.timer("schema.secondary"):
            instances = executor.execute(entry)
        _telemetry.count("schema.second_level_executed")
        if len(instances):
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
