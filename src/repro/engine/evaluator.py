"""The direct best-n evaluator (the paper's first algorithm).

"The first algorithm finds all approximate results, sorts them by
increasing cost, and prunes the result list after the nth entry."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..approxql.ast import NameSelector
from ..approxql.costs import CostModel
from ..approxql.expanded import ExpandedQuery, build_expanded
from ..approxql.parser import parse_query
from ..telemetry import collector as _telemetry
from ..xmltree.indexes import MemoryNodeIndexes, NodeIndexes
from ..xmltree.model import DataTree
from .columns import EvalColumns
from .entries import INFINITE
from .primary import PrimaryEvaluator, root_cost_pairs


@dataclass(frozen=True)
class DirectResult:
    """One root-cost pair produced by the direct algorithm."""

    root: int
    cost: float


@dataclass
class DirectStats:
    """Observability for experiments: what one direct evaluation did.

    Superseded by the engine-wide telemetry layer (activate a collector
    and read the ``direct.*`` counters); kept for callers that want a
    plain accumulating object without ambient state.
    """

    fetch_count: int = 0
    postings_fetched: int = 0
    memo_hits: int = 0
    list_ops: int = 0
    merge_ops: int = 0
    fetch_cache_hits: int = 0
    results_total: int = 0


class DirectEvaluator:
    """Evaluates approXQL queries with algorithm ``primary`` and prunes
    the sorted result list to the requested ``n`` (Definition 12).

    Parameters
    ----------
    tree:
        The data tree (needed to re-encode insert costs per cost model).
    indexes:
        Optional prebuilt indexes; in-memory indexes are built on demand.
    """

    def __init__(self, tree: DataTree, indexes: "NodeIndexes | None" = None) -> None:
        self._tree = tree
        self._indexes = indexes if indexes is not None else MemoryNodeIndexes(tree)

    def evaluate(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        n: "int | None" = None,
        max_cost: "float | None" = None,
        stats: "DirectStats | None" = None,
        expanded: "ExpandedQuery | None" = None,
    ) -> list[DirectResult]:
        """Best-``n`` root-cost pairs, sorted by (cost, root).

        ``n = None`` returns all approximate results; ``max_cost`` drops
        results costlier than the bound.  Pass a :class:`DirectStats` to
        observe fetches, memo hits, and list-op counts (or activate a
        telemetry collector and read the ``direct.*`` counters).
        ``expanded`` supplies a prebuilt closure (the compiled-query
        cache's Tier-1 artifact), skipping parse and expansion.
        """
        entries, evaluator = self._run_primary(query, costs, expanded)
        if n is not None and max_cost is None:
            # Best-n fast path: bounded heap selection instead of the
            # full sort.  ``results_total`` still reports every valid
            # root (the pre-truncation count), matching the slow path.
            total = sum(1 for leaf in entries.leafcost if leaf != INFINITE)
            pairs = root_cost_pairs(entries, n=n)
            self._publish(evaluator, total, stats)
            return [DirectResult(root, cost) for root, cost in pairs]
        pairs = root_cost_pairs(entries)
        if max_cost is not None:
            pairs = [(root, cost) for root, cost in pairs if cost <= max_cost]
        self._publish(evaluator, len(pairs), stats)
        if n is not None:
            pairs = pairs[:n]
        return [DirectResult(root, cost) for root, cost in pairs]

    def count(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        max_cost: "float | None" = None,
        stats: "DirectStats | None" = None,
        expanded: "ExpandedQuery | None" = None,
    ) -> int:
        """Number of approximate results, without materializing them.

        The counting fast path: runs the same ``primary`` evaluation but
        skips the sort and the per-result object construction — all a
        count needs is the number of roots with a valid embedding.
        """
        entries, evaluator = self._run_primary(query, costs, expanded)
        leafcosts = entries.leafcost
        if max_cost is None:
            total = sum(1 for leaf in leafcosts if leaf != INFINITE)
        else:
            total = sum(1 for leaf in leafcosts if leaf <= max_cost)
        self._publish(evaluator, total, stats)
        return total

    def count_results(self, query: "str | NameSelector", costs: "CostModel | None" = None) -> int:
        """Total number of approximate results for the query."""
        return self.count(query, costs)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _run_primary(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None",
        expanded: "ExpandedQuery | None" = None,
    ) -> tuple[EvalColumns, PrimaryEvaluator]:
        """Shared prelude of :meth:`evaluate` and :meth:`count`: parse,
        re-encode insert costs, expand, and run algorithm ``primary``
        (parse and expansion are skipped when ``expanded`` is prebuilt)."""
        if costs is None:
            costs = CostModel()
        self._tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        if expanded is None:
            if isinstance(query, str):
                query = parse_query(query)
            expanded = build_expanded(query, costs)
        evaluator = PrimaryEvaluator(self._indexes)
        with _telemetry.timer("direct.primary"):
            entries = evaluator.evaluate(expanded)
        return entries, evaluator

    @staticmethod
    def _publish(
        evaluator: PrimaryEvaluator, results_total: int, stats: "DirectStats | None"
    ) -> None:
        """Fold the run's counters into ``stats`` and the active
        telemetry collection."""
        if stats is not None:
            stats.fetch_count += evaluator.fetch_count
            stats.postings_fetched += evaluator.postings_fetched
            stats.memo_hits += evaluator.memo_hits
            stats.list_ops += evaluator.list_ops
            stats.merge_ops += evaluator.merge_ops
            stats.fetch_cache_hits += evaluator.fetch_cache_hits
            stats.results_total += results_total
        telemetry = _telemetry.current()
        if telemetry is not None:
            telemetry.count("direct.index_fetches", evaluator.fetch_count)
            telemetry.count("direct.postings_fetched", evaluator.postings_fetched)
            telemetry.count("direct.postings_scoped_out", evaluator.postings_scoped_out)
            telemetry.count("direct.memo_hits", evaluator.memo_hits)
            telemetry.count("direct.lists_materialized", evaluator.list_ops)
            telemetry.count("direct.merge_steps", evaluator.merge_ops)
            telemetry.count("direct.fetch_cache_hits", evaluator.fetch_cache_hits)
            telemetry.count("direct.results_total", results_total)
