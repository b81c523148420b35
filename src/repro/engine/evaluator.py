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
from .primary import PrimaryEvaluator, best_pairs, valid_pairs


@dataclass(frozen=True)
class DirectResult:
    """One root-cost pair produced by the direct algorithm."""

    root: int
    cost: float


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
        expanded: "ExpandedQuery | None" = None,
    ) -> list[DirectResult]:
        """Best-``n`` root-cost pairs, sorted by (cost, root).

        ``n = None`` returns all approximate results; ``max_cost`` drops
        results costlier than the bound.  An active telemetry collector
        receives the ``direct.*`` counters of the run.
        ``expanded`` supplies a prebuilt closure (the compiled-query
        cache's Tier-1 artifact), skipping parse and expansion.
        """
        entries = self._run_primary(query, costs, expanded)
        pairs = valid_pairs(entries)
        if max_cost is not None:
            pairs = [(root, cost) for root, cost in pairs if cost <= max_cost]
        # every valid root within the bound, before the cut to n
        _telemetry.count("direct.results_total", len(pairs))
        return [DirectResult(root, cost) for root, cost in best_pairs(pairs, n)]

    def count(
        self,
        query: "str | NameSelector",
        costs: "CostModel | None" = None,
        max_cost: "float | None" = None,
        expanded: "ExpandedQuery | None" = None,
    ) -> int:
        """Number of approximate results, without materializing them.

        The counting fast path: runs the same ``primary`` evaluation but
        skips the sort and the per-result object construction — all a
        count needs is the number of roots with a valid embedding.
        """
        entries = self._run_primary(query, costs, expanded)
        leafcosts = entries.leafcost
        if max_cost is None:
            total = sum(1 for leaf in leafcosts if leaf != INFINITE)
        else:
            total = sum(1 for leaf in leafcosts if leaf <= max_cost)
        _telemetry.count("direct.results_total", total)
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
    ) -> EvalColumns:
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
        with _telemetry.timer("direct.primary"):
            return PrimaryEvaluator(self._indexes).evaluate(expanded)
