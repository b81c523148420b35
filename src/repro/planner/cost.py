"""The cost model: statistics in, algorithm choice out.

The paper's conclusion is a coarse rule — schema-driven for best-n,
direct for full retrieval — and until this module existed the database
hardcoded exactly that.  The :class:`Planner`, asked by the plan stage of
:class:`~repro.core.pipeline.QueryPipeline`, replaces the static branch
with selectivity estimates
read off a generation's :class:`~repro.planner.stats.CollectionStats`:

*   every selector of the query contributes its *renaming closure* —
    the label itself plus every rename target the cost table offers —
    and the closure's posting lengths sum to the work a direct scan
    must fetch (``posting_entries``);
*   the root selector's closure alone bounds how many root instances
    can match at any cost (``candidate_roots``);
*   the best-n driver's cost scales with how many skeletons it must
    execute to surface ``n`` winners, which grows with the mean closure
    width (wide renaming tables mean many low-yield skeletons).

Three decision rules fall out, each with the statistics in its reason
string: full retrieval always scans directly; a best-n whose candidate
population already fits in ``n`` scans directly too (the scan touches
nothing the driver wouldn't); otherwise the direct and schema estimates
compete and the cheaper one wins, ties going to direct.

The statistics are exact for their generation, so the candidate
estimate is an upper bound on what a query can return; the
``planner.*`` counters report predicted against observed per query.
How many skeletons each round of the chosen driver asks for is the
driver's own business (:mod:`repro.schema.evaluator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..approxql.ast import AndExpr, NameSelector, OrExpr, QueryExpr, TextSelector
from ..approxql.costs import CostModel
from ..xmltree.model import NodeType
from .stats import CollectionStats

#: fixed overhead charged to the schema-driven driver (schema traversal,
#: skeleton enumeration, round bookkeeping) before any posting is read
SCHEMA_BASE_COST = 64.0

#: coarse on-disk bytes per posting entry (four varints, typical widths)
_BYTES_PER_ENTRY = 12


@dataclass(frozen=True)
class PlanEstimates:
    """The numbers behind one plan decision — ``Database.plan()``'s
    ``estimates`` block and the source of the ``planner.*`` counters.

    ``schema_cost`` is ``None`` for full retrieval (no best-n driver
    runs).
    """

    candidate_roots: int
    posting_entries: int
    posting_bytes: int
    selectors: int
    root_renaming_width: int
    mean_renaming_width: float
    direct_cost: float
    schema_cost: "float | None"
    stats_generation: int

    def format(self) -> str:
        """Indented rendering for ``plan --verbose``."""
        return "\n".join([
            f"  estimates (statistics generation {self.stats_generation}):",
            f"    candidate roots: ~{self.candidate_roots}  "
            f"posting entries: ~{self.posting_entries}  "
            f"(~{self.posting_bytes} bytes)",
            f"    closure width: root {self.root_renaming_width}, "
            f"mean {self.mean_renaming_width:.1f} over {self.selectors} selector(s)",
            f"    direct cost: {self.direct_cost:.0f}"
            + (
                f"  schema cost: {self.schema_cost:.0f}"
                if self.schema_cost is not None
                else ""
            ),
        ])


class Planner:
    """One database's (or sharded database's) plan chooser.

    Stateless: every call takes the generation's statistics, so one
    planner serves every generation and thread of its handle.
    """

    def estimate(
        self,
        query: NameSelector,
        costs: CostModel,
        stats: CollectionStats,
        n: "int | None",
    ) -> PlanEstimates:
        """Score both algorithms for one query against one generation's
        statistics (no choice made yet)."""
        selectors = _collect_selectors(query)
        entries = 0
        width_total = 0
        for label, node_type in selectors:
            size, width = _closure(label, node_type, costs, stats)
            entries += size
            width_total += width
        candidates, root_width = _closure(query.label, NodeType.STRUCT, costs, stats)
        mean_width = width_total / len(selectors) if selectors else 1.0
        direct_cost = float(entries + candidates)
        schema_cost = None
        if n is not None:
            per_skeleton = entries / candidates if candidates else 0.0
            schema_cost = (
                SCHEMA_BASE_COST + min(n, candidates) * mean_width * per_skeleton
            )
        return PlanEstimates(
            candidate_roots=candidates,
            posting_entries=entries,
            posting_bytes=entries * _BYTES_PER_ENTRY,
            selectors=len(selectors),
            root_renaming_width=root_width,
            mean_renaming_width=mean_width,
            direct_cost=direct_cost,
            schema_cost=schema_cost,
            stats_generation=stats.generation,
        )

    def choose(
        self,
        query: NameSelector,
        costs: CostModel,
        stats: CollectionStats,
        n: "int | None",
        method: str = "auto",
    ) -> tuple[str, str, PlanEstimates]:
        """Resolve ``method`` to a concrete algorithm, with the reason
        and the estimates that justified it."""
        estimates = self.estimate(query, costs, stats, n)
        if method != "auto":
            return method, f"explicitly requested method={method!r}", estimates
        if n is None:
            return (
                "direct",
                "auto: full retrieval scans every posting once — statistics "
                f"predict ~{estimates.posting_entries} posting entries across "
                f"{estimates.selectors} selector closure(s) (direct, Section 6)",
                estimates,
            )
        if estimates.candidate_roots <= n:
            return (
                "direct",
                f"auto: statistics predict ~{estimates.candidate_roots} candidate "
                f"root(s) <= n={n}; a direct scan already touches every "
                "candidate the best-n driver could surface (Section 6)",
                estimates,
            )
        assert estimates.schema_cost is not None
        if estimates.schema_cost < estimates.direct_cost:
            return (
                "schema",
                f"auto: statistics favor the schema-driven driver for n={n} "
                f"(~{estimates.candidate_roots} candidates over "
                f"~{estimates.posting_entries} posting entries, mean "
                f"renaming-closure width {estimates.mean_renaming_width:.1f}; "
                "Section 7)",
                estimates,
            )
        return (
            "direct",
            f"auto: statistics favor a direct scan for n={n} (schema estimate "
            f"{estimates.schema_cost:.0f} >= direct estimate "
            f"{estimates.direct_cost:.0f})",
            estimates,
        )


def _collect_selectors(query: QueryExpr) -> list[tuple[str, NodeType]]:
    """Every (label, node type) selector of the query, in AST order
    (duplicates kept — each fetches its posting independently)."""
    out: list[tuple[str, NodeType]] = []
    _walk(query, out)
    return out


def _walk(expr: QueryExpr, out: list) -> None:
    if isinstance(expr, NameSelector):
        out.append((expr.label, NodeType.STRUCT))
        if expr.content is not None:
            _walk(expr.content, out)
    elif isinstance(expr, TextSelector):
        out.append((expr.word, NodeType.TEXT))
    elif isinstance(expr, (AndExpr, OrExpr)):
        for item in expr.items:
            _walk(item, out)


def _closure(
    label: str, node_type: NodeType, costs: CostModel, stats: CollectionStats
) -> tuple[int, int]:
    """(total posting length, present-label count) of a selector's
    renaming closure — the label itself plus every finite-cost rename
    target, counting only labels the collection actually contains."""
    size = stats.posting_size(label, node_type)
    width = 1 if size else 0
    for target, cost in costs.renamings(label, node_type):
        if target == label or cost == math.inf:
            continue
        target_size = stats.posting_size(target, node_type)
        if target_size:
            size += target_size
            width += 1
    return size, max(width, 1)


__all__ = [
    "PlanEstimates",
    "Planner",
    "SCHEMA_BASE_COST",
]
