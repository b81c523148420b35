"""Cost-based adaptive query planning (statistics + cost model).

``repro.planner`` decides, per query, which of the paper's two
algorithms to run — replacing the static best-n/full-retrieval rule
with selectivity estimates over collection statistics read off the
schema.  See ``docs/PLANNER.md`` for the full story.
"""

from .cost import SCHEMA_BASE_COST, PlanEstimates, Planner
from .stats import CollectionStats, merge_stats

__all__ = [
    "CollectionStats",
    "PlanEstimates",
    "Planner",
    "SCHEMA_BASE_COST",
    "merge_stats",
]
