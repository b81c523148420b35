"""Direct query evaluation (Section 6): list algebra, algorithm
``primary``, and the pruning best-n evaluator.

The list algebra is served by the columnar kernel
(:mod:`repro.engine.columns` + :mod:`repro.engine.ops`); the retained
entry-per-object implementation lives in :mod:`repro.engine.reference`
as the executable specification the property suite checks the kernel
against.  :mod:`repro.engine.primary` holds the one Figure 4 recursion:
:class:`PrimaryEvaluator` runs it over the kernel's data postings, and
the schema's top-k ``primary`` runs the same code over class segments."""

from .columns import EvalColumns, SparseTable, as_columns
from .entries import INFINITE, ListEntry, entry_from_posting
from .evaluator import DirectEvaluator, DirectResult
from .ops import (
    EvalList,
    add_edge_cost,
    fetch,
    intersect,
    join,
    merge,
    merge_shifted,
    outerjoin,
    sort_best,
    union,
)
from .primary import PrimaryEvaluator, root_cost_pairs

__all__ = [
    "DirectEvaluator",
    "DirectResult",
    "EvalColumns",
    "EvalList",
    "INFINITE",
    "ListEntry",
    "PrimaryEvaluator",
    "SparseTable",
    "add_edge_cost",
    "as_columns",
    "entry_from_posting",
    "fetch",
    "intersect",
    "join",
    "merge",
    "merge_shifted",
    "outerjoin",
    "root_cost_pairs",
    "sort_best",
    "union",
]
