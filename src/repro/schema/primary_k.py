"""Algorithm ``primary`` adapted to the schema — finding the best k
second-level queries (Section 7.2).

The recursion is the one of Figure 4 (:mod:`repro.engine.primary`); the
list operations are the segmented top-k variants
(:class:`~repro.schema.topk_ops.SegmentAlgebra`), and the result entries
are second-level query skeletons (schema node + label + pointer set).
Tree classes and the transitivity of embeddings (Section 7.1) guarantee
that running the same algorithm over the schema's indexes enumerates
exactly the images of all approximate embeddings of the query in the
schema.

*Resumption*: one evaluator serves all of a query's growing-k rounds;
what does not depend on k (fetches, scopes, scoped candidates) is built
once, and a list that came out exact (see :mod:`.topk_ops`) is the list
for every larger k and is reused as it is.
"""

from __future__ import annotations

from ..approxql.expanded import ExpandedQuery
from ..engine.primary import PrimaryRecursion
from ..errors import EvaluationError
from .indexes import SchemaNodeIndexes
from .topk_ops import SegmentAlgebra, TopKList


class PrimaryKEvaluator(PrimaryRecursion):
    """Top-k runs of ``primary`` over the schema indexes.

    One instance serves one query: the incremental driver calls
    :meth:`evaluate` once per round with a growing ``k``.  After a call,
    :attr:`exact` tells whether the returned root list contains *all*
    second-level queries of the query's closure (nothing was discarded
    anywhere).
    """

    def __init__(self, indexes: SchemaNodeIndexes, k: int) -> None:
        if k < 1:
            raise EvaluationError(f"k must be positive, got {k}")
        super().__init__(SegmentAlgebra(indexes, k))
        #: whether the last :meth:`evaluate` discarded nothing
        self.exact = False

    def evaluate(self, expanded: ExpandedQuery, k: "int | None" = None) -> TopKList:
        """All candidate second-level queries (root matches with their
        skeletons), as a segmented list over root schema classes.  ``k``
        replaces the evaluator's k for this and later calls; growing it
        on the same query keeps every exact list of the earlier calls."""
        algebra = self._algebra
        if k is None:
            k = algebra.k
        if k < 1:
            raise EvaluationError(f"k must be positive, got {k}")
        if k < algebra.k:
            # an exact list of a larger k may exceed the smaller one:
            # nothing carries over
            self._expanded = None
        algebra.k = k
        result = self._evaluate(expanded)
        self.exact = result.exact
        return result
