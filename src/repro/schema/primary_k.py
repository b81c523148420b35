"""Algorithm ``primary`` adapted to the schema — the second-level
queries in cost order (Section 7.2).

The recursion is the one of Figure 4 (:mod:`repro.engine.primary`); the
list operations are the segmented top-k variants, built on demand
(:class:`~repro.schema.topk_ops.SegmentAlgebra`), and the result entries
are second-level query skeletons (schema node + label + pointer set).
Tree classes and the transitivity of embeddings (Section 7.1) guarantee
that running the same algorithm over the schema's indexes enumerates
exactly the images of all approximate embeddings of the query in the
schema.
"""

from __future__ import annotations

from ..approxql.expanded import ExpandedQuery
from ..engine.primary import PrimaryRecursion
from .indexes import SchemaNodeIndexes
from .secondary import SecondaryExecutor
from .topk_ops import SegmentAlgebra, SegmentStream


class PrimaryKEvaluator(PrimaryRecursion):
    """``primary`` over the schema indexes, one query per call.

    With an ``executor``, conjunctions whose two sides share no instance
    are skipped (:meth:`SecondaryExecutor.conjoin`), so every skeleton
    the root list yields has an instance; the driver executes from the
    same executor, whose memo then already holds every inner skeleton.
    """

    def __init__(
        self, indexes: SchemaNodeIndexes, executor: "SecondaryExecutor | None" = None
    ) -> None:
        super().__init__(
            SegmentAlgebra(indexes, None if executor is None else executor.conjoin)
        )

    def evaluate(self, expanded: ExpandedQuery) -> SegmentStream:
        """The root list — root matches with their skeletons, as a
        segmented list over root schema classes — whose runs are built as
        far as they are read (:meth:`SegmentStream.skeletons`,
        :meth:`SegmentStream.top`)."""
        return self._evaluate(expanded)
