"""Query results as a downstream user sees them.

The evaluation algorithms return root-cost pairs; :class:`QueryResult`
wraps a pair together with the data tree so callers can inspect, render,
or re-serialize the matched subtree (the paper's final step: "the results
... belonging to the embedding roots are selected and retrieved to the
user").

:class:`ResultSet` is what :meth:`~repro.core.database.Database.query`
returns: a plain ``list`` of results (it compares equal to one) that also
carries the query's :class:`~repro.telemetry.report.QueryReport`.
:class:`ResultStream` is the streaming counterpart returned by
:meth:`~repro.core.database.Database.stream`, with a report that grows as
results are pulled.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from ..telemetry.collector import Telemetry, collecting
from ..telemetry.report import QueryReport
from ..xmltree.model import DataTree, NodeType
from ..xmltree.serialize import subtree_to_xml


class QueryResult:
    """One ranked result: the embedding root and its embedding cost."""

    __slots__ = ("root", "cost", "_tree")

    def __init__(self, root: int, cost: float, tree: DataTree) -> None:
        self.root = root
        self.cost = cost
        self._tree = tree

    @property
    def _pre(self) -> int:
        """Where the result subtree sits in ``_tree`` — ``root``, unless
        a subclass numbers its results apart from the tree it reads."""
        return self.root

    @property
    def label(self) -> str:
        """Element name of the result root."""
        return self._tree.label(self._pre)

    @property
    def similarity(self) -> float:
        """Cost mapped to a similarity score in (0, 1]: ``1 / (1 + cost)``.

        The paper ranks by cost directly; this standard transform is a
        convenience for interfaces that expect higher-is-better scores.
        The ordering is exactly the cost ordering, reversed.
        """
        return 1.0 / (1.0 + self.cost)

    @property
    def path(self) -> str:
        """Slash-separated label path from the collection root."""
        parts = [label for label, _ in self._tree.label_type_path(self._pre)]
        return "/" + "/".join(parts)

    def words(self) -> list[str]:
        """All words in the result subtree, in document order."""
        tree = self._tree
        return [
            tree.label(pre)
            for pre in tree.subtree(self._pre)
            if tree.node_type(pre) == NodeType.TEXT
        ]

    def outline(self, max_depth: int = 6) -> str:
        """Indented rendering of the result subtree."""
        return self._tree.format_subtree(self._pre, max_depth=max_depth)

    def xml(self, indent: "int | None" = None) -> str:
        """Serialize the result subtree back to XML.

        The data-tree normalization is lossy (attributes became child
        elements, text was word-split), so this is a canonical rendering
        of the *normalized* subtree, not the original document bytes.
        """
        return subtree_to_xml(self._tree, self._pre, indent=indent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.root == other.root and self.cost == other.cost

    def __hash__(self) -> int:
        return hash((self.root, self.cost))

    def __repr__(self) -> str:
        return f"QueryResult(root={self.root}, cost={self.cost}, label={self.label!r})"


class ResultSet(list):
    """The ranked results of one query, plus how they were computed.

    A ``list`` subclass, so every list operation — indexing, slicing,
    iteration, and crucially equality against a plain list of
    :class:`QueryResult` — behaves exactly as before the telemetry
    redesign.  On top of that it exposes:

    * :attr:`report` — the :class:`~repro.telemetry.report.QueryReport`
      (method chosen, per-stage counters, wall time);
    * :attr:`method` — shorthand for ``report.method``;
    * :attr:`costs` — the result costs as a plain list of floats.
    """

    __slots__ = ("report",)

    def __init__(self, results=(), report: "QueryReport | None" = None) -> None:
        super().__init__(results)
        self.report = report

    @property
    def method(self) -> "str | None":
        """The algorithm that produced the results (``"direct"`` or
        ``"schema"``), ``None`` when no report was attached."""
        return self.report.method if self.report is not None else None

    @property
    def costs(self) -> list[float]:
        """The embedding cost of each result, in rank order."""
        return [result.cost for result in self]

    def __repr__(self) -> str:
        return f"ResultSet({list.__repr__(self)}, method={self.method!r})"


class ResultStream:
    """Iterator over incrementally streamed results.

    Results arrive in increasing cost order (the Section 7.4 advantage of
    schema-driven evaluation).  :attr:`report` is live: its counters and
    wall time grow as results are pulled, so a consumer that stops early
    sees exactly what the evaluation did up to that point.

    The stream is pinned to the generation it was opened against: its
    iterator holds that generation's engine state.  ``on_close`` runs
    once, at exhaustion or :meth:`close`; a sharded stream closes its
    shard streams there and folds their reports into its own.
    """

    __slots__ = ("report", "_iterator", "_telemetry", "_on_close")

    def __init__(
        self,
        iterator: Iterator[QueryResult],
        report: QueryReport,
        telemetry: "Telemetry | None" = None,
        on_close=None,
    ) -> None:
        self._iterator = iterator
        self.report = report
        self._telemetry = telemetry
        self._on_close = on_close

    @property
    def method(self) -> str:
        return self.report.method

    def __iter__(self) -> "ResultStream":
        return self

    def close(self) -> None:
        """Run ``on_close`` (idempotent; also called automatically at
        exhaustion)."""
        on_close, self._on_close = self._on_close, None
        if on_close is not None:
            on_close()

    def __next__(self) -> QueryResult:
        start = time.perf_counter()
        try:
            if self._telemetry is None:
                try:
                    result = next(self._iterator)
                finally:
                    self.report.wall_seconds += time.perf_counter() - start
            else:
                with collecting(self._telemetry):
                    try:
                        result = next(self._iterator)
                    finally:
                        self.report.wall_seconds += time.perf_counter() - start
        except StopIteration:
            self.close()
            raise
        self.report.results += 1
        return result
