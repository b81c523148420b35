"""Extended list entries for the schema-driven evaluation (Section 7.2).

The top-k entries extend the Section 6.3 tuple with ``label`` and a
``pointers`` set: an entry represents the image of one embedding of a
query subtree in the schema, and the entry reachable through the pointer
set is a *skeleton* — a second-level query.

Two extra fields support the implementation:

* ``has_leaf`` — whether the skeleton contains at least one real query
  leaf match (the global rule of the full algorithm; deletion-only
  skeletons are not valid second-level queries);
* a cached structural ``signature`` for deterministic ordering and
  within-segment deduplication of identical skeletons.
"""

from __future__ import annotations

Signature = tuple


class SchemaEntry:
    """One entry of a segmented top-k evaluation list."""

    __slots__ = (
        "pre",
        "bound",
        "pathcost",
        "inscost",
        "embcost",
        "label",
        "pointers",
        "has_leaf",
        "_signature",
    )

    def __init__(
        self,
        pre: int,
        bound: int,
        pathcost: float,
        inscost: float,
        embcost: float,
        label: str,
        pointers: tuple["SchemaEntry", ...] = (),
        has_leaf: bool = False,
        signature: "Signature | None" = None,
    ) -> None:
        self.pre = pre
        self.bound = bound
        self.pathcost = pathcost
        self.inscost = inscost
        self.embcost = embcost
        self.label = label
        self.pointers = pointers
        self.has_leaf = has_leaf
        # the top-k operators know a new entry's signature when they
        # build it (they order and deduplicate by it) and pass it in;
        # fetched entries compute theirs on first use
        self._signature = signature

    # ------------------------------------------------------------------
    # tree-encoding helpers (same as ListEntry)
    # ------------------------------------------------------------------

    def is_ancestor_of(self, other: "SchemaEntry") -> bool:
        """The Section 6.2 interval containment test on schema nodes."""
        return self.pre < other.pre and self.bound >= other.pre

    def distance(self, descendant: "SchemaEntry") -> float:
        """Sum of insert costs of the schema nodes strictly between."""
        return descendant.pathcost - self.pathcost - self.inscost

    # ------------------------------------------------------------------
    # skeletons
    # ------------------------------------------------------------------

    @property
    def signature(self) -> Signature:
        """Canonical structural identity of the skeleton rooted here:
        ``(pre, label, sorted child signatures)``.  Totally ordered for
        entries produced from the same schema (tuples of ints, strings,
        and nested signatures compare field by field)."""
        if self._signature is None:
            children = tuple(sorted(pointer.signature for pointer in self.pointers))
            self._signature = (self.pre, self.label, children)
        return self._signature

    def skeleton_size(self) -> int:
        """Number of nodes in the skeleton (the *m* of Section 7.4)."""
        return 1 + sum(pointer.skeleton_size() for pointer in self.pointers)

    def format_skeleton(self) -> str:
        """approXQL-like rendering of the second-level query."""
        if not self.pointers:
            return f"{self.label}@{self.pre}"
        inner = " and ".join(
            pointer.format_skeleton()
            for pointer in sorted(self.pointers, key=lambda p: p.signature)
        )
        return f"{self.label}@{self.pre}[{inner}]"

    def with_cost(self, embcost: float) -> "SchemaEntry":
        """A copy of this entry with a different embedding cost (the
        skeleton, and so the cached signature, is the same)."""
        return SchemaEntry(
            self.pre,
            self.bound,
            self.pathcost,
            self.inscost,
            embcost,
            self.label,
            self.pointers,
            self.has_leaf,
            self._signature,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchemaEntry(pre={self.pre}, label={self.label!r}, emb={self.embcost}, "
            f"ptrs={len(self.pointers)}, leaf={self.has_leaf})"
        )


def entry_from_schema_posting(
    posting: tuple[int, int, float, float], label: str, is_text: bool, as_leaf_match: bool
) -> SchemaEntry:
    """Initialize an entry from a schema-index posting (top-k ``fetch``)."""
    pre, bound, pathcost, inscost = posting
    if is_text:
        bound = 0
        inscost = 0.0
    return SchemaEntry(pre, bound, pathcost, inscost, 0.0, label, (), as_leaf_match)
