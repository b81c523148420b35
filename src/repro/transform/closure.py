"""Explicit enumeration of semi-transformed queries (Sections 5.3, 6.1).

A *semi-transformed query* is derived from a conjunctive query by a
sequence of deletions and renamings, but no insertions (insertions are
handled implicitly by the ancestor-descendant embedding).  This module
materializes the set the expanded representation encodes implicitly —
exponential in general, so it is guarded by a limit and intended for the
formalism tests and the naive reference evaluator, not for production
evaluation.

Deletability follows the engine semantics: a node may be deleted iff the
cost model assigns it a finite delete cost (the local rule of Definition 4
is realized by the cost model — see ``apply_definition4``), and a
semi-transformed query is *valid* only if it retains at least one leaf of
the original query (the global rule of the paper's full algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..approxql.costs import INFINITE, CostModel
from ..approxql.separated import ConjNode
from ..errors import EvaluationError

DEFAULT_CLOSURE_LIMIT = 500_000


@dataclass(frozen=True)
class SemiTransformed:
    """One semi-transformed query with its transformation cost."""

    query: ConjNode
    cost: float
    retained_leaves: int

    @property
    def is_valid(self) -> bool:
        """The global rule: at least one original leaf must remain."""
        return self.retained_leaves > 0


def semi_transformed_queries(
    conjunct: ConjNode, costs: CostModel, limit: int = DEFAULT_CLOSURE_LIMIT
) -> list[SemiTransformed]:
    """All semi-transformed queries derivable from ``conjunct``.

    Includes the invalid ones (no leaf retained); callers filter on
    :attr:`SemiTransformed.is_valid` as needed.
    """
    total_leaves = len(conjunct.leaves())
    results: list[SemiTransformed] = []
    for nodes, cost, deleted_leaves in _variants(conjunct, costs, is_root=True, limit=limit):
        if len(nodes) != 1:
            raise EvaluationError("internal error: root variant must be a single node")
        results.append(SemiTransformed(nodes[0], cost, total_leaves - deleted_leaves))
        if len(results) > limit:
            raise EvaluationError(
                f"semi-transformed closure exceeds {limit} queries; "
                "shrink the query or the renaming lists"
            )
    return results


def count_semi_transformed(conjunct: ConjNode, costs: CostModel) -> int:
    """Number of semi-transformed queries without materializing trees."""
    return _count(conjunct, costs, is_root=True)


def _count(node: ConjNode, costs: CostModel, is_root: bool) -> int:
    keep_labels = 1 + len(costs.renamings(node.label, node.node_type))
    children_product = 1
    for child in node.children:
        children_product *= _count(child, costs, is_root=False)
    total = keep_labels * children_product
    if not is_root and costs.delete_cost(node.label, node.node_type) != INFINITE:
        total += 1 if node.is_leaf else children_product
    return total


def _variants(
    node: ConjNode, costs: CostModel, is_root: bool, limit: int
) -> list[tuple[tuple[ConjNode, ...], float, int]]:
    """All variants the subtree at ``node`` contributes to its parent's
    child list: ``(spliced nodes, cost, deleted leaf count)``."""
    results: list[tuple[tuple[ConjNode, ...], float, int]] = []
    child_combinations = _combine_children(node, costs, limit)
    if not is_root:
        delcost = costs.delete_cost(node.label, node.node_type)
        if delcost != INFINITE:
            if node.is_leaf:
                results.append(((), delcost, 1))
            else:
                # deleting an inner node splices its (transformed)
                # children into the parent's child list (Definition 3)
                for children, child_cost, deleted in child_combinations:
                    results.append((children, delcost + child_cost, deleted))
    label_choices = [(node.label, 0.0)]
    label_choices.extend(costs.renamings(node.label, node.node_type))
    for children, child_cost, deleted in child_combinations:
        for label, rename_cost in label_choices:
            kept = ConjNode(label, node.node_type, children)
            results.append(((kept,), child_cost + rename_cost, deleted))
            if len(results) > limit:
                raise EvaluationError(
                    f"semi-transformed closure exceeds {limit} variants at "
                    f"node {node.label!r}"
                )
    return results


def _combine_children(
    node: ConjNode, costs: CostModel, limit: int
) -> list[tuple[tuple[ConjNode, ...], float, int]]:
    if node.is_leaf:
        return [((), 0.0, 0)]
    per_child = [_variants(child, costs, is_root=False, limit=limit) for child in node.children]
    combined: list[tuple[tuple[ConjNode, ...], float, int]] = []
    for combination in product(*per_child):
        children: list[ConjNode] = []
        cost = 0.0
        deleted = 0
        for nodes, node_cost, node_deleted in combination:
            children.extend(nodes)
            cost += node_cost
            deleted += node_deleted
        combined.append((tuple(children), cost, deleted))
        if len(combined) > limit:
            raise EvaluationError(
                f"semi-transformed closure exceeds {limit} child combinations "
                f"below {node.label!r}"
            )
    return combined


def apply_definition4(conjunct: ConjNode, costs: CostModel) -> CostModel:
    """Return a copy of ``costs`` with the local rule of Definition 4
    enforced syntactically: leaves whose parent has fewer than two leaf
    children get an infinite delete cost.

    The paper realizes this rule through the cost table (in the Section 6
    example the sole leaf ``"rachmaninov"`` simply has no finite delete
    cost); this helper automates that discipline.
    """
    blocked: list[ConjNode] = []

    def walk(node: ConjNode) -> None:
        leaf_children = [child for child in node.children if child.is_leaf]
        if len(leaf_children) < 2:
            blocked.extend(leaf_children)
        for child in node.children:
            walk(child)

    walk(conjunct)
    if not blocked:
        return costs
    adjusted = costs.copy()
    for leaf in blocked:
        adjusted.set_delete_cost(leaf.label, leaf.node_type, INFINITE)
    return adjusted
