"""Figure 4 as printed: the unscoped, unmemoized ``primary`` recursion.

Every selector fetches its full postings, every renaming re-evaluates
the child subtree under its own ancestor list, nothing is shared — the
"without dynamic programming" baseline of Section 6.5, over the
entry-per-object operators of :mod:`repro.engine.reference`.  Exponential
in the query depth and therefore test-only: it is what the production
evaluator (:class:`repro.engine.primary.PrimaryEvaluator` — memoized,
scoped, columnar) must reproduce row for row on both cost tracks.
"""

from repro.approxql.expanded import ExpandedNode, ExpandedQuery, RepType
from repro.engine import reference
from repro.xmltree.indexes import NodeIndexes


def reference_primary(indexes: NodeIndexes, expanded: ExpandedQuery) -> reference.EvalList:
    """The root evaluation list of ``expanded`` over ``indexes``."""

    def labels(node: ExpandedNode):
        return [(node.label, 0.0), *node.renamings]

    def matches(node: ExpandedNode) -> reference.EvalList:
        result: reference.EvalList = []
        for label, cost in labels(node):
            if node.reptype == RepType.LEAF:
                found = reference.fetch(indexes, label, node.node_type, True)
            else:
                candidates = reference.fetch(indexes, label, node.node_type, False)
                found = primary(node.child, candidates)
            result = reference.merge(result, found, cost)
        return result

    def primary(node: ExpandedNode, ancestors: reference.EvalList) -> reference.EvalList:
        if node.reptype == RepType.LEAF:
            return reference.outerjoin(ancestors, matches(node), 0.0, node.delcost)
        if node.reptype == RepType.NODE:
            return reference.join(ancestors, matches(node), 0.0)
        left = primary(node.left, ancestors)
        right = primary(node.right, ancestors)
        if node.reptype == RepType.AND:
            return reference.intersect(left, right, 0.0)
        return reference.union(left, reference.add_edge_cost(right, node.edgecost), 0.0)

    return matches(expanded.root)
