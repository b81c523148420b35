"""Structural validation of data trees.

``validate_tree`` checks every invariant the evaluators rely on:
column lengths, parent/child consistency, preorder numbering, bound
intervals, and the pathcost telescoping property; tests use it as an
oracle.  The loader runs the stored-column half, ``validate_columns``, on
freshly deserialized trees (defense in depth against silent corruption
the page checksums cannot express) *before* it derives the child links
and the cost columns from them.

Every check is one bulk pass over whole typed columns (``map`` with an
operator) instead of Python statements per node; only a failing check
looks up the offending node, to name it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import compress, count, repeat
from operator import add, ge, gt, lt, mul, ne, not_

from ..errors import SchemaError
from .model import DataTree, child_links


def _reject(bad: Iterable, describe: Callable[[int], str], first: int = 0) -> None:
    """Raise for the first node whose flag in ``bad`` is true (flags
    start at node ``first``)."""
    pre = next(compress(count(first), bad), None)
    if pre is not None:
        raise SchemaError(describe(pre))


def _check_lengths(tree: DataTree, names: tuple[str, ...]) -> None:
    size = len(tree.labels)
    for name in names:
        column = getattr(tree, name)
        if len(column) != size:
            raise SchemaError(
                f"column {name!r} has {len(column)} entries, expected {size}"
            )


def validate_columns(tree: DataTree) -> None:
    """Check the four stored columns — labels, types, parents, bounds —
    against each other; raise :class:`~repro.errors.SchemaError` on any
    violated invariant."""
    _check_lengths(tree, ("types", "parents", "bounds"))
    size = len(tree.labels)
    if size == 0:
        raise SchemaError("a data tree must contain at least the super-root")
    parents, bounds = tree.parents, tree.bounds
    if parents[0] != -1:
        raise SchemaError("the super-root must have parent -1")
    above = parents[1:]  # the parent of every node but the super-root
    for bad in (map(lt, above, repeat(0)), map(ge, above, count(1))):
        _reject(bad, lambda pre: f"node {pre}: parent {parents[pre]} is not an earlier node", 1)
    _reject(
        map(lt, map(bounds.__getitem__, above), count(1)),
        lambda pre: f"node {pre}: outside its parent's bound interval",
        1,
    )
    for bad in (map(gt, count(), bounds), map(ge, bounds, repeat(size))):
        _reject(bad, lambda pre: f"node {pre}: bound {bounds[pre]} out of range")
    _reject(
        map(tree.types.__getitem__, above),
        lambda pre: f"text node {parents[pre]} has children",
        1,
    )
    _reject(map(not_, tree.labels), lambda pre: f"node {pre} has an empty label")


def validate_tree(tree: DataTree) -> None:
    """Raise :class:`~repro.errors.SchemaError` on any violated invariant."""
    _check_lengths(tree, ("inscosts", "pathcosts", "_first_child", "_next_sibling"))
    validate_columns(tree)
    parents, inscosts, pathcosts = tree.parents, tree.inscosts, tree.pathcosts

    # children linkage: the links the parent column implies, compared
    # column against column
    links = zip(
        ("first child", "next sibling"),
        (tree._first_child, tree._next_sibling),
        child_links(parents),
    )
    for name, column, expected in links:
        _reject(
            map(ne, column, expected),
            lambda pre: f"node {pre}: {name} {column[pre]} disagrees with the "
            f"parent column ({expected[pre]})",
        )

    # pathcost telescoping
    above = parents[1:]
    expected = map(add, map(pathcosts.__getitem__, above), map(inscosts.__getitem__, above))
    _reject(
        map(ne, pathcosts[1:], expected),
        lambda pre: f"node {pre}: pathcost {pathcosts[pre]} != pathcost(parent) + "
        f"inscost(parent) = {pathcosts[parents[pre]] + inscosts[parents[pre]]}",
        1,
    )
    _reject(
        map(mul, tree.types, inscosts),
        lambda pre: f"text node {pre} has non-zero inscost",
    )
