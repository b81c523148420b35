"""The schema (compacted DataGuide) of Section 7.1.

The schema of a data tree contains every label-type path of the data tree
exactly once (Definition 14).  We build the *compacted* variant the paper
uses in practice: all text children of an element class merge into a
single text-class node, and text labels live only in the indexes.

Every data node belongs to exactly one schema node — its *class*
(Definition 15).  The schema records, per schema node, the instance
posting: the ``(pre, bound)`` pairs of its instances in data preorder
(for a text class, split by word).  These columns are ``I_sec`` on
every handle, stored databases included.
Because classes preserve ancestor paths, the distance between two schema
nodes equals the distance between any ancestor-descendant pair of their
instances — the property the whole second-level query machinery rests on.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from copy import copy
from dataclasses import dataclass

from ..errors import SchemaError
from ..storage.postings import InstanceColumns, TermColumns
from ..xmltree.model import DataTree, NodeType

#: Pseudo-label of compacted text-class nodes (never a real element name).
TEXT_CLASS_LABEL = "#text"

#: the :attr:`Schema.instances` entry of every text class (shared, immutable)
_NO_INSTANCES = InstanceColumns(array("q"), array("q"))


class Schema:
    """Columnar schema tree with the Section 6.2 encoding.

    Node ids are schema preorder numbers.  Struct classes carry their
    element label and their instances in :attr:`instances`; text classes
    carry :data:`TEXT_CLASS_LABEL` and keep their instances only in the
    per-term split :attr:`term_instances` (term -> instances of the class
    whose word is the term), which backs both the schema text index and
    ``I_sec``.  Every instance is held once.

    The class tree itself is small (lists, one entry per class); what
    grows with the data — :attr:`class_of`, :attr:`instances`,
    :attr:`term_instances` — lives in flat ``array('q')`` columns, so the
    schema holds no Python object per data node, instance or posting.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.types: list[NodeType] = []
        self.parents: list[int] = []
        self.bounds: list[int] = []
        self.inscosts: list[float] = []
        self.pathcosts: list[float] = []
        #: per struct class: instance posting (pre, bound) in data
        #: preorder; text classes hold a shared empty posting here
        self.instances: list[InstanceColumns] = []
        #: per text-class schema node: term -> (pre, bound) posting
        self.term_instances: dict[int, TermColumns] = {}
        #: class of every data node (data pre -> schema pre)
        self.class_of = array("q")
        self._children: list[list[int]] = []
        self._insert_cost_fingerprint: object = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> int:
        return 0

    def children(self, node: int) -> list[int]:
        """Child schema nodes in first-discovery order."""
        return self._children[node]

    def is_text_class(self, node: int) -> bool:
        """Whether ``node`` is a compacted text class."""
        return self.types[node] == NodeType.TEXT

    def node_class(self, data_pre: int) -> int:
        """Definition 15: the class of a data node."""
        return self.class_of[data_pre]

    def instance_count(self, node: int) -> int:
        """Number of (live) data nodes whose class is ``node``."""
        terms = self.term_instances.get(node)
        return len(self.instances[node]) if terms is None else len(terms.pre)

    def label_type_path(self, node: int) -> tuple[tuple[str, NodeType], ...]:
        """The label-type path identifying this schema node."""
        path = []
        while self.parents[node] != -1:
            path.append((self.labels[node], self.types[node]))
            node = self.parents[node]
        return tuple(reversed(path))

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """The Section 6.2 interval test over schema preorder numbers."""
        return ancestor < descendant and self.bounds[ancestor] >= descendant

    def distance(self, ancestor: int, descendant: int) -> float:
        """Sum of insert costs strictly between two schema nodes."""
        if not self.is_ancestor(ancestor, descendant):
            raise SchemaError(f"{ancestor} is not an ancestor of {descendant} in the schema")
        return self.pathcosts[descendant] - self.pathcosts[ancestor] - self.inscosts[ancestor]

    def format(self, max_depth: int = 12) -> str:
        """Indented outline of the schema with instance counts."""
        lines: list[str] = []

        def walk(node: int, depth: int) -> None:
            kind = "text" if self.is_text_class(node) else "struct"
            terms = ""
            if node in self.term_instances:
                terms = f" terms={len(self.term_instances[node])}"
            lines.append(
                f"{'  ' * depth}{self.labels[node]} [{kind} pre={node} "
                f"instances={self.instance_count(node)}{terms}]"
            )
            if depth < max_depth:
                for child in self._children[node]:
                    walk(child, depth + 1)

        walk(0, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # encoding (mirrors DataTree.encode_costs)
    # ------------------------------------------------------------------

    def encode_costs(
        self, insert_cost_of: Callable[[str], float], fingerprint: object = None
    ) -> None:
        """(Re)compute inscost/pathcost under an insert-cost table."""
        if fingerprint is not None and fingerprint == self._insert_cost_fingerprint:
            return
        cache: dict[str, float] = {}
        for node in range(len(self.labels)):
            if self.types[node] == NodeType.TEXT:
                cost = 0.0
            else:
                label = self.labels[node]
                cost = cache.get(label)
                if cost is None:
                    cost = insert_cost_of(label)
                    if cost < 0:
                        raise SchemaError(f"negative insert cost for label {label!r}")
                    cache[label] = cost
            self.inscosts[node] = cost
            parent = self.parents[node]
            self.pathcosts[node] = (
                0.0 if parent == -1 else self.pathcosts[parent] + self.inscosts[parent]
            )
        self._insert_cost_fingerprint = fingerprint

    @property
    def insert_cost_fingerprint(self) -> object:
        return self._insert_cost_fingerprint


def build_schema(tree: DataTree) -> Schema:
    """Construct the compacted schema of ``tree`` (Definition 14) as the
    insert of every node into the empty schema.

    **Liveness**: classes are discovered from *every* node — tombstoned
    documents included — so deleting a document never renumbers the
    schema (its classes merely empty out); instance postings, however,
    list only nodes of live documents.  Because the data preorder equals
    historical append order, rebuilding from a persisted tree reproduces
    the exact numbering the incremental updates maintained.
    """
    return update_schema_for_insert(Schema(), tree, 0).schema


def _pres_by_term(tree: DataTree, pres) -> dict[str, list[int]]:
    """The (text) nodes ``pres`` grouped by their word, order kept."""
    by_term: dict[str, list[int]] = {}
    for pre in pres:
        by_term.setdefault(tree.labels[pre], []).append(pre)
    return by_term


# ----------------------------------------------------------------------
# incremental maintenance (document-level mutation)
# ----------------------------------------------------------------------


@dataclass
class SchemaUpdate:
    """Outcome of one incremental schema maintenance step.

    ``schema`` is a *new* object: shared (copy-on-write) with the old
    schema wherever possible so readers pinned to the old schema keep a
    consistent view.  When the mutation introduced new classes
    (``classes_added > 0``) the classes were renumbered in preorder.
    """

    schema: Schema
    classes_added: int = 0


def _cow_schema(old: Schema) -> Schema:
    """A copy of ``old`` sharing every structure the update won't touch.

    The class tree (labels/types/parents/bounds/children) is shared
    outright — a renumbering replaces it wholesale.
    ``inscosts``/``pathcosts`` are copied because
    :meth:`Schema.encode_costs` rewrites them in place per cost model.
    The outer ``instances`` list and ``term_instances`` dict are shallow
    copies so individual classes can be replaced copy-on-write (their
    columns are immutable; an update builds successors by column slice).
    ``class_of`` is shared: it is append-only, and a reader pinned to the
    old schema never looks up a data node that did not exist yet.
    """
    new = copy(old)
    new.inscosts = list(old.inscosts)
    new.pathcosts = list(old.pathcosts)
    new.instances = list(old.instances)
    new.term_instances = dict(old.term_instances)
    return new


def _renumber(schema: Schema, labels, types, parents) -> list[int]:
    """Give ``schema`` the class table ``labels``/``types``/``parents``
    (its own classes first, new ones after, in discovery order)
    renumbered in preorder; returns the old -> new id table.

    Children keep their discovery order, so old classes keep their
    relative order and a new class follows its parent's existing
    children: the numbering one insert of the whole tree gives.
    """
    known = len(schema)
    children = [list(kids) for kids in schema._children]
    children.extend([] for _ in range(len(labels) - known))
    for node in range(known, len(labels)):
        if parents[node] != -1:
            children[parents[node]].append(node)
    order: list[int] = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node]))
    remap = [0] * len(order)
    for new_id, node in enumerate(order):
        remap[node] = new_id
    schema.labels = [labels[node] for node in order]
    schema.types = [types[node] for node in order]
    schema.parents = [-1 if parents[node] == -1 else remap[parents[node]] for node in order]
    schema._children = [[remap[child] for child in children[node]] for node in order]
    # bounds: max new id in each subtree (walk in reverse preorder)
    schema.bounds = list(range(len(order)))
    for new_id in range(len(order) - 1, 0, -1):
        parent = schema.parents[new_id]
        if schema.bounds[new_id] > schema.bounds[parent]:
            schema.bounds[parent] = schema.bounds[new_id]
    # a new class has no columns yet (None)
    schema.instances = [schema.instances[node] if node < known else None for node in order]
    schema.term_instances = {
        remap[node]: terms for node, terms in schema.term_instances.items()
    }
    schema.inscosts = [0.0] * len(order)
    schema.pathcosts = [0.0] * len(order)
    schema._insert_cost_fingerprint = None
    return remap


def update_schema_for_insert(old: Schema, tree: DataTree, start: int) -> SchemaUpdate:
    """Extend ``old`` by the nodes ``tree`` holds from ``start`` on.

    The new nodes' classes are discovered in data order, seeded with the
    old class table.  If new classes appeared, all classes are
    renumbered in preorder (:func:`_renumber`): ``class_of`` is remapped
    and the old columns move to their new ids, without re-reading an old
    node.  Touched classes get the new instances appended copy-on-write;
    untouched columns are shared with ``old``.  Nodes of tombstoned
    documents yield classes but no instances.  :func:`build_schema` is
    this function from the empty schema at pre 0.
    """
    labels, types, parents = old.labels, old.types, old.parents
    child_key_map = {
        (parents[node], labels[node], types[node]): node for node in range(len(old))
    }
    # --- discover the new nodes' classes in data order -----------------
    tree_labels, tree_types, tree_parents = tree.labels, tree.types, tree.parents
    old_class_of = old.class_of
    found: list[int] = []
    for pre in range(start, len(tree_labels)):
        parent = tree_parents[pre]
        if parent >= start:
            parent_class = found[parent - start]
        else:  # a document root, or the super-root (parent -1) from pre 0
            parent_class = old_class_of[parent] if parent >= 0 else -1
        if tree_types[pre] == NodeType.TEXT:
            key = (parent_class, TEXT_CLASS_LABEL, NodeType.TEXT)
        else:
            key = (parent_class, tree_labels[pre], NodeType.STRUCT)
        node = child_key_map.get(key)
        if node is None:
            if len(labels) == len(old):  # the first new class: copy the table
                labels, types, parents = list(labels), list(types), list(parents)
            node = child_key_map[key] = len(labels)
            labels.append(key[1])
            types.append(key[2])
            parents.append(parent_class)
        found.append(node)

    schema = _cow_schema(old)
    added = len(labels) - len(old)
    if added:
        remap = _renumber(schema, labels, types, parents)
        schema.class_of = array("q", map(remap.__getitem__, old_class_of[:start]))
        schema.class_of.extend(map(remap.__getitem__, found))
    else:
        schema.class_of[start:] = array("q", found)

    # --- the new nodes' instances (live documents only) ----------------
    gained = [array("q") for _ in range(len(schema))]
    appenders = [column.append for column in gained]
    for pre, node in zip(range(start, len(tree_labels)), schema.class_of[start:]):
        appenders[node](pre)
    for root in tree.dead_roots:  # a dead document is one run per class
        if root >= start:
            bound = tree.bounds[root]
            for node in set(schema.class_of[root : bound + 1]):
                column = gained[node]
                del column[bisect_left(column, root) : bisect_right(column, bound)]
    bounds = tree.bounds
    for node, pres in enumerate(gained):
        known = schema.instances[node]
        if schema.types[node] == NodeType.TEXT:
            schema.instances[node] = _NO_INSTANCES
            if pres:
                by_term = _pres_by_term(tree, pres)
                terms = schema.term_instances.get(node)
                schema.term_instances[node] = (
                    TermColumns.from_pres(by_term, bounds)
                    if terms is None
                    else terms.edited(bounds, by_term)
                )
        elif pres or known is None:
            rows = InstanceColumns(pres, array("q", map(bounds.__getitem__, pres)))
            schema.instances[node] = rows if known is None else known.extended(rows)
    # the graft grew the super-root's bound
    schema.instances[0] = InstanceColumns(array("q", [0]), array("q", [tree.bounds[0]]))
    if added:
        # default encoding: unit insert costs; the fingerprint matches
        # CostModel().insert_fingerprint (see TreeBuilder.finish)
        schema.encode_costs(lambda label: 1.0, fingerprint=(1.0, ()))
    return SchemaUpdate(schema, classes_added=added)


def update_schema_for_delete(old: Schema, tree: DataTree, root: int) -> SchemaUpdate:
    """Maintain ``old`` after the document at ``root`` was tombstoned.

    A delete never renumbers: classes are discovered from dead nodes too,
    so an emptied class simply keeps a zero-length instance posting.  The
    touched classes' postings are filtered copy-on-write.
    """
    bound = tree.bounds[root]
    schema = _cow_schema(old)
    touched: set[int] = set()
    touched_terms: dict[int, set[str]] = {}
    for pre in range(root, bound + 1):
        node = schema.class_of[pre]
        if tree.types[pre] == NodeType.TEXT:
            touched_terms.setdefault(node, set()).add(tree.labels[pre])
        else:
            touched.add(node)
    for node in touched:
        schema.instances[node] = schema.instances[node].without(root, bound)
    for node, terms in touched_terms.items():
        schema.term_instances[node] = schema.term_instances[node].edited(
            tree.bounds, {}, dropped=(root, bound), touched=terms
        )
    return SchemaUpdate(schema)
