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
    """Construct the compacted schema of ``tree`` (Definition 14).

    One pass discovers the classes (a trie over label-type paths, with all
    text children collapsing into one class); a second pass renumbers the
    schema in preorder and collects instance postings.

    **Liveness**: classes are discovered from *every* node — tombstoned
    documents included — so deleting a document never renumbers the
    schema (its classes merely empty out); instance postings, however,
    list only nodes of live documents.  Because the data preorder equals
    historical append order, rebuilding from a persisted tree reproduces
    the exact numbering the incremental updates maintained.
    """
    # --- pass 1: discover classes in data order -----------------------
    # provisional ids in discovery order
    provisional_labels: list[str] = []
    provisional_types: list[NodeType] = []
    provisional_parents: list[int] = []
    child_key_map: dict[tuple[int, str, NodeType], int] = {}
    provisional_of: list[int] = [0] * len(tree)

    def provisional_class(data_pre: int) -> int:
        parent_data = tree.parents[data_pre]
        if parent_data == -1:
            if not provisional_labels:
                provisional_labels.append(tree.labels[data_pre])
                provisional_types.append(NodeType.STRUCT)
                provisional_parents.append(-1)
            return 0
        parent_class = provisional_of[parent_data]
        if tree.types[data_pre] == NodeType.TEXT:
            key = (parent_class, TEXT_CLASS_LABEL, NodeType.TEXT)
        else:
            key = (parent_class, tree.labels[data_pre], NodeType.STRUCT)
        existing = child_key_map.get(key)
        if existing is not None:
            return existing
        new_id = len(provisional_labels)
        provisional_labels.append(key[1])
        provisional_types.append(key[2])
        provisional_parents.append(parent_class)
        child_key_map[key] = new_id
        return new_id

    for data_pre in range(len(tree)):
        provisional_of[data_pre] = provisional_class(data_pre)

    # --- pass 2: preorder renumbering ----------------------------------
    children_by_provisional: list[list[int]] = [[] for _ in provisional_labels]
    for node_id, parent in enumerate(provisional_parents):
        if parent != -1:
            children_by_provisional[parent].append(node_id)

    schema = Schema()
    new_id_of: dict[int, int] = {}
    order: list[int] = []
    stack = [(0, -1)]
    while stack:
        provisional_id, new_parent = stack.pop()
        new_id = len(schema.labels)
        new_id_of[provisional_id] = new_id
        order.append(provisional_id)
        schema.labels.append(provisional_labels[provisional_id])
        schema.types.append(provisional_types[provisional_id])
        schema.parents.append(new_parent)
        schema.bounds.append(new_id)
        schema.inscosts.append(0.0)
        schema.pathcosts.append(0.0)
        schema._children.append([])
        if new_parent != -1:
            schema._children[new_parent].append(new_id)
        for child in reversed(children_by_provisional[provisional_id]):
            stack.append((child, new_id))

    # bounds: max new id in each subtree (walk in reverse preorder)
    for new_id in range(len(schema.labels) - 1, 0, -1):
        parent = schema.parents[new_id]
        if schema.bounds[new_id] > schema.bounds[parent]:
            schema.bounds[parent] = schema.bounds[new_id]

    # --- instance postings (live nodes only) ---------------------------
    schema.class_of = array("q", map(new_id_of.__getitem__, provisional_of))
    pres = [array("q") for _ in schema.labels]
    appenders = [column.append for column in pres]
    for data_pre, schema_node in enumerate(schema.class_of):
        appenders[schema_node](data_pre)
    for root in tree.dead_roots:  # a dead document is one run per class
        bound = tree.bounds[root]
        for schema_node in set(schema.class_of[root : bound + 1]):
            column = pres[schema_node]
            del column[bisect_left(column, root) : bisect_right(column, bound)]
    for schema_node, column in enumerate(pres):
        if not schema.is_text_class(schema_node):
            schema.instances.append(
                InstanceColumns(column, array("q", map(tree.bounds.__getitem__, column)))
            )
            continue
        schema.instances.append(_NO_INSTANCES)
        if column:
            schema.term_instances[schema_node] = TermColumns.from_pres(
                _pres_by_term(tree, column), tree.bounds
            )

    # default encoding: unit insert costs; the fingerprint matches
    # CostModel().insert_fingerprint (see TreeBuilder.finish)
    schema.encode_costs(lambda label: 1.0, fingerprint=(1.0, ()))
    return schema


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
    (``classes_added > 0``) the whole schema was rebuilt, which may have
    renumbered it.
    """

    schema: Schema
    classes_added: int = 0


def _cow_schema(old: Schema) -> Schema:
    """A copy of ``old`` sharing every structure the update won't touch.

    The class tree (labels/types/parents/bounds/children) is shared
    outright — it only changes on a renumbering rebuild, which builds a
    fresh schema instead.  ``inscosts``/``pathcosts`` are copied because
    :meth:`Schema.encode_costs` rewrites them in place per cost model.
    The outer ``instances`` list and ``term_instances`` dict are shallow
    copies so individual classes can be replaced copy-on-write (their
    columns are immutable; an update builds successors by column slice).
    ``class_of`` is shared: it is append-only, and a reader pinned to the
    old schema never looks up a data node that did not exist yet.
    """
    new = Schema()
    new.labels = old.labels
    new.types = old.types
    new.parents = old.parents
    new.bounds = old.bounds
    new._children = old._children
    new.inscosts = list(old.inscosts)
    new.pathcosts = list(old.pathcosts)
    new.instances = list(old.instances)
    new.term_instances = dict(old.term_instances)
    new.class_of = old.class_of
    new._insert_cost_fingerprint = old._insert_cost_fingerprint
    return new


def update_schema_for_insert(old: Schema, tree: DataTree, start: int) -> SchemaUpdate:
    """Maintain ``old`` after ``tree`` grew by one document at ``start``.

    Fast path (no new label-type paths): a copy-on-write schema whose
    touched classes get the new instance pairs appended — existing class
    ids, bounds, and untouched postings are shared with ``old`` — and
    whose super-root row takes the grown bound.  Slow path (a new class
    appeared): rebuild from the full tree, which may renumber classes.
    """
    # child-key lookup over the existing classes, as in discovery pass 1
    child_key_map: dict[tuple[int, str, NodeType], int] = {}
    for parent in range(len(old)):
        for child in old._children[parent]:
            child_key_map[(parent, old.labels[child], old.types[child])] = child

    new_class_of: list[int] = []
    for pre in range(start, len(tree.labels)):
        parent_class = (
            0 if tree.parents[pre] == 0 else new_class_of[tree.parents[pre] - start]
        )
        if tree.types[pre] == NodeType.TEXT:
            key = (parent_class, TEXT_CLASS_LABEL, NodeType.TEXT)
        else:
            key = (parent_class, tree.labels[pre], NodeType.STRUCT)
        node = child_key_map.get(key)
        if node is None:
            schema = build_schema(tree)
            return SchemaUpdate(schema, classes_added=len(schema) - len(old))
        new_class_of.append(node)

    schema = _cow_schema(old)
    schema.class_of[start:] = array("q", new_class_of)
    # the graft grew the super-root's bound
    schema.instances[0] = InstanceColumns(array("q", [0]), array("q", [tree.bounds[0]]))
    gained: dict[int, list[int]] = {}
    for pre, node in enumerate(new_class_of, start):
        gained.setdefault(node, []).append(pre)
    for node, pres in gained.items():
        if schema.is_text_class(node):
            schema.term_instances[node] = schema.term_instances.get(
                node, TermColumns()
            ).edited(tree.bounds, _pres_by_term(tree, pres))
        else:
            schema.instances[node] = schema.instances[node].extended(
                InstanceColumns(array("q", pres), array("q", map(tree.bounds.__getitem__, pres)))
            )
    return SchemaUpdate(schema)


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
