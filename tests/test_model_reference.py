"""Model test: the typed-column tree and schema against a list-based
reference (``tests/reference_tree.py``) over random mutation sequences —
graft, rolled-back graft, tombstone, compaction, extraction and a
save → open round trip through mutation segments, with the schema
maintained incrementally beside them."""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approxql.costs import CostModel
from repro.core.persist import append_tree_segment, load_tree, save_dead_roots, save_tree
from repro.schema.dataguide import (
    build_schema,
    update_schema_for_delete,
    update_schema_for_insert,
)
from repro.storage.kv import MemoryStore
from repro.xmltree.model import NodeType, TreeBuilder, compact_tree, extract_document
from repro.xmltree.validate import validate_tree

from .reference_tree import ReferenceTree

# "a" and "b" occur as element names *and* as words: the two must never mix
WORDS = st.sampled_from(["x", "y", "z", "a", "b"])
NAMES = st.sampled_from(["a", "b", "c", "d"])
DOCUMENTS = st.recursive(
    st.tuples(NAMES, st.lists(WORDS, max_size=3)),
    lambda inner: st.tuples(NAMES, st.lists(st.one_of(WORDS, inner), max_size=4)),
    max_leaves=12,
)
OPERATIONS = st.one_of(
    st.tuples(st.just("graft"), DOCUMENTS),
    st.tuples(st.just("rolled-back graft"), DOCUMENTS),
    st.tuples(st.just("mark_dead"), st.integers(0, 50)),
    st.tuples(st.just("extract"), st.integers(0, 50)),
    st.tuples(st.just("compact"), st.none()),
    st.tuples(st.just("reopen"), st.none()),
)


def built(document):
    """The nested document as a one-document :class:`DataTree`."""
    builder = TreeBuilder()

    def add(node) -> None:
        if isinstance(node, str):
            builder.add_word(node)
            return
        builder.start_struct(node[0])
        for child in node[1]:
            add(child)
        builder.end_struct()

    add(document)
    return builder.finish()


def assert_same_tree(tree, reference, insert_cost_of) -> None:
    inscosts, pathcosts = reference.costs(insert_cost_of)
    expected = {
        "labels": reference.labels,
        "types": reference.types,
        "parents": reference.parents,
        "bounds": reference.bounds(),
        "inscosts": inscosts,
        "pathcosts": pathcosts,
        "_first_child": reference.first_children(),
        "_next_sibling": reference.next_siblings(),
    }
    for name, column in expected.items():
        assert list(getattr(tree, name)) == column, name
    # the layout itself: typed buffers, one shared str per distinct label
    assert type(tree.types) is bytearray
    for name in ("parents", "bounds", "_first_child", "_next_sibling"):
        assert isinstance(getattr(tree, name), array) and getattr(tree, name).typecode == "q"
    for name in ("inscosts", "pathcosts"):
        assert isinstance(getattr(tree, name), array) and getattr(tree, name).typecode == "d"
    assert len({id(label) for label in tree.labels}) == len(set(tree.labels))
    assert len(tree) == len(reference)
    for pre in range(len(reference)):
        assert tree.children(pre) == reference.children(pre)
        assert tree.node_type(pre) is NodeType(reference.types[pre])
    assert tree.document_roots() == reference.document_roots()
    assert list(tree.live_flags()) == reference.live_flags()
    validate_tree(tree)


def assert_same_schema(schema, reference) -> None:
    expected = reference.schema()
    for name in ("labels", "types", "parents", "class_of"):
        assert list(getattr(schema, name)) == expected[name], name
    for node, posting in enumerate(expected["instances"]):
        assert schema.instance_count(node) == len(posting), node
        # a text class holds its instances only in the per-term split
        assert list(schema.instances[node]) == ([] if schema.is_text_class(node) else posting)
    actual_terms = {
        node: {term: list(posting) for term, posting in by_term.items()}
        for node, by_term in schema.term_instances.items()
        if len(by_term)
    }
    assert actual_terms == expected["term_instances"]
    for by_term in schema.term_instances.values():
        assert list(by_term) == sorted(by_term)  # the term index stays sorted


@settings(max_examples=60, deadline=None)
@given(st.lists(OPERATIONS, max_size=10))
def test_mutation_sequences_match_the_reference(operations):
    costs = CostModel()
    costs.set_insert_cost("b", 3)
    tree = TreeBuilder().finish()
    tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
    reference = ReferenceTree()
    schema = build_schema(tree)
    store = MemoryStore()
    save_tree(tree, store, costs)

    for action, argument in operations:
        live = reference.document_roots()
        if action == "graft":
            start = len(tree)
            assert tree.graft_document(built(argument), costs.insert_cost) == start
            assert reference.graft(argument) == start
            schema = update_schema_for_insert(schema, tree, start).schema
            append_tree_segment(tree, store, start)
        elif action == "rolled-back graft":
            start = len(tree)
            tree.graft_document(built(argument), costs.insert_cost)
            tree.ungraft(start)
        elif action == "mark_dead" and live:
            root = live[argument % len(live)]
            tree.mark_dead(root)
            reference.mark_dead(root)
            schema = update_schema_for_delete(schema, tree, root).schema
            save_dead_roots(tree, store)
        elif action == "extract" and live:
            root = live[argument % len(live)]
            copy = extract_document(tree, root)
            copy.encode_costs(costs.insert_cost)
            assert_same_tree(copy, reference.extracted(root), costs.insert_cost)
        elif action == "compact":
            tree = compact_tree(tree)
            reference = reference.compacted()
            schema = build_schema(tree)
            store = MemoryStore()
            save_tree(tree, store, costs)
        elif action == "reopen":
            tree, _, _ = load_tree(store)
        assert_same_tree(tree, reference, costs.insert_cost)
        assert_same_schema(schema, reference)
        assert_same_schema(build_schema(tree), reference)
