"""Tests for the schema node indexes and the secondary index I_sec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.approxql.costs import CostModel
from repro.core.persist import load_tree, save_tree
from repro.schema.dataguide import build_schema
from repro.schema.indexes import MemorySecondaryIndex, SchemaNodeIndexes
from repro.schema.secondary import SecondaryExecutor, semi_join
from repro.schema.entries import SchemaEntry
from repro.storage.kv import MemoryStore
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType


@pytest.fixture
def tree():
    return tree_from_xml(
        "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>",
        "<cd><title>piano sonata</title></cd>",
    )


@pytest.fixture
def schema(tree):
    return build_schema(tree)


class TestSchemaNodeIndexes:
    def test_struct_fetch(self, schema):
        indexes = SchemaNodeIndexes(schema)
        posting = indexes.fetch("cd", NodeType.STRUCT)
        assert len(posting) == 1  # one cd class
        pre, bound, pathcost, inscost = posting[0]
        assert schema.labels[pre] == "cd"

    def test_text_fetch_returns_classes_containing_term(self, schema):
        indexes = SchemaNodeIndexes(schema)
        piano = indexes.fetch("piano", NodeType.TEXT)
        assert len(piano) == 1  # one cd/title text class holds both pianos
        rachmaninov = indexes.fetch("rachmaninov", NodeType.TEXT)
        assert len(rachmaninov) == 1
        assert piano[0][0] != rachmaninov[0][0]

    def test_missing_labels(self, schema):
        indexes = SchemaNodeIndexes(schema)
        assert indexes.fetch("dvd", NodeType.STRUCT) == []
        assert indexes.fetch("xyzzy", NodeType.TEXT) == []

    def test_labels_iteration(self, schema):
        indexes = SchemaNodeIndexes(schema)
        assert {"cd", "title", "composer"} <= set(indexes.labels(NodeType.STRUCT))
        assert {"piano", "concerto", "sonata", "rachmaninov"} == set(
            indexes.labels(NodeType.TEXT)
        )

    def test_posting_size(self, schema):
        indexes = SchemaNodeIndexes(schema)
        assert indexes.posting_size("piano", NodeType.TEXT) == 1
        assert indexes.posting_size("nope", NodeType.TEXT) == 0


@pytest.fixture(params=["memory", "stored"])
def isec(request, schema, tree):
    if request.param == "memory":
        return MemorySecondaryIndex(schema)
    # a stored handle's I_sec: the schema rebuilt from the reloaded tree,
    # numbered exactly like the one the fixture built
    store = MemoryStore()
    save_tree(tree, store, CostModel())
    return MemorySecondaryIndex(build_schema(load_tree(store)[0]))


class TestSecondaryIndex:
    def test_struct_instances(self, schema, isec, tree):
        cd_class = next(n for n in range(len(schema)) if schema.labels[n] == "cd")
        instances = isec.fetch(cd_class, "cd")
        assert len(instances) == 2
        for pre, bound in instances:
            assert tree.label(pre) == "cd"
            assert tree.bounds[pre] == bound

    def test_text_instances_filtered_by_term(self, schema, isec, tree):
        text_class = next(
            n for n in schema.term_instances if "piano" in schema.term_instances[n]
        )
        pianos = isec.fetch(text_class, "piano")
        assert len(pianos) == 2
        for pre, _ in pianos:
            assert tree.label(pre) == "piano"
        concertos = isec.fetch(text_class, "concerto")
        assert len(concertos) == 1

    def test_wrong_label_for_class(self, schema, isec):
        cd_class = next(n for n in range(len(schema)) if schema.labels[n] == "cd")
        assert isec.fetch(cd_class, "dvd") == []

    def test_unknown_class(self, isec):
        assert isec.fetch(9999, "cd") == []


class TestSemiJoin:
    def test_keeps_containing_ancestors(self):
        ancestors = [(1, 10), (20, 25)]
        descendants = [(5, 5)]
        assert semi_join(ancestors, descendants) == [(1, 10)]

    def test_boundary_inclusive(self):
        assert semi_join([(1, 5)], [(5, 5)]) == [(1, 5)]

    def test_self_not_descendant(self):
        assert semi_join([(5, 9)], [(5, 9)]) == []

    def test_empty_inputs(self):
        assert semi_join([], [(1, 1)]) == []
        assert semi_join([(1, 5)], []) == []

    def test_multiple_matches_counted_once(self):
        assert semi_join([(1, 10)], [(2, 2), (3, 3)]) == [(1, 10)]

    def test_descendant_at_the_next_ancestors_own_pre(self):
        # 20 is inside nobody: it *is* the second ancestor, and after the first
        assert semi_join([(1, 10), (20, 25)], [(20, 25), (26, 26)]) == []
        assert semi_join([(1, 10), (20, 25)], [(20, 25), (22, 22)]) == [(20, 25)]

    def test_all_kept_and_columns_out(self):
        from repro.storage.postings import InstanceColumns

        ancestors = InstanceColumns.from_rows([(1, 3), (4, 9)])
        kept = semi_join(ancestors, [(2, 2), (5, 5)])
        assert kept is ancestors  # nothing to copy
        assert isinstance(semi_join(ancestors, [(5, 5)]), InstanceColumns)

    @given(st.data())
    def test_disjoint_ancestors_against_brute_force(self, data):
        """Instances of one class are pairwise disjoint; any sorted
        descendants.  The alternating-bisection walk must keep exactly
        the ancestors a quadratic scan keeps, in either input shape."""
        from repro.storage.postings import InstanceColumns

        cuts = sorted(data.draw(st.sets(st.integers(0, 120), max_size=24)))
        ancestors = [(low, high) for low, high in zip(cuts[::2], cuts[1::2])]
        pres = sorted(data.draw(st.sets(st.integers(0, 125), max_size=30)))
        descendants = [(pre, pre) for pre in pres]
        expected = [
            (low, high) for low, high in ancestors if any(low < pre <= high for pre in pres)
        ]
        assert semi_join(ancestors, descendants) == expected
        assert semi_join(
            InstanceColumns.from_rows(ancestors), InstanceColumns.from_rows(descendants)
        ) == expected


class TestSecondaryExecutor:
    def _entry(self, schema, pre, label, pointers=()):
        return SchemaEntry(
            pre, schema.bounds[pre], schema.pathcosts[pre], schema.inscosts[pre],
            0.0, label, tuple(pointers), True,
        )

    def test_pointerless_skeleton_returns_all_instances(self, schema, isec):
        cd_class = next(n for n in range(len(schema)) if schema.labels[n] == "cd")
        entry = self._entry(schema, cd_class, "cd")
        assert len(SecondaryExecutor(isec).execute(entry)) == 2

    def test_child_constraint_filters(self, schema, isec, tree):
        cd_class = next(n for n in range(len(schema)) if schema.labels[n] == "cd")
        text_class = next(
            n for n in schema.term_instances if "rachmaninov" in schema.term_instances[n]
        )
        leaf = self._entry(schema, text_class, "rachmaninov")
        root = self._entry(schema, cd_class, "cd", [leaf])
        results = SecondaryExecutor(isec).execute(root)
        assert len(results) == 1
        assert tree.label(results[0][0]) == "cd"

    def test_reverse_embedding_can_be_empty(self):
        """Section 7.1: an included schema tree need not be a tree class —
        classes may share a parent while no instances do."""
        tree = tree_from_xml("<c><a><x>p</x></a><a><y>q</y></a></c>")
        schema = build_schema(tree)
        isec = MemorySecondaryIndex(schema)
        a_class = next(n for n in range(len(schema)) if schema.labels[n] == "a")
        x_text = next(n for n in schema.term_instances if "p" in schema.term_instances[n])
        y_text = next(n for n in schema.term_instances if "q" in schema.term_instances[n])
        executor = SecondaryExecutor(isec)
        skeleton = self._entry(
            schema, a_class, "a",
            [self._entry(schema, x_text, "p"), self._entry(schema, y_text, "q")],
        )
        # both text classes live below the single a class in the schema,
        # but no single a instance contains both p and q
        assert executor.execute(skeleton) == []

    def test_memoization_counts_fetches_once(self, schema, isec):
        cd_class = next(n for n in range(len(schema)) if schema.labels[n] == "cd")
        leaf_class = next(
            n for n in schema.term_instances if "piano" in schema.term_instances[n]
        )
        leaf = self._entry(schema, leaf_class, "piano")
        root = self._entry(schema, cd_class, "cd", [leaf])
        executor = SecondaryExecutor(isec)
        executor.execute(root)
        executor.execute(root)
        assert executor.fetch_count == 2  # root + leaf, each once
