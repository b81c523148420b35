"""Tests for the I_struct / I_text inverted indexes."""

import pytest

from repro.approxql.costs import CostModel
from repro.core.database import Database
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.indexes import MemoryNodeIndexes
from repro.xmltree.model import NodeType

from .strategies import generated_case


@pytest.fixture
def tree():
    return tree_from_xml(
        "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>",
        "<cd><title>piano sonata</title></cd>",
    )


def stored_indexes(tree, path, costs=None):
    """The node index a stored handle derives from the tree it loads."""
    Database.from_tree(tree, default_costs=costs).save(path)
    with Database.open(path) as database:
        return database._state.ensure_node_indexes()


@pytest.fixture(params=["memory", "stored"])
def indexes(request, tree, tmp_path):
    if request.param == "memory":
        return MemoryNodeIndexes(tree)
    return stored_indexes(tree, str(tmp_path / "cd.apxq"))


class TestFetch:
    def test_struct_posting_sorted_by_pre(self, indexes):
        posting = indexes.fetch("cd", NodeType.STRUCT)
        assert len(posting) == 2
        assert posting[0][0] < posting[1][0]

    def test_text_posting(self, indexes):
        posting = indexes.fetch("piano", NodeType.TEXT)
        assert len(posting) == 2

    def test_missing_label_gives_empty_posting(self, indexes):
        assert indexes.fetch("dvd", NodeType.STRUCT) == []
        assert indexes.fetch("xyzzy", NodeType.TEXT) == []

    def test_types_are_separate(self, tree):
        mixed = tree_from_xml("<cd>cd</cd>")
        indexes = MemoryNodeIndexes(mixed)
        assert len(indexes.fetch("cd", NodeType.STRUCT)) == 1
        assert len(indexes.fetch("cd", NodeType.TEXT)) == 1

    def test_posting_matches_tree_encoding(self, tree, indexes):
        for pre, bound, pathcost, inscost in indexes.fetch("title", NodeType.STRUCT):
            assert tree.bounds[pre] == bound
            assert tree.pathcosts[pre] == pathcost
            assert tree.inscosts[pre] == inscost

    def test_posting_size(self, indexes):
        assert indexes.posting_size("cd", NodeType.STRUCT) == 2
        assert indexes.posting_size("nothing", NodeType.STRUCT) == 0


class TestLabels:
    def test_struct_labels(self, indexes):
        labels = set(indexes.labels(NodeType.STRUCT))
        assert {"cd", "title", "composer"} <= labels

    def test_text_labels(self, indexes):
        labels = set(indexes.labels(NodeType.TEXT))
        assert {"piano", "concerto", "sonata", "rachmaninov"} == labels


class TestStoredSpecifics:
    def test_memory_index_follows_reencoding(self, tree):
        indexes = MemoryNodeIndexes(tree)
        before = indexes.fetch("title", NodeType.STRUCT)[0]
        tree.encode_costs(lambda label: 3.0)
        after = indexes.fetch("title", NodeType.STRUCT)[0]
        assert after[2] == 3 * before[2]  # pathcost scaled with insert cost

    def test_stored_index_carries_fractional_costs(self, tree, tmp_path):
        """A store saved under a fractional insert-cost table reopens
        with postings priced by it, exactly as the memory index is."""
        costs = CostModel(default_insert_cost=0.5)
        stored = stored_indexes(tree, str(tmp_path / "half.apxq"), costs)
        tree.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)
        memory = MemoryNodeIndexes(tree)
        posting = stored.fetch("piano", NodeType.TEXT)
        assert posting == memory.fetch("piano", NodeType.TEXT)
        assert [row[2] for row in posting] == [1.5, 1.5]

    def test_stored_roundtrip_equals_memory(self, tree, tmp_path):
        memory = MemoryNodeIndexes(tree)
        stored = stored_indexes(tree, str(tmp_path / "cd.apxq"))
        for node_type in (NodeType.STRUCT, NodeType.TEXT):
            for label in memory.labels(node_type):
                assert stored.fetch(label, node_type) == memory.fetch(label, node_type)


class TestRestrictedView:
    @pytest.mark.parametrize("seed", range(5))
    def test_a_label_filter_keeps_exactly_those_labels(self, seed):
        """Restricted to some documents and labels, the index holds what
        the documents-only index holds for those labels, and nothing
        else."""
        tree = generated_case(seed).tree
        documents = tuple(tree.document_roots()[seed % 3 :: 3])
        every = MemoryNodeIndexes(tree, documents)
        names = sorted(set(tree.labels))
        kept = frozenset(names[seed::2])
        filtered = MemoryNodeIndexes(tree, documents, kept)
        for node_type in (NodeType.STRUCT, NodeType.TEXT):
            assert set(filtered.labels(node_type)) == set(every.labels(node_type)) & kept
            for label in names:
                expected = every.fetch(label, node_type) if label in kept else []
                assert filtered.fetch(label, node_type) == expected
