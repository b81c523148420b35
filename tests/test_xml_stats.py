"""Tests for the collection statistics module."""

import pytest

from repro.schema.dataguide import build_schema
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.stats import collect_statistics


@pytest.fixture
def tree():
    return tree_from_xml(
        "<cd><title>piano piano</title><box><box><box>deep</box></box></box></cd>",
        "<cd><title>x</title></cd>",
    )


class TestBasicCounts:
    def test_node_counts(self, tree):
        stats = collect_statistics(tree)
        assert stats.node_count == len(tree)
        assert stats.struct_count + stats.text_count == stats.node_count
        assert stats.document_count == 2

    def test_vocabulary(self, tree):
        stats = collect_statistics(tree)
        assert stats.distinct_element_names == 4  # #root, cd, title, box
        assert stats.distinct_terms == 3  # piano, deep, x

    def test_selectivity(self, tree):
        stats = collect_statistics(tree)
        # 'box' occurs 3 times, 'cd'/'title' twice, 'piano' twice
        assert stats.max_selectivity == 3
        assert stats.max_selectivity_label == "box"

    def test_recursivity(self, tree):
        stats = collect_statistics(tree)
        assert stats.max_label_repetition == 3  # box/box/box

    def test_depths(self, tree):
        stats = collect_statistics(tree)
        assert stats.max_depth == 5  # root/cd/box/box/box/deep
        assert collect_statistics(tree_from_xml("<a>x</a>")).max_depth == 2

    def test_no_recursion_is_one(self):
        stats = collect_statistics(tree_from_xml("<a><b>x</b></a>"))
        assert stats.max_label_repetition == 1


class TestSchemaNumbers:
    def test_schema_side(self, tree):
        schema = build_schema(tree)
        stats = collect_statistics(tree, schema)
        assert stats.schema_size == len(schema)
        assert stats.max_instances_per_class >= 2  # the cd class
        assert stats.schema_selectivity >= 3  # three box classes share a label

    def test_without_schema_zeroes(self, tree):
        stats = collect_statistics(tree)
        assert stats.schema_size == 0

    def test_format_readable(self, tree):
        schema = build_schema(tree)
        rendering = collect_statistics(tree, schema).format()
        assert "selectivity s" in rendering
        assert "recursivity l" in rendering
        assert "schema:" in rendering
