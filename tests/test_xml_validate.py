"""Tests for the data-tree structural validator."""

import random

import pytest

from repro.errors import SchemaError
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType
from repro.xmltree.validate import validate_tree

from .strategies import random_tree


@pytest.fixture
def tree():
    return tree_from_xml("<cd><title>piano concerto</title><composer>bach</composer></cd>")


class TestValidTrees:
    def test_builder_output_valid(self, tree):
        validate_tree(tree)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_trees_valid(self, seed):
        validate_tree(random_tree(random.Random(seed)))

    def test_reencoded_tree_valid(self, tree):
        tree.encode_costs(lambda label: 3.0)
        validate_tree(tree)

    def test_empty_collection_valid(self):
        from repro.xmltree.model import TreeBuilder

        validate_tree(TreeBuilder().finish())


class TestCorruptions:
    def test_column_length_mismatch(self, tree):
        tree.bounds.append(0)
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_bad_root_parent(self, tree):
        tree.parents[0] = 0
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_forward_parent(self, tree):
        tree.parents[2] = 5
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_bound_out_of_range(self, tree):
        tree.bounds[1] = 999
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_bound_below_pre(self, tree):
        tree.bounds[2] = 1
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_node_outside_parent_interval(self, tree):
        tree.bounds[1] = 1  # cd claims no children, but title follows
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_empty_label(self, tree):
        tree.labels[2] = ""
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_broken_child_links(self, tree):
        tree._first_child[1] = -1
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_wrong_pathcost(self, tree):
        tree.pathcosts[3] += 1
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_text_node_with_inscost(self, tree):
        text = next(p for p in tree.iter_nodes() if tree.node_type(p) == NodeType.TEXT)
        tree.inscosts[text] = 2.0
        with pytest.raises(SchemaError):
            validate_tree(tree)

    def test_loader_runs_validation(self, tmp_path):
        """Corrupting a column in a saved file is caught at load."""
        from repro import Database
        from repro.core.persist import load_tree, save_tree
        from repro.storage.kv import MemoryStore
        from repro.storage.varint import encode_delta_list

        from .test_core_persist_faults import with_column

        store = MemoryStore()
        db = Database.from_xml("<cd><t>x</t></cd>")
        save_tree(db.tree, store, __import__("repro").CostModel())
        bounds = [0] * len(db.tree)  # structurally inconsistent bounds
        with_column(store, "bounds", encode_delta_list(bounds))
        with pytest.raises(SchemaError):
            load_tree(store)
