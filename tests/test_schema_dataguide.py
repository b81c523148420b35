"""Tests for schema (DataGuide) construction and its invariants."""

import random

import pytest

from repro.approxql.costs import CostModel
from repro.errors import SchemaError
from repro.schema.dataguide import TEXT_CLASS_LABEL, build_schema
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType

from .strategies import random_tree


@pytest.fixture
def catalog_tree():
    return tree_from_xml(
        "<cd><title>piano concerto</title><composer>rachmaninov</composer></cd>",
        "<cd><title>cello sonata</title></cd>",
        "<mc><title>waltzes</title></mc>",
    )


class TestConstruction:
    def test_every_label_type_path_exactly_once(self, catalog_tree):
        """Definition 14, adapted to the compacted form: struct paths are
        unique; text paths collapse into one class per parent."""
        schema = build_schema(catalog_tree)
        paths = [schema.label_type_path(node) for node in range(len(schema))]
        assert len(paths) == len(set(paths))

    def test_repeated_structures_share_classes(self, catalog_tree):
        schema = build_schema(catalog_tree)
        # two cds, one mc: cd class has 2 instances
        cd_class = [n for n in range(len(schema)) if schema.labels[n] == "cd"]
        assert len(cd_class) == 1
        assert schema.instance_count(cd_class[0]) == 2

    def test_same_label_different_context_different_class(self):
        tree = tree_from_xml("<cd><title>x</title><track><title>y</title></track></cd>")
        schema = build_schema(tree)
        title_classes = [n for n in range(len(schema)) if schema.labels[n] == "title"]
        assert len(title_classes) == 2

    def test_text_nodes_compacted(self, catalog_tree):
        schema = build_schema(catalog_tree)
        # all words under cd/title share one text class
        text_classes = [n for n in range(len(schema)) if schema.is_text_class(n)]
        for node in text_classes:
            assert schema.labels[node] == TEXT_CLASS_LABEL
        cd_title_text = [
            n
            for n in text_classes
            if schema.label_type_path(schema.parents[n])[-1][0] == "title"
            and len(schema.label_type_path(n)) == 3
        ]
        # one per (cd/title, mc/title)
        assert len(cd_title_text) == 2

    def test_schema_much_smaller_than_data(self):
        documents = ["<cd><title>unique words %d here</title></cd>" % i for i in range(30)]
        tree = tree_from_xml(*documents)
        schema = build_schema(tree)
        assert len(schema) < len(tree) / 5


class TestNodeClasses:
    def test_every_data_node_has_exactly_one_class(self, catalog_tree):
        schema = build_schema(catalog_tree)
        assert len(schema.class_of) == len(catalog_tree)
        for pre in range(len(catalog_tree)):
            assert 0 <= schema.class_of[pre] < len(schema)

    def test_class_preserves_label_and_type(self, catalog_tree):
        schema = build_schema(catalog_tree)
        for pre in range(len(catalog_tree)):
            node_class = schema.class_of[pre]
            if catalog_tree.types[pre] == NodeType.TEXT:
                assert schema.is_text_class(node_class)
            else:
                assert schema.labels[node_class] == catalog_tree.labels[pre]

    def test_class_preserves_parent_child(self, catalog_tree):
        """Definition 15: v child of u  <=>  [v] child of [u]."""
        schema = build_schema(catalog_tree)
        for pre in range(1, len(catalog_tree)):
            parent = catalog_tree.parents[pre]
            assert schema.parents[schema.class_of[pre]] == schema.class_of[parent]

    def test_instances_complete_and_sorted(self, catalog_tree):
        schema = build_schema(catalog_tree)
        total = sum(schema.instance_count(node) for node in range(len(schema)))
        assert total == len(catalog_tree)
        for node in range(len(schema)):
            postings = schema.term_instances.get(node, {}).values()
            if not schema.is_text_class(node):
                postings = [schema.instances[node]]
            for posting in postings:
                pres = [pre for pre, _ in posting]
                assert pres == sorted(pres)
                for pre, bound in posting:
                    assert schema.class_of[pre] == node
                    assert catalog_tree.bounds[pre] == bound

    def test_term_instances_partition_text_instances(self, catalog_tree):
        schema = build_schema(catalog_tree)
        for node in range(len(schema)):
            if not schema.is_text_class(node):
                continue
            # the per-term split is the one copy of a text class's instances
            assert list(schema.instances[node]) == []
            from_terms = sorted(
                pre for posting in schema.term_instances[node].values() for pre, _ in posting
            )
            assert from_terms == [
                pre for pre in range(len(catalog_tree)) if schema.class_of[pre] == node
            ]
            assert schema.instance_count(node) == len(from_terms)


class TestDistanceProperty:
    """The property Section 7.1 rests on: instance distance == class
    distance for every ancestor-descendant instance pair."""

    @pytest.mark.parametrize("seed", range(8))
    def test_instance_distance_equals_class_distance(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng, max_nodes=40)
        costs = CostModel(default_insert_cost=2)
        costs.set_insert_cost("a", 5)
        tree.encode_costs(costs.insert_cost, fingerprint="t")
        schema = build_schema(tree)
        schema.encode_costs(costs.insert_cost, fingerprint="t")
        for ancestor in range(len(tree)):
            for descendant in range(ancestor + 1, min(tree.bounds[ancestor] + 1, ancestor + 15)):
                class_a = schema.class_of[ancestor]
                class_d = schema.class_of[descendant]
                assert schema.is_ancestor(class_a, class_d)
                assert schema.distance(class_a, class_d) == tree.distance(ancestor, descendant)


class TestEncoding:
    def test_pre_bound_nesting(self, catalog_tree):
        schema = build_schema(catalog_tree)
        for node in range(len(schema)):
            assert schema.bounds[node] >= node
            for child in schema.children(node):
                assert node < child <= schema.bounds[node]
                assert schema.bounds[child] <= schema.bounds[node]

    def test_reencoding_changes_pathcosts(self, catalog_tree):
        schema = build_schema(catalog_tree)
        before = list(schema.pathcosts)
        schema.encode_costs(lambda label: 3.0)
        assert all(b == 3 * a for a, b in zip(before, schema.pathcosts) if a)

    def test_negative_cost_rejected(self, catalog_tree):
        schema = build_schema(catalog_tree)
        with pytest.raises(SchemaError):
            schema.encode_costs(lambda label: -1.0)

    def test_distance_requires_ancestry(self, catalog_tree):
        schema = build_schema(catalog_tree)
        with pytest.raises(SchemaError):
            schema.distance(2, 1)

    def test_format_shows_instances(self, catalog_tree):
        rendering = build_schema(catalog_tree).format()
        assert "instances=2" in rendering
        assert TEXT_CLASS_LABEL in rendering
