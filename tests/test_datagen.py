"""Tests for the synthetic collection generator."""

import pytest

from repro.datagen.generator import (
    GeneratorConfig,
    _ZipfSampler,
    generate_collection,
)
from repro.errors import GenerationError
from repro.schema.dataguide import build_schema
from repro.xmltree.model import NodeType

import random


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_elements": 0},
            {"num_element_names": 0},
            {"num_terms": 0},
            {"num_term_occurrences": -1},
            {"regularity": 1.5},
            {"mode": "surprise"},
            {"zipf_skew": -1},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(GenerationError):
            generate_collection(GeneratorConfig(**kwargs))


class TestMarkovMode:
    def test_element_budget_respected(self):
        config = GeneratorConfig(num_elements=500, num_term_occurrences=1000, seed=3)
        collection = generate_collection(config)
        struct_count = sum(
            1
            for pre in collection.tree.iter_nodes()
            if collection.tree.node_type(pre) == NodeType.STRUCT
        )
        assert struct_count == 500 + 1  # + super-root

    def test_word_budget_approximately_met(self):
        config = GeneratorConfig(num_elements=500, num_term_occurrences=2000, seed=3)
        collection = generate_collection(config)
        assert collection.stats.words == pytest.approx(2000, rel=0.25)

    def test_deterministic_in_seed(self):
        config = GeneratorConfig(num_elements=300, num_term_occurrences=600, seed=11)
        first = generate_collection(config)
        second = generate_collection(config)
        assert first.tree.labels == second.tree.labels

    def test_different_seeds_differ(self):
        base = dict(num_elements=300, num_term_occurrences=600)
        first = generate_collection(GeneratorConfig(seed=1, **base))
        second = generate_collection(GeneratorConfig(seed=2, **base))
        assert first.tree.labels != second.tree.labels

    def test_element_names_within_vocabulary(self):
        config = GeneratorConfig(num_elements=400, num_element_names=7, seed=5)
        collection = generate_collection(config)
        tree = collection.tree
        names = {
            tree.label(pre)
            for pre in tree.iter_nodes()
            if tree.node_type(pre) == NodeType.STRUCT and pre != 0
        }
        assert names <= {f"e{i}" for i in range(7)}

    def test_depth_capped(self):
        config = GeneratorConfig(num_elements=2000, max_depth=4, seed=5)
        collection = generate_collection(config)
        tree = collection.tree
        assert max(tree.depth(pre) for pre in tree.iter_nodes()) <= 4 + 1

    def test_regularity_controls_schema_size(self):
        base = dict(num_elements=3000, num_term_occurrences=3000, num_element_names=30)
        regular = generate_collection(GeneratorConfig(regularity=0.98, seed=7, **base))
        chaotic = generate_collection(GeneratorConfig(regularity=0.1, seed=7, **base))
        assert len(build_schema(regular.tree)) < len(build_schema(chaotic.tree))

    def test_stats_populated(self):
        collection = generate_collection(GeneratorConfig(num_elements=200, seed=1))
        assert collection.stats.documents >= 1
        assert collection.stats.elements == 200
        assert collection.stats.distinct_terms > 0


class TestDTDMode:
    def test_bounded_schema(self):
        config = GeneratorConfig(
            num_elements=3000, mode="dtd", dtd_size=15, num_element_names=50, seed=9
        )
        collection = generate_collection(config)
        schema = build_schema(collection.tree)
        # schema size bounded by roughly the template size (text classes
        # and name collisions allowed)
        assert len(schema) <= 3 * 15

    def test_deterministic(self):
        config = GeneratorConfig(num_elements=500, mode="dtd", seed=4)
        assert (
            generate_collection(config).tree.labels
            == generate_collection(config).tree.labels
        )


class TestZipfSampler:
    def test_skew_zero_is_uniformish(self):
        sampler = _ZipfSampler(10, 0.0, random.Random(1))
        counts = [0] * 10
        for _ in range(5000):
            counts[sampler.sample()] += 1
        assert min(counts) > 300

    def test_high_skew_prefers_low_ranks(self):
        sampler = _ZipfSampler(1000, 1.2, random.Random(1))
        samples = [sampler.sample() for _ in range(3000)]
        assert sum(1 for s in samples if s < 10) > len(samples) * 0.3

    def test_samples_in_range(self):
        sampler = _ZipfSampler(5, 1.0, random.Random(2))
        assert all(0 <= sampler.sample() < 5 for _ in range(500))

    def test_sample_many_makes_the_same_draws_in_the_same_order(self):
        one_by_one = _ZipfSampler(400, 1.0, random.Random(9))
        batched = _ZipfSampler(400, 1.0, random.Random(9))
        expected = [one_by_one.sample() for _ in range(60)]
        assert batched.sample_many(25) + batched.sample_many(0) + batched.sample_many(35) == expected
        assert all(type(term) is int for term in batched.sample_many(5))

    def test_fallback_without_numpy_agrees(self, monkeypatch):
        from repro.datagen import generator

        with_numpy = _ZipfSampler(400, 1.0, random.Random(9)).sample_many(200)
        monkeypatch.setattr(generator, "_numpy", None)
        assert _ZipfSampler(400, 1.0, random.Random(9)).sample_many(200) == with_numpy

    def test_a_words_run_equals_word_by_word(self):
        """``add_words`` (one extension per column) builds the tree that
        one ``add_word`` per word builds."""
        from repro.xmltree.model import TreeBuilder

        trees = []
        for bulk in (False, True):
            builder = TreeBuilder()
            builder.start_struct("a")
            builder.add_word("lead")
            words = ["t1", "t2", "t1"]
            if bulk:
                assert list(builder.add_words(words)) == [3, 4, 5]
                assert list(builder.add_words([])) == []
            else:
                for word in words:
                    builder.add_word(word)
            builder.start_struct("b")
            builder.end_struct()
            builder.end_struct()
            trees.append(builder.finish())
        for name in ("labels", "types", "parents", "bounds", "pathcosts", "_first_child", "_next_sibling"):
            assert getattr(trees[0], name) == getattr(trees[1], name), name
