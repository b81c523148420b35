"""Regression tests for defects found and fixed during development.

Each test reconstructs the exact scenario that exposed the defect, so a
reintroduction fails loudly with a pointer to the original analysis.
"""

import math

import pytest

from repro.approxql.costs import CostModel
from repro.engine.evaluator import DirectEvaluator
from repro.schema.evaluator import SchemaEvaluator
from repro.transform.naive import evaluate_naive
from repro.xmltree.builder import tree_from_xml
from repro.xmltree.model import NodeType


class TestNaiveMemoIdReuse:
    """The naive evaluator once memoized on id(query_node); garbage
    collection let Python reuse ids across semi-transformed variants,
    producing stale hits.  Keys are now the structurally-hashable nodes
    themselves."""

    def test_many_variants_no_stale_memo(self):
        tree = tree_from_xml(
            "<c><b><c>z x</c></b><c>x z</c></c>"
        )
        costs = CostModel()
        costs.set_delete_cost("a", NodeType.STRUCT, 6)
        costs.set_delete_cost("d", NodeType.STRUCT, 3)
        costs.add_renaming("d", "b", NodeType.STRUCT, 1)
        costs.add_renaming("x", "y", NodeType.TEXT, 5)
        costs.add_renaming("y", "x", NodeType.TEXT, 3)
        query = 'c[(d[c] and ("x" and "z")) or (("x" and "z") or (b and "x"))]'
        naive = {(p.root, p.cost) for p in evaluate_naive(query, tree, costs)}
        direct = {(r.root, r.cost) for r in DirectEvaluator(tree).evaluate(query, costs)}
        assert naive == direct


class TestSkeletonSignatureCollision:
    """A matched struct leaf and a fully-deleted inner selector produce
    skeletons with identical signatures but different validity; segment
    deduplication once dropped the valid one.  Dedup is now per validity
    class."""

    def test_valid_skeleton_survives_equal_shape_invalid(self):
        tree = tree_from_xml("<d><b><a/></b></d>")
        costs = CostModel()
        costs.set_delete_cost("a", NodeType.STRUCT, 1)
        costs.set_delete_cost("b", NodeType.STRUCT, 1)
        query = "d[a[b[a]]]"
        direct = {(r.root, r.cost) for r in DirectEvaluator(tree).evaluate(query, costs)}
        schema = {(r.root, r.cost) for r in SchemaEvaluator(tree).evaluate(query, costs)}
        assert direct == schema
        assert direct  # the deletion-based embedding must be found at all


class TestByteBalancedSplit:
    """B+tree nodes split at the byte-balanced point; a count-median
    split once left a byte-heavy half oversized (small entries followed
    by near-inline-limit values)."""

    def test_mixed_size_inserts(self, tmp_path):
        from repro.storage.btree import BTree
        from repro.storage.pager import Pager

        with Pager(str(tmp_path / "split.db"), page_size=4096) as pager:
            tree = BTree(pager)
            # small keys first, then values near the inline threshold
            for index in range(20):
                tree.put(f"s{index:02d}".encode(), b"x")
            for index in range(20):
                tree.put(f"t{index:02d}".encode(), b"y" * 1000)
            for index in range(20):
                assert tree.get(f"t{index:02d}".encode()) == b"y" * 1000


class TestQuoteAndCommentHandling:
    """Labels containing '#' (the super-root) once collided with the
    cost-file comment syntax."""

    def test_root_label_roundtrips_through_cost_files(self):
        model = CostModel()
        model.set_insert_cost("#root", 3)  # pathological but legal
        restored = CostModel.from_lines(model.to_lines())
        assert restored.insert_cost("#root") == 3

    def test_inline_comments_still_work(self):
        model = CostModel.from_lines(["insert cd 2 # a comment"])
        assert model.insert_cost("cd") == 2


class TestCJKTokenization:
    """The word pattern once covered only Latin ranges, silently dropping
    CJK text."""

    def test_cjk_words_indexed(self):
        tree = tree_from_xml("<t>音楽 と 芸術</t>")
        words = [
            tree.label(p) for p in tree.iter_nodes() if tree.node_type(p) == NodeType.TEXT
        ]
        assert "音楽" in words
        assert "芸術" in words


class TestBestNDegenerationBounded:
    """Best-n with n above the result count degenerates into full
    retrieval; max_k must bound it and still return everything found."""

    def test_max_k_bounds_degenerate_best_n(self):
        tree = tree_from_xml("<cd><title>piano</title></cd>")
        costs = CostModel()
        for target in ("alpha", "beta", "gamma"):
            costs.add_renaming("piano", target, NodeType.TEXT, 2)
        results = SchemaEvaluator(tree).evaluate(
            'cd[title["piano"]]', costs, n=50, max_k=8
        )
        assert [(r.cost) for r in results] == [0.0]


#: the ``small`` corpus of the Figure 7 measurements, restated here so the
#: benchmark's tables can change without moving the tests judged on it
SMALL_CORPUS = dict(
    num_elements=15_000,
    num_element_names=100,
    num_terms=4_000,
    num_term_occurrences=150_000,
    mode="dtd",
    dtd_size=120,
    seed=42,
)


@pytest.fixture(scope="module")
def small_corpus():
    from repro.datagen import GeneratorConfig, generate_collection

    return generate_collection(GeneratorConfig(**SMALL_CORPUS)).tree


class TestSection7BlowUp:
    """The schema path once re-ran the top-k primary up to ``max_k`` on
    queries with fewer results than n: a schema class with no candidate
    ancestor (dropped by the enclosing join anyway) kept a global
    "something was truncated" flag set, so exhaustion was never seen —
    pattern 3 at r=5, n=100 took minutes where ``direct`` takes 0.15 s.
    Judged by counters (they repeat exactly), not by wall-clock."""

    QUERY_SEED = 7 + 1000 * 3 + 5
    N = 100

    @pytest.fixture(scope="class")
    def workload(self, small_corpus):
        from repro import Database
        from repro.querygen import PAPER_PATTERNS, QueryGenerator, QueryGenOptions
        from repro.xmltree import MemoryNodeIndexes

        generator = QueryGenerator(
            MemoryNodeIndexes(small_corpus),
            QueryGenOptions(renamings_per_label=5),
            seed=self.QUERY_SEED,
        )
        queries = [generator.generate(PAPER_PATTERNS[3]) for _ in range(3)]
        database = Database.from_tree(small_corpus)
        database.set_query_cache(result_entries=0)
        return database, queries

    @pytest.mark.parametrize("index, results, skeletons", [(1, 51, 188), (2, 94, 944)])
    def test_short_answer_stops_at_first_k_covering_all_skeletons(
        self, workload, index, results, skeletons
    ):
        database, queries = workload
        generated = queries[index]
        schema = database.query(
            generated.query, n=self.N, costs=generated.costs, method="schema",
            collect="counters",
        )
        direct = database.query(
            generated.query, n=self.N, costs=generated.costs, method="direct"
        )
        assert len(schema) == results < self.N
        assert schema.costs == direct.costs
        assert sorted(r.root for r in schema) == sorted(r.root for r in direct)

        # the driver's rule: the first round asks for n scaled by the mean
        # renaming-closure width (the planner reports the same width),
        # capped at 4096; k doubles after every round
        width = database.plan(
            generated.query, n=self.N, costs=generated.costs
        ).estimates.mean_closure_width
        k = min(4096, max(self.N, math.ceil(self.N * width)))
        rounds = 1
        while k < skeletons:
            k, rounds = 2 * k, rounds + 1
        report = schema.report
        assert report.get("schema.skeletons_enumerated") == skeletons
        assert report.get("schema.final_k") == k
        assert report.get("schema.rounds") == rounds
        assert report.max_k_stops == 0


class TestDirectRenamingBlowUp:
    """Direct evaluation once rebuilt a selector's match list — fetch,
    merge, child content and all — for every one of the (r+1) candidate
    lists of the enclosing selector, at every level: work grew as
    (r+1)^depth where the paper's bound (Section 6.5) is linear in r, and
    a pattern-1 query cost 60 ms at r=5 and 280 ms at r=10.  Judged by
    counters (they repeat exactly), not by wall-clock: the *same* query
    with half of every renaming list cut off must cost about half."""

    QUERY_SEED = 7 + 1000 * 1 + 10

    @staticmethod
    def _work(indexes, expanded) -> dict:
        from repro.engine.primary import PrimaryEvaluator
        from repro.telemetry.collector import Telemetry, collecting

        telemetry = Telemetry()
        evaluator = PrimaryEvaluator(indexes)
        with collecting(telemetry):
            evaluator.evaluate(expanded)
        return {
            "direct.merge_steps": evaluator.merge_ops,
            "kernel.columns_built": telemetry.counters["kernel.columns_built"],
        }

    def test_work_is_linear_in_renamings(self, small_corpus):
        from repro.approxql.expanded import build_expanded
        from repro.querygen import PAPER_PATTERNS, QueryGenerator, QueryGenOptions
        from repro.xmltree import MemoryNodeIndexes

        indexes = MemoryNodeIndexes(small_corpus)
        generated = QueryGenerator(
            indexes, QueryGenOptions(renamings_per_label=10), seed=self.QUERY_SEED
        ).generate(PAPER_PATTERNS[1])
        costs = generated.costs
        small_corpus.encode_costs(costs.insert_cost, fingerprint=costs.insert_fingerprint)

        at_r10 = build_expanded(generated.query, costs)
        at_r5 = build_expanded(generated.query, costs)
        for node in at_r5.iter_unique_nodes():
            node.renamings = node.renamings[:5]
        assert at_r10.max_renamings() == 10 and at_r5.max_renamings() == 5

        work_r5 = self._work(indexes, at_r5)
        work_r10 = self._work(indexes, at_r10)
        for counter, at_five in work_r5.items():
            # (10+1)/(5+1) = 1.8 when linear (measured: 2.0 and 1.7);
            # the rebuilt-per-list recursion measured 3.2 and 2.9 on
            # this query and grows with its depth
            assert 0 < at_five and work_r10[counter] <= 2.5 * at_five, (counter, work_r5, work_r10)
