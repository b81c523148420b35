"""Plan-quality regression corpus and the planner feedback loop.

The corpus pins the planner's *decisions* on checked-in collection
shapes — skewed posting sizes, wide renaming closures, tiny n, n
covering the candidate population — so a cost-model change that flips a
winner fails loudly here, with :data:`~repro.planner.cost.DIRECT_BIAS`
as the documented tolerance knob (a case may also declare its own
``bias_tolerance`` when its margin is thin).  The rest of the module
covers the pieces around the decision: the k-growth schedule, the
shard/single-store plan agreement and the session feedback loop on
doctored statistics.
"""

import os
from dataclasses import dataclass

import pytest

from repro.approxql.costs import CostModel
from repro.core.database import Database
from repro.planner.cost import DIRECT_BIAS, Planner
from repro.planner.stats import CollectionStats
from repro.shard import ShardedDatabase
from repro.xmltree.model import NodeType


def _cds(count, title="album"):
    return "".join(
        f"<cd><title>{title} {i}</title><artist>band {i % 7}</artist></cd>"
        for i in range(count)
    )


def _catalog(count, extra=""):
    return f"<catalog>{_cds(count)}{extra}</catalog>"


def _wide_costs():
    costs = CostModel()
    costs.add_renaming("cd", "dvd", NodeType.STRUCT, 1.0)
    costs.add_renaming("cd", "tape", NodeType.STRUCT, 1.0)
    return costs


@dataclass(frozen=True)
class Case:
    """One checked-in plan-quality expectation."""

    name: str
    xml: str
    query: str
    n: "int | None"
    expected: str
    costs: "CostModel | None" = None
    #: planner bias values under which the expectation must still hold
    #: (the tolerance knob: a thin-margin case lists only 1.0)
    bias_tolerance: tuple = (DIRECT_BIAS,)


CORPUS = [
    Case(
        name="tiny-collection-direct",
        xml=_catalog(3),
        query='cd[title["album"]]',
        n=5,
        expected="direct",
        bias_tolerance=(0.5, 1.0, 2.0),
    ),
    Case(
        name="selective-best-n-schema",
        xml=_catalog(60),
        query='cd[title["album"]]',
        n=5,
        expected="schema",
        bias_tolerance=(0.5, 1.0, 2.0),
    ),
    Case(
        name="full-retrieval-direct",
        xml=_catalog(60),
        query='cd[title["album"]]',
        n=None,
        expected="direct",
        bias_tolerance=(0.5, 1.0, 2.0),
    ),
    Case(
        name="n-covers-candidates-direct",
        xml=_catalog(40),
        query="cd[title]",
        n=40,
        expected="direct",
        bias_tolerance=(0.5, 1.0, 2.0),
    ),
    Case(
        name="skewed-rare-root-direct",
        # the queried root label is rare while the rest of the
        # collection is large: candidates fit in n, the scan wins
        xml=_catalog(60, extra="<boxset><title>complete works</title></boxset>"),
        query="boxset[title]",
        n=5,
        expected="direct",
        bias_tolerance=(0.5, 1.0, 2.0),
    ),
    Case(
        name="tight-n-small-collection-direct",
        # n just under the candidate population on a small collection:
        # the best-n driver's base cost cannot be amortized
        xml=_catalog(10),
        query="cd[title]",
        n=8,
        expected="direct",
    ),
    Case(
        name="wide-renaming-schema",
        # renamings widen every cd closure across three label families;
        # the driver still wins at n=5 but with an inflated schedule
        xml=f"<catalog>{_cds(30)}"
        + "".join(f"<dvd><title>film {i}</title></dvd>" for i in range(30))
        + "".join(f"<tape><title>mix {i}</title></tape>" for i in range(30))
        + "</catalog>",
        query='cd[title["album"]]',
        n=5,
        expected="schema",
        costs=_wide_costs(),
    ),
]


class TestPlanQualityCorpus:
    @pytest.mark.parametrize("case", CORPUS, ids=lambda case: case.name)
    def test_expected_winner(self, case):
        database = Database.from_xml(case.xml)
        plan = database.plan(case.query, n=case.n, costs=case.costs)
        assert plan.method == case.expected, plan.reason
        assert plan.estimates is not None

    @pytest.mark.parametrize(
        "case", [c for c in CORPUS if len(c.bias_tolerance) > 1],
        ids=lambda case: case.name,
    )
    def test_winner_is_bias_tolerant(self, case):
        database = Database.from_xml(case.xml)
        state = database._state
        query_costs = case.costs if case.costs is not None else CostModel()
        from repro.approxql.parser import parse_query

        query = parse_query(case.query)
        for bias in case.bias_tolerance:
            chosen, reason, _ = Planner(bias=bias).choose(
                query, query_costs, state.ensure_stats(), case.n
            )
            assert chosen == case.expected, (bias, reason)

    def test_plan_flips_from_old_static_rule(self):
        # The seed's rule sent *every* best-n query to the schema
        # driver; the statistics flip this shape to direct and say why.
        database = Database.from_xml(_catalog(3))
        plan = database.plan('cd[title["album"]]', n=5)
        assert plan.method == "direct"
        assert "statistics" in plan.reason

    def test_auto_answers_match_forced_methods(self):
        for case in CORPUS:
            database = Database.from_xml(case.xml)
            kwargs = {"n": case.n, "costs": case.costs}
            auto = database.query(case.query, **kwargs)
            forced = database.query(case.query, method=case.expected, **kwargs)
            assert [(r.root, r.cost) for r in auto] == [
                (r.root, r.cost) for r in forced
            ], case.name


class TestSchedule:
    def test_wide_renaming_inflates_initial_k(self):
        case = next(c for c in CORPUS if c.name == "wide-renaming-schema")
        database = Database.from_xml(case.xml)
        plain = database.plan('cd[title["album"]]', n=5)
        wide = database.plan('cd[title["album"]]', n=5, costs=case.costs)
        assert plain.estimates.initial_k == 5
        assert wide.estimates.initial_k > 5
        assert wide.estimates.delta == wide.estimates.initial_k

    def test_initial_k_is_capped(self):
        from repro.planner.cost import MAX_INITIAL_K

        database = Database.from_xml(_catalog(30))
        plan = database.plan("cd[title]", n=10**9)
        assert plan.estimates.initial_k is None or (
            plan.estimates.initial_k <= MAX_INITIAL_K
        )

    def test_full_retrieval_has_no_schedule(self):
        database = Database.from_xml(_catalog(30))
        plan = database.plan("cd[title]", n=None)
        assert plan.estimates.initial_k is None
        assert plan.estimates.schema_cost is None


class TestShardAgreement:
    DOCUMENTS = [
        f"<catalog><cd><title>album {i}</title><artist>b{i % 5}</artist></cd></catalog>"
        for i in range(24)
    ]

    def test_sharded_plan_equals_single_store_plan(self):
        single = Database.from_documents(self.DOCUMENTS)
        sharded = ShardedDatabase.from_documents(self.DOCUMENTS, shards=3)
        for query, n in [
            ('cd[title["album"]]', 5),
            ('cd[title["album"]]', None),
            ("cd[title]", 24),
            ("cd", 3),
        ]:
            p_single = single.plan(query, n=n)
            p_sharded = sharded.plan(query, n=n)
            assert p_single == p_sharded, (query, n)

    def test_sharded_explicit_methods_still_respected(self):
        sharded = ShardedDatabase.from_documents(self.DOCUMENTS, shards=2)
        for method in ("direct", "schema"):
            plan = sharded.plan('cd[title["album"]]', n=5, method=method)
            assert plan.method == method
            assert "explicit" in plan.reason


class TestFeedbackLoop:
    def _doctored_database(self, tmp_path):
        """A stored database whose planner statistics wildly understate
        every posting (node counts kept valid)."""
        path = os.path.join(tmp_path, "doctored.apxq")
        database = Database.from_xml(_catalog(50))
        database.save(path)
        honest = database.collection_stats()
        lying = CollectionStats(
            generation=0,
            node_count=honest.node_count,
            live_node_count=honest.live_node_count,
            document_count=honest.document_count,
            max_depth=honest.max_depth,
            schema_classes=honest.schema_classes,
            schema_max_fanout=honest.schema_max_fanout,
            depth_histogram=dict(honest.depth_histogram),
            struct_sizes={label: 1 for label in honest.struct_sizes},
            text_sizes={word: 1 for word in honest.text_sizes},
        )
        reopened = Database.open(path)
        reopened._state.stats = lying
        return reopened

    def test_gross_misprediction_raises_session_correction(self, tmp_path):
        database = self._doctored_database(tmp_path)
        before = database.plan("cd", n=5)
        assert before.estimates.candidate_roots == 1  # the lie
        assert before.method == "direct"
        results = database.query("cd", n=None, collect="counters")
        assert len(results) == 50
        report = results.report
        assert report.get("planner.mispredictions") == 1
        assert report.planner_corrections >= 1
        assert database._pipeline.planner.correction > 1.0
        # subsequent estimates carry the corrected candidate count
        after = database.plan("cd", n=5)
        assert after.estimates.corrected
        assert after.estimates.candidate_roots > before.estimates.candidate_roots
        assert after.estimates.confidence == "corrected"

    def test_correction_is_capped_and_monotonic(self):
        planner = Planner()
        stats = CollectionStats(
            live_node_count=10**6, struct_sizes={"cd": 1}, text_sizes={}
        )
        from repro.approxql.parser import parse_query

        estimates = planner.estimate(parse_query("cd"), CostModel(), stats, 5)
        assert planner.observe(estimates, 100_000, None)
        first = planner.correction
        # a smaller mis-estimate never lowers the session factor
        assert not planner.observe(estimates, 50, None)
        assert planner.correction == first
        from repro.planner.cost import MAX_CORRECTION

        assert planner.correction <= MAX_CORRECTION

    def test_well_calibrated_queries_leave_planner_alone(self):
        database = Database.from_xml(_catalog(30))
        for _ in range(3):
            database.query('cd[title["album"]]', n=5)
        assert database._pipeline.planner.correction == 1.0
        assert database._pipeline.planner.corrections == 0
