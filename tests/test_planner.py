"""Plan-quality regression corpus.

The corpus pins the planner's *decisions* on checked-in collection
shapes — skewed posting sizes, wide renaming closures, tiny n, n
covering the candidate population — so a cost-model change that flips a
winner fails loudly here; a case with a wide margin also declares the
range of schema/direct cost ratios its estimates must stay outside.
The rest of the module covers the pieces around the decision: the
driver's first-round k, which grows with the same closure widths, and
the shard/single-store plan agreement.
"""

import math
from dataclasses import dataclass

import pytest

from repro.approxql.costs import CostModel
from repro.approxql.parser import parse_query
from repro.core.database import Database
from repro.planner.cost import Planner
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
    #: (low, high) range of schema/direct cost ratios the estimates must
    #: lie outside on the expected winner's side; None for a thin margin
    tolerance: "tuple[float, float] | None" = None


CORPUS = [
    Case(
        name="tiny-collection-direct",
        xml=_catalog(3),
        query='cd[title["album"]]',
        n=5,
        expected="direct",
        tolerance=(0.5, 2.0),
    ),
    Case(
        name="selective-best-n-schema",
        xml=_catalog(60),
        query='cd[title["album"]]',
        n=5,
        expected="schema",
        tolerance=(0.5, 2.0),
    ),
    Case(
        name="full-retrieval-direct",
        xml=_catalog(60),
        query='cd[title["album"]]',
        n=None,
        expected="direct",
        tolerance=(0.5, 2.0),
    ),
    Case(
        name="n-covers-candidates-direct",
        xml=_catalog(40),
        query="cd[title]",
        n=40,
        expected="direct",
        tolerance=(0.5, 2.0),
    ),
    Case(
        name="skewed-rare-root-direct",
        # the queried root label is rare while the rest of the
        # collection is large: candidates fit in n, the scan wins
        xml=_catalog(60, extra="<boxset><title>complete works</title></boxset>"),
        query="boxset[title]",
        n=5,
        expected="direct",
        tolerance=(0.5, 2.0),
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
        # the driver still wins at n=5 but starts at a larger k
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
        "case", [c for c in CORPUS if c.tolerance is not None],
        ids=lambda case: case.name,
    )
    def test_winner_is_bias_tolerant(self, case):
        # The winner survives any bias inside the tolerance range: a rule
        # that ignores the costs decided, or the schema/direct ratio
        # clears the range on the winner's side.
        database = Database.from_xml(case.xml)
        query_costs = case.costs if case.costs is not None else CostModel()
        estimates = Planner().estimate(
            parse_query(case.query), query_costs, database.collection_stats(), case.n
        )
        low, high = case.tolerance
        if case.n is None or estimates.candidate_roots <= case.n:
            assert case.expected == "direct"
            return
        ratio = estimates.schema_cost / estimates.direct_cost
        if case.expected == "schema":
            assert ratio < low, ratio
        else:
            assert ratio >= high, ratio

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


def _first_round_k(database, query, n, costs=None):
    """``schema.final_k`` of a schema-driven query that runs one round —
    the driver's first-round k."""
    report = database.query(
        query, n=n, costs=costs, method="schema", collect="counters"
    ).report
    assert report.get("schema.rounds") == 1
    return report.get("schema.final_k")


class TestSchedule:
    """The k schedule is the driver's own: it starts at n scaled by the
    mean closure width the planner also reports (16 for full retrieval),
    capped at 4096, and the plan carries none of it."""

    def test_wide_renaming_inflates_initial_k(self):
        case = next(c for c in CORPUS if c.name == "wide-renaming-schema")
        database = Database.from_xml(case.xml)
        query = 'cd[title["album"]]'
        wide = database.plan(query, n=5, costs=case.costs).estimates
        assert _first_round_k(database, query, 5) == 5
        assert wide.mean_closure_width > 1
        assert _first_round_k(database, query, 5, case.costs) == math.ceil(
            5 * wide.mean_closure_width
        )

    def test_initial_k_is_capped(self):
        database = Database.from_xml(_catalog(30))
        assert _first_round_k(database, "cd[title]", 10**9) == 4096

    def test_full_retrieval_has_no_schedule(self):
        database = Database.from_xml(_catalog(30))
        plan = database.plan("cd[title]", n=None)
        assert not hasattr(plan.estimates, "initial_k")
        assert plan.estimates.schema_cost is None
        assert _first_round_k(database, "cd[title]", None) == 16


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
