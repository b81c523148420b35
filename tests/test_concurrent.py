"""Tests for batch serving (:meth:`repro.core.database.Database.query_many`).

The contract under test everywhere: a batch returns exactly what calling
``query`` in a loop returns, in input order, with one report per query.
"""

import pytest

from repro.core.database import Database

CATALOG = [
    "<cd><title>piano concerto</title><artist>rachmaninov</artist></cd>",
    "<cd><title>cello suite</title><artist>bach</artist></cd>",
    "<cd><title>violin partita</title><artist>bach</artist></cd>",
    "<song><name>piano man</name><artist>joel</artist></song>",
    "<song><name>cello song</name><artist>drake</artist></song>",
]

QUERIES = [
    'cd[title["piano"]]',
    'cd[artist["bach"]]',
    'song[name["cello"]]',
    'cd[title["piano"] or artist["bach"]]',
]


@pytest.fixture
def database():
    return Database.from_xml(*CATALOG)


class TestQueryMany:
    def test_matches_query_loop(self, database):
        batch = QUERIES * 3
        expected = [database.query(text, n=4) for text in batch]
        got = database.query_many(batch, n=4)
        assert [[(r.root, r.cost) for r in rs] for rs in got] == [
            [(r.root, r.cost) for r in rs] for rs in expected
        ]

    def test_per_query_cost_overrides(self, database):
        from repro.approxql.costs import CostModel
        from repro.xmltree.model import NodeType

        renamed = CostModel()
        renamed.add_renaming("cd", "song", NodeType.STRUCT, 1)
        renamed.add_renaming("title", "name", NodeType.STRUCT, 1)
        batch = [QUERIES[0], (QUERIES[0], renamed)]
        plain, with_renaming = database.query_many(batch, n=10)
        assert len(with_renaming) > len(plain)
        expected = database.query(QUERIES[0], n=10, costs=renamed)
        assert [(r.root, r.cost) for r in with_renaming] == [
            (r.root, r.cost) for r in expected
        ]

    def test_mixed_insert_fingerprints_still_correct(self, database):
        # every item encodes its own insert table as it is served
        from repro.approxql.costs import CostModel

        expensive = CostModel(default_insert_cost=5)
        batch = [QUERIES[0], (QUERIES[1], expensive)]
        got = database.query_many(batch, n=5)
        expected = [
            database.query(QUERIES[0], n=5),
            database.query(QUERIES[1], n=5, costs=expensive),
        ]
        assert [[(r.root, r.cost) for r in rs] for rs in got] == [
            [(r.root, r.cost) for r in rs] for rs in expected
        ]

    def test_reports_attributed_per_query(self, database):
        batch = QUERIES * 2
        results = database.query_many(batch, n=4, collect="counters")
        for text, result_set in zip(batch, results):
            report = result_set.report
            assert report.query == database.plan(text).query
            assert report.counters["core.results_materialized"] == len(result_set)

    def test_stored_database_batch(self, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        Database.from_xml(*CATALOG).save(path)
        db = Database.open(path)
        try:
            loop = [db.query(text, n=5) for text in QUERIES]
            batched = db.query_many(QUERIES, n=5)
            assert [[(r.root, r.cost) for r in rs] for rs in batched] == [
                [(r.root, r.cost) for r in rs] for rs in loop
            ]
        finally:
            db._store.close()
