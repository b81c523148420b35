"""Tests for the thread-pool serving layer (:mod:`repro.concurrent`).

The contract under test everywhere: parallelism changes scheduling,
never answers — pooled execution returns exactly what the serial path
returns, in the same order, with per-task telemetry merged back into the
submitter's collection.
"""

import threading

import pytest

from repro.concurrent import QueryPool, resolve_jobs
from repro.core.cli import main
from repro.core.database import Database
from repro.errors import EvaluationError
from repro.telemetry.collector import Telemetry, collecting

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


class TestResolveJobs:
    def test_serial_spellings(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1

    def test_literal_counts(self):
        assert resolve_jobs(2) == 2
        assert resolve_jobs(7) == 7

    def test_negative_means_cpu_count(self):
        assert resolve_jobs(-1) >= 1


class TestQueryPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(EvaluationError):
            QueryPool(0)

    def test_map_ordered_preserves_submission_order(self):
        with QueryPool(4) as pool:
            # tasks finishing out of order must not reorder results
            results = pool.map_ordered(lambda i: i * i, range(50))
        assert results == [i * i for i in range(50)]

    def test_map_ordered_runs_on_pool_threads(self):
        with QueryPool(2) as pool:
            names = pool.map_ordered(
                lambda _: threading.current_thread().name, range(8)
            )
        assert all(name.startswith("repro-query") for name in names)

    def test_task_exception_propagates(self):
        def explode(i):
            if i == 3:
                raise ValueError("task 3")
            return i

        with QueryPool(2) as pool:
            with pytest.raises(ValueError, match="task 3"):
                pool.map_ordered(explode, range(6))

    def test_empty_batch(self):
        with QueryPool(2) as pool:
            assert pool.map_ordered(lambda i: i, []) == []

    def test_merges_worker_telemetry_into_submitter(self):
        from repro.telemetry import collector

        def task(i):
            collector.count("test.work", i)
            return i

        telemetry = Telemetry()
        with QueryPool(3) as pool:
            with collecting(telemetry):
                pool.map_ordered(task, range(10))
        assert telemetry.counters["test.work"] == sum(range(10))
        assert telemetry.counters["concurrency.tasks"] == 10
        assert telemetry.counters["concurrency.pool_size"] == 3
        assert telemetry.counters["concurrency.queue_wait_seconds"] >= 0

    def test_no_collection_when_submitter_not_collecting(self):
        from repro.telemetry import collector

        stray = Telemetry()

        def task(i):
            # the worker must not see any ambient collector
            assert collector.current() is None
            return i

        with collecting(stray):
            pass  # ensure this thread's slot is exercised and cleared
        with QueryPool(2) as pool:
            assert pool.map_ordered(task, range(4)) == list(range(4))
        assert stray.counters == {}


class TestQueryMany:
    def test_matches_query_loop(self, database):
        batch = QUERIES * 3
        expected = [database.query(text, n=4) for text in batch]
        for jobs in (None, 1, 4):
            got = database.query_many(batch, n=4, jobs=jobs)
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
        plain, with_renaming = database.query_many(batch, n=10, jobs=2)
        assert len(with_renaming) > len(plain)
        expected = database.query(QUERIES[0], n=10, costs=renamed)
        assert [(r.root, r.cost) for r in with_renaming] == [
            (r.root, r.cost) for r in expected
        ]

    def test_mixed_insert_fingerprints_still_correct(self, database):
        # distinct insert tables force the serial fallback; answers are
        # what a query loop would produce either way
        from repro.approxql.costs import CostModel

        expensive = CostModel(default_insert_cost=5)
        batch = [QUERIES[0], (QUERIES[1], expensive)]
        got = database.query_many(batch, n=5, jobs=4)
        expected = [
            database.query(QUERIES[0], n=5),
            database.query(QUERIES[1], n=5, costs=expensive),
        ]
        assert [[(r.root, r.cost) for r in rs] for rs in got] == [
            [(r.root, r.cost) for r in rs] for rs in expected
        ]

    def test_reports_attributed_per_query(self, database):
        batch = QUERIES * 2
        results = database.query_many(batch, n=4, collect="counters", jobs=4)
        for text, result_set in zip(batch, results):
            report = result_set.report
            assert report.query == database.plan(text).query
            assert report.counters["core.results_materialized"] == len(result_set)

    def test_stored_database_batch(self, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        Database.from_xml(*CATALOG).save(path)
        db = Database.open(path)
        try:
            serial = db.query_many(QUERIES, n=5)
            parallel = db.query_many(QUERIES, n=5, jobs=3)
            assert [[(r.root, r.cost) for r in rs] for rs in parallel] == [
                [(r.root, r.cost) for r in rs] for rs in serial
            ]
        finally:
            db._store.close()


class TestCliJobs:
    def test_query_jobs_output_matches_serial(self, tmp_path, capsys):
        path = tmp_path / "catalog.xml"
        path.write_text("<root>" + "".join(CATALOG) + "</root>", encoding="utf-8")

        assert main(["query", str(path), QUERIES[0], "-n", "5"]) == 0
        serial_lines = capsys.readouterr().out.splitlines()
        assert main(["query", str(path), QUERIES[0], "-n", "5", "--jobs", "4"]) == 0
        parallel_lines = capsys.readouterr().out.splitlines()
        # everything except the wall-clock footer must match exactly
        assert parallel_lines[:-1] == serial_lines[:-1]
        assert parallel_lines[-1].startswith("-- ")
