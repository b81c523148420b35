"""Tests for the process-pool serving layer (:mod:`repro.concurrent.process`).

Same contract as the thread pool — parallelism changes scheduling,
never answers — plus the process-specific machinery: worker setup specs,
telemetry crossing the pipe, and the documented degradations back to
threads.
"""

import os

import pytest

from repro.concurrent import (
    ProcessQueryPool,
    QueryPool,
    make_query_pool,
    worker_context,
)
from repro.concurrent.process import (
    ForkInheritedSetup,
    default_start_method,
    register_fork_object,
    unregister_fork_object,
)
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


# task bodies must be module-level: they cross the pipe by name
def _square(value):
    return value * value


def _worker_pid(_):
    return os.getpid()


def _count_work(value):
    from repro.telemetry import collector

    collector.count("test.work", value)
    return value


def _explode(value):
    if value == 3:
        raise ValueError("task 3")
    return value


def _context_value(_):
    return worker_context()


class TestProcessQueryPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(EvaluationError):
            ProcessQueryPool(0)

    def test_map_ordered_preserves_submission_order(self):
        with ProcessQueryPool(2) as pool:
            results = pool.map_ordered(_square, range(20))
        assert results == [i * i for i in range(20)]

    def test_runs_on_other_processes(self):
        with ProcessQueryPool(2) as pool:
            pids = pool.map_ordered(_worker_pid, range(8))
        assert os.getpid() not in pids
        assert 1 <= len(set(pids)) <= 2

    def test_empty_batch(self):
        with ProcessQueryPool(2) as pool:
            assert pool.map_ordered(_square, []) == []

    def test_task_exception_propagates(self):
        with ProcessQueryPool(2) as pool:
            with pytest.raises(ValueError, match="task 3"):
                pool.map_ordered(_explode, range(6))

    def test_merges_worker_telemetry_into_submitter(self):
        telemetry = Telemetry()
        with ProcessQueryPool(2) as pool:
            with collecting(telemetry):
                pool.map_ordered(_count_work, range(10))
        assert telemetry.counters["test.work"] == sum(range(10))
        assert telemetry.counters["concurrency.tasks"] == 10
        assert telemetry.counters["concurrency.executor_process"] == 1
        assert telemetry.counters["concurrency.queue_wait_seconds"] >= 0

    def test_no_setup_means_no_context(self):
        with ProcessQueryPool(2) as pool:
            assert pool.map_ordered(_context_value, range(2)) == [None, None]


class TestMakeQueryPool:
    def test_rejects_unknown_executor(self):
        with pytest.raises(EvaluationError, match="executor"):
            make_query_pool(2, "fiber")

    def test_thread_executor_builds_thread_pool(self):
        with make_query_pool(2, "thread") as pool:
            assert isinstance(pool, QueryPool)

    def test_serial_jobs_never_build_processes(self):
        with make_query_pool(1, "process") as pool:
            assert isinstance(pool, QueryPool)

    def test_process_executor_builds_process_pool(self):
        pool = make_query_pool(2, "process")
        try:
            assert isinstance(pool, ProcessQueryPool)
        finally:
            pool.shutdown()


class TestWorkerSetups:
    def test_fork_inherited_setup_resolves_registered_object(self):
        if default_start_method() != "fork":
            pytest.skip("fork start method unavailable")
        token = register_fork_object({"answer": 42})
        try:
            with ProcessQueryPool(2, setup=ForkInheritedSetup(token)) as pool:
                values = pool.map_ordered(_context_value, range(2))
            assert values == [{"answer": 42}, {"answer": 42}]
        finally:
            unregister_fork_object(token)

    def test_unknown_fork_token_raises_in_worker(self):
        if default_start_method() != "fork":
            pytest.skip("fork start method unavailable")
        with ProcessQueryPool(1, setup=ForkInheritedSetup(999999)) as pool:
            with pytest.raises(Exception):
                pool.map_ordered(_context_value, range(1))


class TestQueryManyExecutorProcess:
    def test_memory_batch_matches_query_loop(self):
        if default_start_method() != "fork":
            pytest.skip("in-memory batches need the fork start method")
        database = Database.from_xml(*CATALOG)
        batch = QUERIES * 3
        expected = [database.query(text, n=4) for text in batch]
        got = database.query_many(batch, n=4, jobs=2, executor="process")
        assert [[(r.root, r.cost) for r in rs] for rs in got] == [
            [(r.root, r.cost) for r in rs] for rs in expected
        ]

    def test_stored_batch_matches_query_loop(self, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        Database.from_xml(*CATALOG).save(path)
        database = Database.open(path)
        try:
            expected = [database.query(text, n=5) for text in QUERIES]
            got = database.query_many(QUERIES, n=5, jobs=2, executor="process")
            assert [[(r.root, r.cost) for r in rs] for rs in got] == [
                [(r.root, r.cost) for r in rs] for rs in expected
            ]
        finally:
            database._store.close()

    def test_reports_attributed_per_query(self, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        Database.from_xml(*CATALOG).save(path)
        database = Database.open(path)
        try:
            batch = QUERIES * 2
            results = database.query_many(
                batch, n=4, collect="counters", jobs=2, executor="process"
            )
            for text, result_set in zip(batch, results):
                report = result_set.report
                assert report.query == database.plan(text).query
                assert report.counters["core.results_materialized"] == len(result_set)
        finally:
            database._store.close()

    def test_wal_store_degrades_to_threads(self, tmp_path):
        path = str(tmp_path / "catalog.apxq")
        Database.from_xml(*CATALOG).save(path, durability="wal")
        database = Database.open(path, durability="wal")
        try:
            telemetry = Telemetry()
            with collecting(telemetry):
                got = database.query_many(QUERIES, n=4, jobs=2, executor="process")
            expected = [database.query(text, n=4) for text in QUERIES]
            assert [[(r.root, r.cost) for r in rs] for rs in got] == [
                [(r.root, r.cost) for r in rs] for rs in expected
            ]
            assert telemetry.counters.get("concurrency.process_fallback") == 1
            assert "concurrency.executor_process" not in telemetry.counters
        finally:
            database._store.close()
