"""Concurrency stress: one stored Database, many threads, one answer set.

The harness fires a deterministic task list of mixed queries (both
algorithms, several shapes, several n) from worker threads against a
single opened :class:`~repro.core.database.Database`, while a writer
thread keeps rewriting a stored key with identical bytes — every write
bumps the store generation and so forces result-cache invalidation
without changing any query's answer.  Every task's result
list must be identical to the serial run of the same task list, and
every task's QueryReport must describe that task (right query text,
right result count) — a cross-attributed or lost collection fails the
run even when the results survive.
"""

import os
import sys
import threading
import time

import pytest

from repro.core.database import Database

from .strategies import generated_case

THREADS = 8
#: tasks per thread × threads ≥ the 1000-query bar for the harness
TASKS_PER_THREAD = 130

QUERY_SHAPES = [
    ("cd[title[\"piano\"]]", 5, "schema"),
    ("cd[artist[\"bach\"]]", 3, "schema"),
    ("song[name[\"cello\"]]", 5, "direct"),
    ("cd[title[\"piano\"] or artist[\"bach\"]]", 4, "schema"),
    ("cd[title[\"violin\"] and artist[\"bach\"]]", 2, "direct"),
    ("album[track[\"quartet\"]]", 5, "schema"),
]

CATALOG = [
    "<cd><title>piano concerto</title><artist>rachmaninov</artist></cd>",
    "<cd><title>cello suite</title><artist>bach</artist></cd>",
    "<cd><title>violin partita</title><artist>bach</artist></cd>",
    "<cd><title>piano sonata</title><artist>beethoven</artist></cd>",
    "<song><name>piano man</name><artist>joel</artist></song>",
    "<song><name>cello song</name><artist>drake</artist></song>",
    "<album><track>string quartet</track><artist>borodin</artist></album>",
    "<album><track>piano quartet</track><artist>faure</artist></album>",
]


@pytest.fixture(scope="module")
def stored_database(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("stress") / "stress.apxq")
    Database.from_xml(*CATALOG).save(path)
    database = Database.open(path)
    yield database
    database._store.close()


def _task_list():
    """The deterministic mixed workload: (task index, text, n, method)."""
    tasks = []
    for index in range(THREADS * TASKS_PER_THREAD):
        text, n, method = QUERY_SHAPES[index % len(QUERY_SHAPES)]
        tasks.append((index, text, n, method))
    return tasks


def _run_task(database, task):
    _, text, n, method = task
    result_set = database.query(text, n=n, method=method, collect="counters")
    return [(r.root, r.cost) for r in result_set], result_set.report


def _rewrite_same_bytes(store):
    """One generation bump that cannot change any answer: write back the
    exact bytes already stored under the store's first key."""
    key, value = next(iter(store.scan()))
    store.put(key, value)


def test_stress_mixed_queries_with_periodic_writer(stored_database):
    tasks = _task_list()
    assert len(tasks) >= 1000

    serial = [_run_task(stored_database, task) for task in tasks]

    outcomes = [None] * len(tasks)
    errors = []
    stop_writer = threading.Event()

    def reader(thread_index):
        try:
            for task in tasks[thread_index::THREADS]:
                outcomes[task[0]] = _run_task(stored_database, task)
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    def writer():
        store = stored_database._store
        while not stop_writer.is_set():
            _rewrite_same_bytes(store)
            stop_writer.wait(0.001)

    writer_thread = threading.Thread(target=writer, name="stress-writer")
    readers = [
        threading.Thread(target=reader, args=(i,), name=f"stress-reader-{i}")
        for i in range(THREADS)
    ]
    writer_thread.start()
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop_writer.set()
    writer_thread.join()

    assert not errors, errors

    divergences = []
    corrupted = []
    for task, (expected_results, _), outcome in zip(tasks, serial, outcomes):
        assert outcome is not None, f"task {task[0]} never ran"
        results, report = outcome
        if results != expected_results:
            divergences.append((task, expected_results, results))
        # attribution: the report must describe THIS task, not a neighbor's
        index, text, n, method = task
        if (
            report.method != method
            or report.n != n
            or report.counters.get("core.results_materialized") != len(results)
        ):
            corrupted.append((task, report))
    assert not divergences, f"{len(divergences)} diverging tasks: {divergences[:3]}"
    assert not corrupted, f"{len(corrupted)} corrupted reports: {corrupted[:3]}"


def test_writer_invalidation_is_observed(stored_database):
    """Deterministic core of the stress run: a generation bump between
    two identical queries must show up as a result-cache invalidation in
    the second query's report — and change nothing else."""
    text, n, _ = QUERY_SHAPES[0]
    method = "direct"
    before = stored_database.query(text, n=n, method=method, collect="counters")
    _rewrite_same_bytes(stored_database._store)
    after = stored_database.query(text, n=n, method=method, collect="counters")
    assert [(r.root, r.cost) for r in after] == [(r.root, r.cost) for r in before]
    assert after.report.counters.get("querycache.result_invalidations", 0) >= 1


def test_stress_concurrent_callers_on_generated_data():
    """One in-memory database, one thread per generated query: the
    concurrent schema evaluations reproduce the serial answers."""
    case = generated_case(1234, num_elements=200, renamings_per_label=1)
    database = Database.from_tree(case.tree)
    # the repeats must evaluate, not be served from the result cache
    database.set_query_cache(result_entries=0)
    workload = [generated.query for generated in case.queries]
    serial = [
        [(r.root, r.cost) for r in database.query(query, n=5, method="schema")]
        for query in workload
    ]
    outcomes = [None] * len(workload)
    errors = []

    def run(index, query):
        try:
            result = database.query(query, n=5, method="schema")
            outcomes[index] = [(r.root, r.cost) for r in result]
        except BaseException as error:
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index, query))
        for index, query in enumerate(workload)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    assert outcomes == serial


#: the writer's cycle in the write-scoped run: documents without ``cd``
#: (their writes carry the cached ``cd`` answers) around one that holds it
WRITE_CYCLE = [
    "<lp><side>piano</side></lp>",
    "<cd><title>piano trio</title><artist>ravel</artist></cd>",
    "<tape><side>cello</side></tape>",
]
WRITES = 60


@pytest.mark.parametrize("stored", [False, True], ids=["memory", "stored"])
def test_write_scoped_cache_under_concurrent_writes(stored, tmp_path):
    """Readers share one result cache while a writer inserts and deletes
    documents with and without ``cd``: every answer equals the cache-off
    answer at some generation current during the read, and the writes
    without ``cd`` carried entries."""

    def build(name):
        database = Database.from_xml(*CATALOG)
        if not stored:
            return database
        path = os.path.join(tmp_path, f"{name}.apxq")
        database.save(path)
        return Database.open(path)

    def write(database, step, inserted):
        if step % 2 == 0:
            inserted.append(database.insert_document(WRITE_CYCLE[step // 2 % 3]).root)
        else:
            database.delete_document(inserted.pop())

    shapes = QUERY_SHAPES[:3]
    truth_db = build("truth")
    truth_db.set_query_cache(result_entries=0)
    truth, inserted = [], []
    for step in range(WRITES + 1):
        truth.append([
            [(r.root, r.cost) for r in truth_db.query(text, n=n, method=method)]
            for text, n, method in shapes
        ])
        if step < WRITES:
            write(truth_db, step, inserted)
    truth_db.close()

    database = build("hot")
    done = threading.Event()
    errors, wrong, reads = [], [], []

    def reader():
        try:
            while not done.is_set():
                for index, (text, n, method) in enumerate(shapes):
                    before = database.generation
                    pairs = [(r.root, r.cost) for r in database.query(text, n=n, method=method)]
                    valid = [truth[g][index] for g in range(before, database.generation + 1)]
                    if pairs not in valid:
                        wrong.append((before, text, n, method, pairs))
                    reads.append(before)
        except BaseException as error:  # surfaced by the main thread
            errors.append(error)

    def writer():
        try:
            written = []
            for step in range(WRITES):
                write(database, step, written)
                time.sleep(0.002)  # let the readers refill the cache
        except BaseException as error:
            errors.append(error)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert not wrong, wrong[:3]
    assert len(set(reads)) > WRITES // 2  # reads landed across the walk
    assert database.generation == WRITES
    assert database.query_cache_stats()["querycache.result_carried"] > 0
    database.close()
