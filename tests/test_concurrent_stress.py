"""Concurrency stress: one stored Database, many threads, one answer set.

The harness fires a deterministic task list of mixed queries (both
algorithms, several shapes, several n) from worker threads against a
single opened :class:`~repro.core.database.Database`, while a writer
thread keeps rewriting a stored posting with identical bytes — every
write bumps the store generation and so forces posting-cache
invalidation without changing any query's answer.  Every task's result
list must be identical to the serial run of the same task list, and
every task's QueryReport must describe that task (right query text,
right result count) — a cross-attributed or lost collection fails the
run even when the results survive.
"""

import threading

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
    two identical queries must show up as a posting-cache invalidation in
    the second query's report — and change nothing else.  Direct: only
    node postings go through the posting cache (``I_sec`` is the
    schema's instance columns)."""
    text, n, _ = QUERY_SHAPES[0]
    method = "direct"
    before = stored_database.query(text, n=n, method=method, collect="counters")
    _rewrite_same_bytes(stored_database._store)
    after = stored_database.query(text, n=n, method=method, collect="counters")
    assert [(r.root, r.cost) for r in after] == [(r.root, r.cost) for r in before]
    assert after.report.counters.get("cache.posting_invalidations", 0) >= 1


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
