"""One query pipeline, four kinds of handle.

A memory :class:`~repro.core.database.Database`, a stored one, a pinned
:class:`~repro.core.database.Snapshot` and a 2-shard
:class:`~repro.shard.ShardedDatabase` all answer through
:class:`~repro.core.pipeline.QueryPipeline`.  These tests pin what that
buys: the same typed errors for the same bad input from every
query-shaped entry point, the same plan for the same data, one plan memo,
and one report assembler.
"""

import pytest

from repro.approxql.costs import CostModel
from repro.core.database import Database
from repro.core.pipeline import QueryPlan
from repro.core.results import ResultSet
from repro.errors import EvaluationError, QuerySyntaxError
from repro.planner.cost import Planner
from repro.server import QueryServer
from repro.shard import ShardedDatabase
from repro.xmltree import subtree_to_xml

from .strategies import generated_case

DOCUMENTS = [
    "<catalog><cd><title>piano concerto</title><composer>rachmaninov</composer></cd>"
    "<cd><title>cello sonata</title><composer>chopin</composer></cd></catalog>",
    "<shop><cd><title>etudes</title><composer>chopin</composer></cd></shop>",
    "<library><book><title>piano technique</title><author>neuhaus</author></book>"
    "<book><title>on conducting</title><author>wagner</author></book></library>",
]
QUERY = 'cd[title["piano"]]'
KINDS = ("memory", "stored", "snapshot", "sharded")


def _open(kind, tmp_path, documents=DOCUMENTS):
    """``(handle, close)`` for one kind of handle over ``documents``."""
    if kind == "sharded":
        handle = ShardedDatabase.from_documents(documents, shards=2)
        return handle, handle.close
    if kind == "stored-sharded":
        directory = str(tmp_path / "sharded.d")
        ShardedDatabase.from_documents(documents, shards=2).save(directory)
        handle = ShardedDatabase.open(directory)
        return handle, handle.close
    database = Database.from_documents(documents)
    if kind != "memory":
        path = str(tmp_path / f"{kind}.apxq")
        database.save(path)
        database = Database.open(path)
    if kind != "snapshot":
        return database, database.close
    snapshot = database.snapshot()

    def close():
        snapshot.close()
        database.close()

    return snapshot, close


@pytest.fixture(params=KINDS)
def handle(request, tmp_path):
    opened, close = _open(request.param, tmp_path)
    yield opened
    close()


@pytest.fixture()
def choose_calls(monkeypatch):
    """Counts every :meth:`Planner.choose` call while the test runs."""
    calls = []
    original = Planner.choose

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Planner, "choose", counting)
    return calls


def _entry_points(handle):
    """name -> (callable taking the query text and keywords, the
    keywords it accepts among method / collect)."""
    points = {
        "query": (handle.query, {"method", "collect"}),
        "stream": (handle.stream, {"collect"}),
        "count_results": (handle.count_results, set()),
        "explain": (handle.explain, set()),
        "plan": (handle.plan, {"method"}),
    }
    if hasattr(handle, "query_many"):
        points["query_many"] = (
            lambda text, **keywords: handle.query_many([text, "title"], **keywords),
            {"method", "collect"},
        )
    return points


BAD = {
    "method": ("magic", EvaluationError, "unknown method 'magic'"),
    "collect": ("everything", EvaluationError, "unknown collect mode 'everything'"),
}


def test_bad_arguments_raise_the_same_typed_error_everywhere(handle, choose_calls):
    for name, (call, accepted) in _entry_points(handle).items():
        for keyword in sorted(accepted):
            value, error, message = BAD[keyword]
            with pytest.raises(error) as raised:
                call(QUERY, **{keyword: value})
            assert message in str(raised.value), (name, keyword)
        with pytest.raises(QuerySyntaxError) as raised:
            call("cd[[")
        assert "expected a selector" in str(raised.value), name
    # every check ran before any work: nothing was ever planned
    assert choose_calls == []


@pytest.mark.parametrize("n", [-1, -10, 2.5, "3", True])
def test_n_must_be_none_or_a_non_negative_int_everywhere(handle, choose_calls, n):
    """A negative ``n`` used to truncate silently (all but the last
    result, ``[]``, or half the shards' answers, depending on the handle
    and the method); every entry point that takes ``n`` now refuses
    anything but ``None`` or an int >= 0 before any work."""
    calls = {
        "query": lambda: handle.query(QUERY, n=n),
        "query(direct)": lambda: handle.query(QUERY, n=n, method="direct"),
        "query(schema)": lambda: handle.query(QUERY, n=n, method="schema"),
        "plan": lambda: handle.plan(QUERY, n=n),
        "explain": lambda: handle.explain(QUERY, n=n),
    }
    if hasattr(handle, "query_many"):
        calls["query_many"] = lambda: handle.query_many([QUERY, "title"], n=n)
    for name, call in calls.items():
        with pytest.raises(EvaluationError, match="n must be an integer >= 0"):
            call()
        assert choose_calls == [], name
    assert handle.query(QUERY, n=0) == []
    assert handle.explain(QUERY, n=0) == []


def test_query_takes_no_worker_options(handle):
    """One query, one thread: no entry point takes a worker count or a
    worker kind."""
    refused = [
        lambda: handle.query(QUERY, executor="thread"),
        lambda: handle.query(QUERY, jobs=2),
        lambda: QueryServer(handle, jobs=2),
        lambda: QueryServer(handle, executor="thread"),
        lambda: QueryServer(handle, batch_max=4),
    ]
    if hasattr(handle, "query_many"):  # a snapshot serves no batches
        refused += [
            lambda: handle.query_many([QUERY, "title"], jobs=2),
            lambda: handle.query_many([QUERY, "title"], executor="thread"),
        ]
    # nor a k schedule: it is the schema driver's own policy, and every
    # handle streams with ``stream(text, costs, collect)``
    refused += [
        lambda: handle.stream(QUERY, initial_k=4),
        lambda: handle.stream(QUERY, delta=4),
    ]
    for call in refused:
        with pytest.raises(TypeError):
            call()


def _n_zero_requests():
    """A collection plus two requests on which ``auto`` picks the schema
    driver for n = 0: its estimate is the fixed overhead alone."""
    case = generated_case(0, num_elements=100)
    documents = [subtree_to_xml(case.tree, root) for root in case.tree.document_roots()]
    first = case.queries[0]
    return documents, [('e7[e1["t2"]]', None), (first.query, first.costs)]


@pytest.mark.parametrize("kind", KINDS)
def test_n_zero_under_auto_is_empty(kind, tmp_path):
    """``auto`` once sized the schema driver's first round as k = n = 0,
    and best-0 failed with "delta must be positive" wherever it picked
    schema; best-0 is the empty answer from every handle and path."""
    documents, requests = _n_zero_requests()
    handle, close = _open(kind, tmp_path, documents)
    try:
        for query, costs in requests:
            assert handle.plan(query, n=0, costs=costs).method == "schema"
            assert list(handle.query(query, n=0, costs=costs)) == []
        if hasattr(handle, "query_many"):
            assert [list(r) for r in handle.query_many(requests, n=0)] == [[], []]
    finally:
        close()


@pytest.mark.parametrize("kind", ["memory", "stored", "sharded"])
def test_query_many_looks_each_item_up_once(kind, tmp_path):
    """A batch serves every item from the compiled query it resolved to:
    a cold batch of two new queries is two compiled-cache misses and no
    hit, on each report and in the lifetime counters; the same batch
    again is one hit per item."""
    handle, close = _open(kind, tmp_path)
    try:
        def lifetime():
            stats = handle.query_cache_stats()
            return stats["querycache.compiled_hits"], stats["querycache.compiled_misses"]

        hits, misses = lifetime()
        cold = handle.query_many([QUERY, "title"], collect="counters")
        assert [r.report.compiled_cache_hit for r in cold] == [False, False]
        assert [r.report.counters["querycache.compiled_misses"] for r in cold] == [1, 1]
        assert lifetime() == (hits, misses + 2)
        hot = handle.query_many([QUERY, "title"], collect="counters")
        assert [r.report.compiled_cache_hit for r in hot] == [True, True]
        assert lifetime() == (hits + 2, misses + 2)
    finally:
        close()


def test_plan_is_the_same_for_the_same_data(handle, tmp_path):
    reference, close = _open("memory", tmp_path)
    try:
        for n in (None, 1, 10):
            for method in ("auto", "direct", "schema"):
                assert handle.plan(QUERY, n=n, method=method) == reference.plan(
                    QUERY, n=n, method=method
                )
    finally:
        close()


def test_one_planner_call_serves_plan_and_query(handle, choose_calls):
    handle.plan(QUERY, n=3)
    assert len(choose_calls) == 1
    handle.plan(QUERY, n=3)
    handle.query(QUERY, n=3)
    handle.query(QUERY, n=3)
    assert len(choose_calls) == 1


def _cache_counters(report):
    """The ``querycache.*`` names this level of the pipeline reported
    (a shard's own cache activity is kept apart under ``shard_``)."""
    return {
        name
        for name in report.counters
        if name.startswith("querycache.") and not name.startswith("querycache.shard_")
    }


def _cache_paths(handle):
    """Counter-name sets on the cold, compiled-hit and result-hit paths."""
    cold = handle.query(QUERY, n=3, collect="counters").report
    # same text, another result-cache key: compiled hit, result miss
    compiled_hit = handle.query(QUERY, n=3, max_cost=50, collect="counters").report
    result_hit = handle.query(QUERY, n=3, collect="counters").report
    assert not cold.result_cache_hit and not compiled_hit.result_cache_hit
    assert result_hit.result_cache_hit
    return [_cache_counters(report) for report in (cold, compiled_hit, result_hit)]


def test_cache_counters_are_the_same_on_every_path(handle, tmp_path):
    reference, close = _open("memory", tmp_path)
    try:
        assert _cache_paths(handle) == _cache_paths(reference)
    finally:
        close()


@pytest.mark.parametrize("kind", ["memory", "stored", "sharded"])
def test_disabled_compiled_cache_reports_no_compiled_counters(kind, tmp_path):
    handle, close = _open(kind, tmp_path)
    try:
        handle.set_query_cache(compiled_entries=0)
        for counters in _cache_paths(handle):
            assert not {name for name in counters if "compiled" in name}
    finally:
        close()


def _outcome(value):
    """What an entry point answered, comparable across handle kinds."""
    if isinstance(value, int):
        return value
    if isinstance(value, QueryPlan):
        return value.method
    value = list(value)
    if value and isinstance(value[0], ResultSet):
        return [_outcome(results) for results in value]
    return [(result.root, result.cost) for result in value]


@pytest.mark.parametrize("kind", ["stored", "snapshot", "stored-sharded"])
def test_foreign_insert_costs_answer_as_in_memory(kind, tmp_path):
    """Insert costs are not baked into a store: every entry point of a
    stored handle prices a foreign insert-cost table exactly as the
    memory handle does, and the default table still answers as before."""
    handle, close = _open(kind, tmp_path)
    reference, close_reference = _open("memory", tmp_path)
    foreign = CostModel(default_insert_cost=7).set_insert_cost("cd", 2.5)
    try:
        expected = _entry_points(reference)
        for name, (call, _) in _entry_points(handle).items():
            got = _outcome(call("catalog[title]", costs=foreign))
            assert got == _outcome(expected[name][0]("catalog[title]", costs=foreign)), name
        assert _outcome(handle.query("catalog[title]", costs=foreign))[0][1] == 2.5
        assert handle.query(QUERY, costs=CostModel()) == handle.query(QUERY)
    finally:
        close()
        close_reference()


def test_sharded_report_carries_the_fanout_family_in_every_collect_mode():
    """``shard.*`` describes the scatter itself, not collected engine
    work: it is on the report with ``collect="off"`` too, and absent
    when the merge-level cache served (no scatter ran)."""
    with ShardedDatabase.from_documents(DOCUMENTS, shards=2) as handle:
        for collect in ("off", "counters"):
            report = handle.query(QUERY, n=3, method="direct", collect=collect).report
            assert report.counters["shard.fanout"] == 2
            assert report.counters["shard.results_merged"] == report.results
            handle.set_query_cache(result_entries=0)
        handle.set_query_cache(result_entries=8)
        handle.query(QUERY, n=3)
        assert handle.query(QUERY, n=3).report.counters == {}


def test_stream_builds_its_evaluator_on_the_first_pull():
    """Opening a stream does no evaluation work: a memory database's
    lazy schema build happens on the first pull, inside the stream's own
    report."""
    with Database.from_documents(DOCUMENTS) as database:
        state = database._state
        stream = database.stream(QUERY, collect="counters")
        assert state.schema_evaluator is None
        first = next(stream)
        assert state.schema_evaluator is not None
        assert first.root in {r.root for r in database.query(QUERY, n=None)}
        stream.close()


#: generated cases whose answers tie at a best-n cut (seed 3: best-1 of
#: its first query cuts a class of equal-cost roots), so an order that
#: broke ties any other way than by root would show
ORDER_SEEDS = (3, 4)
ORDER_METHODS = ("direct", "schema", "auto")
ORDER_NS = (0, 1, 2, 3, None)


@pytest.mark.parametrize("n", ORDER_NS)
@pytest.mark.parametrize("method", ORDER_METHODS)
@pytest.mark.parametrize("kind", KINDS)
def test_every_handle_and_method_answers_in_one_order(kind, method, n, tmp_path):
    """Both algorithms answer in (cost, root) order, so every handle
    under every method returns the same ``[(root, cost)]`` list: the
    first ``n`` of a memory database's direct full retrieval (without the
    super-root, which a sharded handle never returns)."""
    for seed in ORDER_SEEDS:
        case = generated_case(seed, num_elements=60)
        documents = [subtree_to_xml(case.tree, root) for root in case.tree.document_roots()]
        reference = Database.from_documents(documents)
        (tmp_path / str(seed)).mkdir()
        handle, close = _open(kind, tmp_path / str(seed), documents)
        try:
            for generated in case.queries:
                expected = [
                    (result.root, result.cost)
                    for result in reference.query(
                        generated.query, n=None, costs=generated.costs, method="direct"
                    )
                    if kind != "sharded" or result.root != 0
                ]
                got = handle.query(generated.query, n=n, costs=generated.costs, method=method)
                assert [(r.root, r.cost) for r in got] == expected[:n], case.describe()
        finally:
            close()
