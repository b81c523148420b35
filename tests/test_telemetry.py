"""The telemetry layer: collector semantics, reports, and the query API.

Covers the three layers of the observability redesign: the ambient
collector (`repro.telemetry.collector`), the structured report
(`repro.telemetry.report`), and the redesigned query surface —
``Database.query(collect=...)`` returning a :class:`ResultSet`,
``Database.plan``, the ``count_results`` fast path, and the CLI's
``--stats`` / ``plan`` commands.
"""

import itertools
import json

import pytest

from repro.core.cli import main as cli_main
from repro.core.database import Database
from repro.core.results import ResultSet
from repro.engine.evaluator import DirectEvaluator
from repro.errors import EvaluationError
from repro.telemetry import (
    MODES,
    QueryReport,
    Telemetry,
    collecting,
    count,
    current,
    gauge,
    timer,
)

from .driver_probe import observe

CATALOG = """
<catalog>
  <cd><title>piano concerto</title><composer>rachmaninov</composer></cd>
  <cd><title>cello sonata</title><composer>chopin</composer></cd>
  <cd><title>piano trio</title><composer>schubert</composer></cd>
</catalog>
"""


@pytest.fixture()
def db():
    return Database.from_xml(CATALOG)


class TestCollector:
    def test_helpers_are_noops_when_inactive(self):
        assert current() is None
        count("test.counter", 5)  # must not raise, must not record anywhere
        gauge("test.gauge", 7)
        with timer("test.stage"):
            pass
        assert current() is None

    def test_collecting_activates_and_restores(self):
        telemetry = Telemetry()
        with collecting(telemetry):
            assert current() is telemetry
            count("a.x")
            count("a.x", 2)
            gauge("a.level", 9)
        assert current() is None
        assert telemetry.counters == {"a.x": 3, "a.level": 9}

    def test_collectors_nest_and_none_deactivates(self):
        outer, inner = Telemetry(), Telemetry()
        with collecting(outer):
            count("n.outer")
            with collecting(inner):
                count("n.inner")
            with collecting(None):
                count("n.lost")
            count("n.outer")
        assert outer.counters == {"n.outer": 2}
        assert inner.counters == {"n.inner": 1}

    def test_timer_only_runs_when_timed(self):
        untimed, timed = Telemetry(), Telemetry(timed=True)
        with collecting(untimed):
            with timer("t.stage"):
                pass
        assert untimed.timings == {}
        with collecting(timed):
            with timer("t.stage"):
                pass
            with timer("t.stage"):
                pass
        assert set(timed.timings) == {"t.stage"}
        assert timed.timings["t.stage"] >= 0.0

    def test_activation_is_thread_local(self):
        """Two threads collecting at once must not interleave counts —
        the regression test for the process-global collector slot."""
        import threading

        barrier = threading.Barrier(2)
        collections = {}

        def work(name, amount):
            telemetry = Telemetry()
            with collecting(telemetry):
                barrier.wait()  # both threads are now actively collecting
                for _ in range(200):
                    count(f"thread.{name}", amount)
                barrier.wait()
            collections[name] = telemetry

        threads = [
            threading.Thread(target=work, args=("one", 1)),
            threading.Thread(target=work, args=("two", 10)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert collections["one"].counters == {"thread.one": 200}
        assert collections["two"].counters == {"thread.two": 2000}

    def test_worker_thread_sees_no_inherited_collector(self):
        import threading

        telemetry = Telemetry()
        seen = []
        with collecting(telemetry):
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_sections_group_by_first_segment(self):
        telemetry = Telemetry()
        telemetry.count("storage.pages_read", 4)
        telemetry.count("storage.pages_written", 1)
        telemetry.count("schema.rounds", 2)
        telemetry.count("plain")
        sections = telemetry.sections()
        assert sections["storage"] == {"pages_read": 4, "pages_written": 1}
        assert sections["schema"] == {"rounds": 2}
        assert sections["misc"] == {"plain": 1}


class TestQueryReport:
    def test_headline_metrics_and_format(self):
        telemetry = Telemetry()
        telemetry.count("index.data_postings", 10)
        telemetry.count("index.schema_postings", 3)
        telemetry.count("index.sec_postings", 2)
        telemetry.count("schema.second_level_executed", 4)
        report = QueryReport.from_telemetry(
            telemetry, query="q", method="schema", collect="counters",
            n=5, wall_seconds=0.001, results=2,
        )
        assert report.postings_decoded == 15
        assert report.second_level_queries == 4
        text = report.format()
        assert "postings decoded: 15" in text
        assert "second-level queries: 4" in text

    def test_off_mode_report_still_formats_headline(self):
        report = QueryReport.from_telemetry(
            None, query="q", method="direct", collect="off",
            n=None, wall_seconds=0.0, results=0,
        )
        text = report.format()
        assert "postings decoded: 0" in text
        assert "collection off" in text

    def test_wal_line_appears_only_when_wal_was_active(self):
        quiet = QueryReport.from_telemetry(
            Telemetry(), query="q", method="direct", collect="counters",
            n=1, wall_seconds=0.0, results=0,
        )
        assert "wal:" not in quiet.format()  # a read-only query prints none
        telemetry = Telemetry()
        telemetry.count("wal.recoveries", 1)
        report = QueryReport.from_telemetry(
            telemetry, query="q", method="direct", collect="counters",
            n=1, wall_seconds=0.0, results=0,
        )
        assert report.wal_recoveries == 1
        assert "wal: 1 recovery(ies)" in report.format()
        assert report.to_dict()["summary"]["wal_recoveries"] == 1

    def test_json_roundtrip_carries_summary(self):
        telemetry = Telemetry()
        telemetry.count("index.data_postings", 3)
        report = QueryReport.from_telemetry(
            telemetry, query="q", method="direct", collect="counters",
            n=1, wall_seconds=0.5, results=1,
        )
        payload = json.loads(report.to_json())
        assert payload["summary"]["postings_decoded"] == 3
        assert payload["method"] == "direct"


class TestResultSet:
    def test_compares_equal_to_plain_list(self, db):
        results = db.query('cd[title["piano"]]', n=5)
        assert isinstance(results, ResultSet)
        assert results == list(results)
        assert list(results) == results
        assert results[:1] == list(results)[:1]

    def test_report_method_costs(self, db):
        # The planner routes this tiny collection (3 candidate roots,
        # n=5) to the direct scan -- see TestPlan for the cost model.
        results = db.query('cd[title["piano"]]', n=5, collect="counters")
        assert results.method == results.report.method == "direct"
        assert results.costs == [r.cost for r in results]
        assert results.report.results == len(results)

    def test_bare_resultset_has_no_method(self):
        assert ResultSet().method is None


class TestQueryCollect:
    def test_off_is_default_and_attaches_report(self, db):
        results = db.query('cd[title["piano"]]', n=5)
        assert results.report is not None
        assert results.report.collect == "off"
        assert results.report.counters == {}

    def test_counters_mode_collects_counters_not_timings(self, db):
        results = db.query('cd[title["piano"]]', n=5, collect="counters")
        assert results.report.counters
        assert results.report.timings == {}
        assert results.report.postings_decoded > 0

    def test_timings_mode_collects_stage_timings(self, db):
        results = db.query('cd[title["piano"]]', n=5, method="schema", collect="timings")
        assert results.report.counters
        assert "schema.topk" in results.report.timings
        # one result-cache entry serves both methods: the direct read
        # must evaluate, not be served what the schema read cached
        db.set_query_cache(result_entries=0)
        direct = db.query('cd[title["piano"]]', n=5, method="direct", collect="timings")
        assert "direct.primary" in direct.report.timings

    def test_unknown_collect_mode_rejected(self, db):
        with pytest.raises(EvaluationError, match="collect"):
            db.query("cd", collect="everything")
        assert "off" in MODES and "counters" in MODES and "timings" in MODES

    def test_consecutive_queries_get_independent_reports(self, db):
        first = db.query('cd[title["piano"]]', n=5, collect="counters")
        second = db.query("cd", n=5, collect="counters")
        assert first.report.counters is not second.report.counters
        assert first.report.query != second.report.query


class TestStream:
    def test_stream_report_grows_as_pulled(self, db):
        stream = db.stream('cd[title["piano"]]', collect="counters")
        assert stream.report.results == 0
        first = next(iter(stream))
        assert first.cost >= 0
        assert stream.report.results == 1
        assert stream.report.postings_decoded > 0
        rest = list(itertools.islice(stream, 10))
        assert stream.report.results == 1 + len(rest)

    def test_interleaved_streams_do_not_bleed_counts(self, db):
        left = db.stream('cd[title["piano"]]', collect="counters")
        right = db.stream("cd", collect="counters")
        next(iter(left))
        baseline = dict(right.report.counters)
        next(iter(left))  # pull left again; right must not move
        assert dict(right.report.counters) == baseline


class TestPlan:
    def test_auto_picks_direct_when_candidates_fit_in_n(self, db):
        # The old static rule sent every best-n query to the schema
        # method; the cost-based planner sees only 3 candidate roots
        # for n=5 and flips to the direct scan, citing statistics.
        plan = db.plan('cd[title["piano"]]', n=5)
        assert plan.method == "direct"
        assert "statistics" in plan.reason
        assert plan.requested == "auto"
        assert plan.root_label == "cd"
        assert plan.selectors >= 3
        assert plan.conjunctive_queries == 1
        assert plan.estimates is not None
        assert plan.estimates.candidate_roots <= 5
        assert "candidate roots" in plan.format(verbose=True)

    def test_auto_picks_schema_for_selective_best_n(self):
        # Enough candidate roots that the best-n driver beats a full
        # direct scan: the planner keeps the schema method.
        docs = "".join(
            f"<cd><title>album {i}</title><artist>band {i}</artist></cd>"
            for i in range(40)
        )
        big = Database.from_xml(f"<catalog>{docs}</catalog>")
        plan = big.plan('cd[title["album"]]', n=5)
        assert plan.method == "schema"
        assert plan.estimates is not None
        assert plan.estimates.candidate_roots > 5
        assert plan.estimates.schema_cost is not None

    def test_auto_picks_direct_for_full_retrieval(self, db):
        plan = db.plan("cd", n=None)
        assert plan.method == "direct"
        assert "full retrieval" in plan.reason

    def test_explicit_method_is_respected(self, db):
        plan = db.plan("cd", n=5, method="direct")
        assert plan.method == "direct"
        assert "explicit" in plan.reason

    def test_or_decisions_multiply_conjunctive_queries(self, db):
        plan = db.plan('cd[title["piano" or "cello"]]', n=5)
        assert plan.or_decisions == 1
        assert plan.conjunctive_queries == 2

    def test_plan_matches_executed_method(self, db):
        for n in (5, None):
            plan = db.plan("cd", n=n)
            results = db.query("cd", n=n, collect="counters")
            assert plan.method == results.method


class TestCountFastPath:
    def test_count_results_matches_full_retrieval(self, db):
        for text in ("cd", 'cd[title["piano"]]', 'cd[title["piano" or "cello"]]'):
            expected = len(db.query(text, n=None, method="direct"))
            assert db.count_results(text) == expected

    def test_evaluator_count_skips_materialization(self, db):
        evaluator = DirectEvaluator(db.tree)
        total, counters = observe(evaluator, 'cd[title["piano"]]', method="count")
        assert total == len(evaluator.evaluate('cd[title["piano"]]'))
        assert counters["direct.results_total"] == total

    def test_count_respects_max_cost(self, db):
        evaluator = DirectEvaluator(db.tree)
        all_results = evaluator.evaluate('cd[title["piano"]]')
        bound = min(r.cost for r in all_results)
        counted = evaluator.count('cd[title["piano"]]', max_cost=bound)
        assert counted == sum(1 for r in all_results if r.cost <= bound)


class TestCli:
    @pytest.fixture()
    def catalog_file(self, tmp_path):
        path = tmp_path / "catalog.xml"
        path.write_text(CATALOG, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("method", ["direct", "schema"])
    def test_query_stats_prints_per_stage_breakdown(self, method, catalog_file, capsys):
        code = cli_main(
            ["query", catalog_file, 'cd[title["piano"]]', "--stats", "--method", method]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "postings decoded:" in output
        assert "second-level queries:" in output
        assert f"({method})" in output

    def test_query_stats_on_stored_database_counts_pages(self, catalog_file, tmp_path, capsys):
        db_path = str(tmp_path / "catalog.apxq")
        assert cli_main(["build", db_path, catalog_file]) == 0
        capsys.readouterr()
        assert cli_main(["query", db_path, 'cd[title["piano"]]', "--stats"]) == 0
        output = capsys.readouterr().out
        # the stored handle answers from the tree it loaded: the query
        # touches the store not at all
        assert "result(s)" in output
        assert "  storage:" not in output
        assert "wal:" not in output

    def test_plan_command(self, catalog_file, capsys):
        assert cli_main(["plan", catalog_file, 'cd[title["piano"]]', "-n", "5"]) == 0
        output = capsys.readouterr().out
        assert "method: direct" in output
        assert "statistics" in output
        assert cli_main(["plan", catalog_file, "cd", "-n", "0"]) == 0
        assert "method: direct" in capsys.readouterr().out

    def test_plan_command_verbose_prints_estimates(self, catalog_file, capsys):
        assert (
            cli_main(
                ["plan", catalog_file, 'cd[title["piano"]]', "-n", "5", "--verbose"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "estimates" in output
        assert "candidate roots" in output
        assert "closure width" in output
        assert "schedule" not in output
