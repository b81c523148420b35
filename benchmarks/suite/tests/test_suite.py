"""Self-test of the benchmark suite at the seconds-long ``--smoke`` size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite/tests`` (the
repo's ``benchmarks/conftest.py`` imports ``repro``).
"""

import functools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from apxbench import measure, report, spec  # noqa: E402
from apxbench.tracing import TRACE_POINTS, TracePoint  # noqa: E402

WORKLOADS = list(spec.WORKLOADS)
SINGLE_CALLER = [name for name in WORKLOADS if name != "serve-zipf"]


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: bool, repetition: int = 0) -> dict:
    return measure.run(workload, 7, 0.2, trace, smoke=True, setup_reps=1)


def test_benchmark_json_matches_the_metric_tables():
    declared = report.load_benchmark_json()
    assert declared["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in declared["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == (
        spec.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == spec.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in declared["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_every_declared_metric_is_printed(workload, trace):
    declared = report.load_benchmark_json()["per_layer" if trace else "end_to_end"]
    record = smoke_run(workload, trace)
    line = json.loads(report.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        value = line["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in declared)
    printed = report.format_record(record)
    assert all(metric["name"] in printed for metric in declared)


@pytest.mark.parametrize("workload", SINGLE_CALLER)
def test_counts_repeat_exactly(workload):
    first = smoke_run(workload, True, 0)
    second = smoke_run(workload, True, 1)
    assert first is not second
    assert first["attempted"] == second["attempted"]
    for name, unit, _ in spec.PER_LAYER:
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["detail"]["counters"] == second["detail"]["counters"]


def test_layer_split_follows_the_design():
    direct = smoke_run("fig7-direct", True)["detail"]["layer_share"]
    schema = smoke_run("fig7-schema", True)["detail"]["layer_share"]
    assert direct["engine"] + direct["xmltree"] > 0.5 > direct.get("schema", 0.0)
    assert schema["schema"] > 0.5 > schema.get("engine", 0.0) + schema.get("xmltree", 0.0)
    for workload in WORKLOADS:
        assert smoke_run(workload, True)["metrics"]["trace.coverage_ratio"] >= 0.95


def test_a_corrupted_answer_raises_failed_share():
    def drop_one(pairs):
        return pairs[:-1] if pairs else [(1, 0.0)]

    record = measure.run("fig7-direct", 7, 0.2, False, smoke=True, setup_reps=1, corrupt=drop_one)
    assert record["failed"] > 0
    assert record["metrics"]["failed_share"] > 0
    assert not json.loads(report.contract_line(record))["correct"]


def test_a_one_off_stall_stays_in_the_percentiles_and_out_of_the_mean():
    from apxbench.workloads import Recorder, StoredChurn

    recorder = Recorder()
    for pass_no in range(3):
        for op in range(10):
            stalled = op == pass_no  # a different operation in every pass
            recorder.reads.append(0.5 if stalled else 0.001)
            recorder.read_keys.append(("q", op))
            recorder.writes.append(0.5 if stalled else 0.01)
            recorder.write_keys.append(("insert", op))
        recorder.attempted += 20
        recorder.end_pass(recorder.latency_total)
    metrics = measure.end_to_end(recorder, StoredChurn, 1.0, {"peak_rss_mb": 1.0})
    assert metrics["write_p95_ms"] == metrics["query_p95_ms"] == 500.0
    assert metrics["write_p50_ms"] == 10.0
    assert metrics["query_mean_ms"] == pytest.approx(1.0)
    assert metrics["queries_per_s"] == pytest.approx(30 / recorder.wall)


def test_a_removed_trace_target_yields_null_not_an_exception():
    points = [
        TracePoint(point.span, "repro.schema:SecondaryExecutor.no_such_method")
        if point.span == "schema.secondary"
        else point
        for point in TRACE_POINTS
    ]
    with pytest.warns(UserWarning, match="schema.secondary"):
        record = measure.run(
            "fig7-schema", 7, 0.2, True, smoke=True, setup_reps=1, trace_points=points
        )
    assert record["metrics"]["schema.secondary.self_ms"] is None
    assert record["metrics"]["schema.topk.self_ms"] > 0
    assert record["failed"] == 0
    baseline = smoke_run("fig7-schema", True)
    assert record["attempted"] == baseline["attempted"]
    line = json.loads(report.contract_line(record))
    assert line["metrics"]["schema.secondary.self_ms"]["value"] == 0
    assert "n/a" in report.format_record(record)


def test_compare_flags_a_regression(tmp_path):
    record = smoke_run("fig7-direct", False)
    slower = json.loads(json.dumps(record))
    slower["metrics"]["query_mean_ms"] *= 1.5
    for name, runs in (("a.json", [record] * 3), ("b.json", [slower] * 3)):
        (tmp_path / name).write_text(json.dumps({"runs": runs}))
    table, worse = report.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json"))
    assert worse == 1
    assert "worse" in table and "ok" in table
    assert report.compare(str(tmp_path / "a.json"), str(tmp_path / "a.json"))[1] == 0
