"""One measured run of one workload.

Untraced run (``trace=False``): set the program up ``SETUP_REPS`` times
cold (``setup_s`` is the median), warm it up once, run whole timed passes
for at least ``seconds``, check every answer, and report the end-to-end
metrics.

Traced run (``trace=True``): set up once, run one untraced pass, then one
pass with ``collect="counters"`` and the span wrappers of
:mod:`apxbench.tracing` installed, plus the direct timed calls of
:mod:`apxbench.micro`, and report the per-layer metrics.  End-to-end
metrics never come from the traced run.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time
import warnings

from . import RESULTS_DIR, micro, spec
from .oracle import prepare
from .tracing import Tracer, adopt_orphans
from .workloads import WORKLOAD_CLASSES, Recorder, in_child


#: a run repeats its pass at least this often, however long a pass takes:
#: with two repeats the fast side of a noisy operation is a coin toss
MIN_PASSES = 3
#: cold set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))  # ceil without float error
    return ordered[int(rank) - 1]


def pass_means(recorder: Recorder) -> list:
    """Mean read latency (seconds) of every finished pass on its own."""
    starts = [0] + [mark[0] for mark in recorder.marks[:-1]]
    return [
        statistics.fmean(recorder.reads[start:mark[0]])
        for start, mark in zip(starts, recorder.marks)
    ]


def query_mean(recorder: Recorder, fast: float) -> float:
    """Mean read latency (seconds) with the repeats reduced on the fast side.

    Every pass performs the same operations, so a run measures everything
    several times, and interference on a shared machine only ever adds
    time, in bursts that last from one operation to a minute.  Each
    operation is therefore reduced over the passes at the workload's
    ``repeat_quantile`` (nearest rank: the fastest repeat where a read's
    cost does not depend on what ran before it, the second fastest of three
    to five where it does), and the mean runs over the operations.  The
    reads of ``serve-zipf`` are draws, not a fixed list: there the passes'
    means are reduced instead.
    """
    if recorder.read_keys[0] is None:
        return percentile(pass_means(recorder), fast)
    by_operation: dict = {}
    for key, seconds in zip(recorder.read_keys, recorder.reads):
        by_operation.setdefault(key, []).append(seconds)
    return statistics.fmean(percentile(samples, fast) for samples in by_operation.values())


def end_to_end(recorder: Recorder, workload, setup_s: float, detail: dict) -> dict:
    """The end-to-end metrics (``None`` = does not apply to this workload).

    Only the mean is reduced over the repeats (:func:`query_mean`).  The
    percentiles and the rate are taken over the pooled raw samples of all
    timed passes: a checkpoint stall or an invalidation storm lands on a
    different operation in every shuffled pass, and must stay visible.
    """
    reads, writes = recorder.reads, recorder.writes
    return {
        "setup_s": setup_s,
        "query_mean_ms": query_mean(recorder, workload.repeat_quantile) * 1e3,
        "query_p50_ms": percentile(reads, 0.50) * 1e3,
        "query_p95_ms": percentile(reads, 0.95) * 1e3,
        "queries_per_s": len(reads) / recorder.wall,
        "write_p50_ms": percentile(writes, 0.50) * 1e3 if writes else None,
        "write_p95_ms": percentile(writes, 0.95) * 1e3 if writes else None,
        "peak_rss_mb": detail["peak_rss_mb"],
        "store_bytes_per_user_byte": detail.get("store_bytes_per_user_byte"),
        "failed_share": recorder.failed / recorder.attempted,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload, plain: Recorder, traced: Recorder, tracer: Tracer,
              spans: list, cache_delta: dict, extras: dict) -> "tuple[dict, dict]":
    """The per-layer metrics of the traced pass, and the detail (layer
    shares, sample counts) that explains them."""
    totals = tracer.totals()
    # innermost first: pool workers belong to the batch they served, the
    # batch to the client request that waited for it
    for parent in ("shard.query_many", "server.request"):
        adopted = adopt_orphans(spans, parent)
        if parent in totals:
            totals[parent][0] -= adopted
    ops = max(1, traced.attempted)
    reads = max(1, len(traced.reads))
    counters = traced.counters

    def self_ms(*names):
        if any(name in tracer.missing for name in names):
            return None
        return sum(totals.get(name, (0.0,))[0] for name in names) / ops * 1e3

    def per_op(name):
        return counters.get(name, 0) / ops

    def gauge(name):
        values = traced.gauges.get(name)
        return statistics.fmean(values) if values else 0.0

    def hit_ratio(prefix, source):
        return _ratio(
            source.get(prefix + "hits", 0),
            source.get(prefix + "hits", 0) + source.get(prefix + "misses", 0),
        )

    def p50_ms(values):
        return percentile(values, 0.5) * 1e3 if values else None

    def writes_of(kind):
        return [s for s, key in zip(traced.writes, traced.write_keys) if key[0] == kind]

    cells: dict = {}
    for seconds, key in zip(plain.reads, plain.read_keys):
        if key is not None:
            cells.setdefault(key[0], []).append(seconds)

    btree_gets = totals.get("storage.btree.get", (0, 0, 0))[2]
    metrics = {
        "planner.schema_share": traced.methods.get("schema", 0) / reads,
        "planner.optimal_choice_share": None,
        "planner.regret_ratio": None,
        "querycache.compiled_hit_ratio": hit_ratio("querycache.compiled_", cache_delta),
        "querycache.result_hit_ratio": hit_ratio("querycache.result_", cache_delta),
        "querycache.result_invalidations": cache_delta.get("querycache.result_invalidations", 0) / ops,
        "querycache.resumed_rounds": cache_delta.get("querycache.resumed_rounds", 0) / ops,
        "engine.evaluate.self_ms": self_ms("engine.evaluate"),
        "engine.postings_fetched": per_op("direct.postings_fetched"),
        "engine.lists_materialized": per_op("direct.lists_materialized"),
        "engine.memo_hit_ratio": _ratio(
            counters.get("direct.memo_hits", 0),
            counters.get("direct.memo_hits", 0) + counters.get("direct.lists_materialized", 0),
        ),
        "schema.evaluate.self_ms": self_ms("schema.evaluate"),
        "schema.topk.self_ms": self_ms("schema.topk"),
        "schema.secondary.self_ms": self_ms("schema.secondary"),
        "schema.rounds": per_op("schema.rounds"),
        "schema.final_k": gauge("schema.final_k"),
        "schema.skeletons_enumerated": gauge("schema.skeletons_enumerated"),
        "schema.second_level_executed": per_op("schema.second_level_executed"),
        "schema.second_level_useful_ratio": _ratio(
            counters.get("schema.second_level_nonempty", 0),
            counters.get("schema.second_level_executed", 0),
        ),
        "schema.kdoubling_restarts": per_op("schema.kdoubling_restarts"),
        "schema.sec_postings": per_op("index.sec_postings"),
        "xmltree.index.fetch.self_ms": self_ms("xmltree.index.fetch"),
        "xmltree.index.fetches": per_op("index.data_fetches"),
        "xmltree.index.postings": per_op("index.data_postings"),
        "storage.pages_read": per_op("storage.pages_read"),
        "storage.pages_written": per_op("storage.pages_written"),
        "storage.page_hit_ratio": hit_ratio("cache.page_", counters),
        "storage.posting_hit_ratio": hit_ratio("cache.posting_", counters),
        "storage.btree.node_visits_per_get": (
            None
            if "storage.btree.get" in tracer.missing
            else _ratio(counters.get("btree.node_visits", 0), btree_gets)
        ),
        "storage.kv.get.self_ms": self_ms("storage.kv.get"),
        "storage.codec.entries_decoded": per_op("codec.entries_decoded"),
        "storage.wal.bytes_per_user_byte": _ratio(
            counters.get("wal.bytes_logged", 0), traced.user_bytes_written
        ),
        "storage.wal.commits": per_op("wal.commits"),
        "storage.wal.checkpoints": per_op("wal.checkpoints"),
        "storage.wal.checkpoint_stall_max_ms": traced.stall_max * 1e3,
        "core.query.self_ms": self_ms("core.query"),
        "core.materialize.ms": (extras.get("materialize_s") or 0.0) * 1e3,
        "core.insert.p50_ms": p50_ms(writes_of("insert")),
        "core.delete.p50_ms": p50_ms(writes_of("delete")),
        "core.replace.p50_ms": p50_ms(writes_of("replace")),
        "core.mutation.keys_rewritten_per_op": (
            statistics.fmean(traced.keys_rewritten) if traced.keys_rewritten else None
        ),
        "core.save.s": workload.phases.get("save_s"),
        "core.open.s": workload.phases.get("open_s"),
        "core.first_query_ms": workload.phases.get("first_query_ms"),
        "shard.query.self_ms": self_ms("shard.query", "shard.query_many"),
        "shard.fanout": per_op("shard.fanout"),
        "shard.skew_ratio": _skew(spans),
        "server.ping.p50_ms": p50_ms(extras.get("pings")),
        "server.overhead.p50_ms": _server_overhead(spans),
        "server.mean_batch_size": None,
        "server.rejections": None,
        "trace.overhead_ratio": _ratio(
            statistics.fmean(traced.reads), statistics.fmean(plain.reads)
        ),
        "trace.coverage_ratio": _ratio(
            sum(total[0] for total in totals.values()), traced.latency_total
        ),
    }
    if "server.batches" in cache_delta:
        metrics["server.mean_batch_size"] = _ratio(
            cache_delta["server.batched_requests"], cache_delta["server.batches"]
        )
        metrics["server.rejections"] = cache_delta["server.rejections"] / ops
    for cell in spec.FIG7_CELLS:
        samples = cells.get(spec.cell_name(cell))
        metrics[f"fig7.{spec.cell_name(cell)}.mean_ms"] = (
            statistics.fmean(samples) * 1e3 if samples else None
        )
    metrics.update(extras.get("metrics", {}))

    layers: dict = {}
    for name, (self_seconds, _, _) in totals.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_seconds
    traced_seconds = sum(layers.values()) or 1.0
    detail = {
        "layer_share": {layer: seconds / traced_seconds for layer, seconds in sorted(layers.items())},
        "span_self_ms_per_op": {
            name: total[0] / ops * 1e3 for name, total in sorted(totals.items())
        },
        "span_counts": {name: total[2] for name, total in sorted(totals.items())},
        "missing_trace_targets": sorted(tracer.missing),
        "traced_ops": traced.attempted,
        "counters": dict(sorted(counters.items())),
    }
    return metrics, detail


def _skew(spans: list) -> "float | None":
    """Mean over fanned-out queries of slowest / mean per-shard time (the
    ``core.query`` children of a ``shard.query`` span, grouped by shard)."""
    per_parent: dict = {}
    for span in spans:
        if span["name"] == "core.query" and span["parent"] >= 0 and span["label"] is not None:
            parent = spans[span["parent"]]
            if parent["name"] == "shard.query":
                shards = per_parent.setdefault(span["parent"], {})
                shards[span["label"]] = shards.get(span["label"], 0.0) + span["end"] - span["start"]
    ratios = [
        max(shards.values()) / statistics.fmean(shards.values())
        for shards in per_parent.values()
        if len(shards) > 1 and max(shards.values()) > 0
    ]
    return statistics.fmean(ratios) if ratios else None


def _server_overhead(spans: list) -> "float | None":
    """Median of client latency minus the in-server database span."""
    inside: dict = {}
    for child in spans:
        parent = child["parent"]
        if parent >= 0 and child["name"].startswith("shard.") and (
            spans[parent]["name"] == "server.request"
        ):
            inside[parent] = inside.get(parent, 0.0) + child["end"] - child["start"]
    overheads = [
        span["end"] - span["start"] - inside.get(index, 0.0)
        for index, span in enumerate(spans)
        if span["name"] == "server.request" and span["label"] is not None
    ]
    return percentile(overheads, 0.5) * 1e3 if overheads else None


def _delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def run(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
        ablate=None, setup_reps: int = SETUP_REPS, spans_out=None, corrupt=None,
        trace_points=None) -> dict:
    """Measure one workload once; returns the result record (see
    ``README.md`` for its fields)."""
    started = time.perf_counter()
    inputs, oracle = in_child(prepare, smoke, WORKLOAD_CLASSES[name].pool)
    prepare_s = time.perf_counter() - started
    workdir = os.path.join(RESULTS_DIR, f"tmp-{os.getpid()}")
    workload = WORKLOAD_CLASSES[name](
        inputs, oracle, workdir, seed, ablate=ablate, in_process_server=trace
    )
    if corrupt is not None:
        workload.corrupt = corrupt
    os.makedirs(workdir, exist_ok=True)
    try:
        digests = spec.check_pinned(inputs, name, seed, workload.first_pass_ops())
        setups = []
        for repetition in range(1 if trace else setup_reps):
            if repetition:
                workload.close()
                gc.collect()
            setup_started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - setup_started)
        warm_started = time.perf_counter()
        workload.warmup()
        warmup_s = time.perf_counter() - warm_started
        workload.prepare_truth()
        record = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "smoke": smoke,
            "ablate": ablate,
            "clients": workload.clients,
            "digests": digests,
            "phases": dict(
                workload.phases, prepare_s=prepare_s, setup_reps=setups, warmup_s=warmup_s
            ),
        }
        if trace:
            _traced(workload, record, spans_out, trace_points)
        else:
            _timed(workload, record, seconds, statistics.median(setups))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    record["run_s"] = time.perf_counter() - started
    return record


def _timed(workload, record: dict, seconds: float, setup_s: float) -> None:
    recorder = Recorder()
    pass_no = 0
    started = time.perf_counter()
    # whole passes only: every pass is the same multiset of operations
    while True:
        gc.collect()
        workload.run_pass(pass_no, recorder)
        pass_no += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and pass_no >= MIN_PASSES:
            break
    record["phases"]["timed_s"] = elapsed
    finish_started = time.perf_counter()
    detail = workload.finish(recorder)
    record["phases"]["finish_s"] = time.perf_counter() - finish_started
    record["metrics"] = end_to_end(recorder, workload, setup_s, detail)
    record["attempted"] = recorder.attempted
    record["failed"] = recorder.failed
    record["failures"] = recorder.failures
    record["detail"] = dict(
        detail,
        passes=len(recorder.marks),
        timed_wall_s=recorder.wall,
        samples={"reads": len(recorder.reads), "writes": len(recorder.writes)},
        methods=recorder.methods,
        pass_mean_ms=[seconds * 1e3 for seconds in pass_means(recorder)],
    )


def _traced(workload, record: dict, spans_out, trace_points) -> None:
    extras: dict = {"metrics": {}}
    try:
        extras["metrics"].update(workload.planner_regret())
    except (ImportError, AttributeError) as error:
        warnings.warn(f"planner regret not measured ({error}); its metrics are null")
    plain = Recorder()
    gc.collect()
    workload.run_pass(0, plain)
    traced = Recorder()
    before = workload.cache_stats()
    tracer = Tracer()
    tracer.install(trace_points)
    workload.tracer = tracer
    try:
        gc.collect()
        workload.run_pass(1, traced, collect="counters")
    finally:
        workload.tracer = None
        tracer.uninstall()
    cache_delta = _delta(workload.cache_stats(), before)
    extras["materialize_s"] = workload.timings_sample()
    extras["pings"] = workload.ping_samples()
    record["plan_picks"] = workload.plan_picks()
    extras["metrics"].update(micro.run(workload.inputs, workload.oracle.collection_stats()))
    spans = tracer.spans()
    metrics, detail = per_layer(workload, plain, traced, tracer, spans, cache_delta, extras)
    finish = workload.finish(traced)
    # the end-to-end metrics the driver does not gate come from the
    # untraced pass of this run
    ungated = end_to_end(plain, workload, 0.0, finish)
    for metric, *_ in spec.END_TO_END_UNGATED:
        metrics[metric] = ungated[metric]
    metrics["failed_share"] = (plain.failed + traced.failed) / (plain.attempted + traced.attempted)
    record["metrics"] = metrics
    record["attempted"] = plain.attempted + traced.attempted
    record["failed"] = plain.failed + traced.failed
    record["failures"] = plain.failures + traced.failures
    record["detail"] = dict(detail, **finish)
    if spans_out:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
