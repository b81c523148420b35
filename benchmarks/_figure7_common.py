"""Shared driver for the three Figure 7 panels.

Each benchmark measures the mean evaluation time of the query set of one
(pattern, renamings) cell at one requested result count n — exactly the
points of the paper's Figure 7 curves.  ``n=None`` is the paper's n = ∞
(all results).

With ``--telemetry-dir DIR`` each point additionally writes a JSON
sidecar of engine counters (pages read, postings decoded, second-level
queries) taken from one extra, unmeasured evaluation — the timed rounds
stay uninstrumented so the measurement is unperturbed.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.telemetry.collector import Telemetry, collecting
from repro.telemetry.report import POSTING_COUNTERS

RENAMINGS = (0, 5, 10)
N_VALUES = (1, 10, None)
QUERIES_PER_POINT = 5


def evaluate_query_set(workload, pattern: int, renamings: int, n, algorithm: str) -> int:
    """Evaluate the whole query set once; returns total results found."""
    queries = workload.queries(pattern, renamings, count=QUERIES_PER_POINT)
    total = 0
    for generated in queries:
        if algorithm == "direct":
            results = workload.direct.evaluate(generated.query, generated.costs, n=n)
        else:
            results = workload.schema_eval.evaluate(generated.query, generated.costs, n=n)
        total += len(results)
    return total


def run_panel_point(
    benchmark, workload, pattern, algorithm, renamings, n, telemetry_dir=None
):
    if algorithm == "schema" and n is None and pattern == 3 and renamings >= 10:
        # Full retrieval through the schema enumerates the closure's
        # skeletons: at 10 renamings per label the large Boolean pattern
        # has more than a million of them (the driver reaches its max_k
        # and says so) — the regime where the paper itself concludes "the
        # pruning strategy is the better choice".  See EXPERIMENTS.md.
        pytest.skip("schema full retrieval is combinatorial here (see EXPERIMENTS.md)")
    # warm the query-set cache outside the measured region
    workload.queries(pattern, renamings, count=QUERIES_PER_POINT)
    benchmark.pedantic(
        evaluate_query_set,
        args=(workload, pattern, renamings, n, algorithm),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    if telemetry_dir is not None:
        _write_sidecar(telemetry_dir, workload, pattern, algorithm, renamings, n)


def _write_sidecar(telemetry_dir, workload, pattern, algorithm, renamings, n):
    """One extra instrumented evaluation of the point, dumped as JSON."""
    telemetry = Telemetry()
    with collecting(telemetry):
        results = evaluate_query_set(workload, pattern, renamings, n, algorithm)
    counters = telemetry.counters
    record = {
        "pattern": pattern,
        "algorithm": algorithm,
        "renamings": renamings,
        "n": n,
        "results": results,
        "counters": dict(sorted(counters.items())),
        "summary": {
            "pages_read": counters.get("storage.pages_read", 0),
            "postings_decoded": sum(counters.get(name, 0) for name in POSTING_COUNTERS),
            "second_level_queries": counters.get("schema.second_level_executed", 0),
        },
    }
    name = f"figure7_p{pattern}_{algorithm}_r{renamings}_n{n_id(n)}.json"
    with open(os.path.join(telemetry_dir, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def n_id(n) -> str:
    return "inf" if n is None else str(n)
