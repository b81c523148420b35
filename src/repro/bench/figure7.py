"""Regeneration of Figure 7: evaluation times of the three query patterns.

Each panel of the paper's Figure 7 plots, for one query pattern, the mean
evaluation time of 10 random queries against n (the number of requested
results, log-scale y), with one curve per (algorithm, renamings) pair:
the direct algorithm of Section 6 and the schema-driven algorithm of
Section 7, at 0, 5, and 10 renamings per query label.

``run_figure7`` measures the same series and returns them as structured
rows; ``format_series`` prints the table the harness reports.  ``n=None``
reproduces the paper's n = ∞ point (all results).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from ..telemetry.collector import Telemetry, collecting
from .workloads import Workload, get_workload

#: the x-axis of the paper's figure; None encodes n = infinity
DEFAULT_N_VALUES: tuple["int | None", ...] = (1, 10, 100, 1000, None)
DEFAULT_RENAMINGS = (0, 5, 10)


@dataclass(frozen=True)
class Figure7Point:
    """One measured point of one curve.

    ``counters`` holds the aggregated telemetry of every evaluation that
    went into the point (postings decoded, second-level queries, ...)
    when the run collected it; ``None`` otherwise.  It is
    excluded from equality so instrumented and plain runs compare equal
    on the measurement itself.
    """

    pattern: int
    algorithm: str  # "direct" | "schema"
    renamings: int
    n: "int | None"
    mean_seconds: float
    mean_results: float
    counters: "dict[str, int] | None" = field(default=None, compare=False)

    @property
    def n_label(self) -> str:
        return "inf" if self.n is None else str(self.n)


def run_figure7(
    pattern: int,
    scale: str = "small",
    renamings_counts: tuple[int, ...] = DEFAULT_RENAMINGS,
    n_values: tuple["int | None", ...] = DEFAULT_N_VALUES,
    queries_per_point: int = 10,
    repeats: int = 1,
    workload: "Workload | None" = None,
    collect_telemetry: bool = False,
) -> list[Figure7Point]:
    """Measure one panel of Figure 7.

    Every point is the mean over ``queries_per_point`` random queries of
    the same pattern (the paper uses 10), evaluated ``repeats`` times.

    With ``collect_telemetry`` the evaluations run under an active
    :class:`~repro.telemetry.collector.Telemetry` and each point carries
    the aggregated counters (see :func:`points_to_json` for the sidecar
    format).  Counting adds a small per-posting overhead, so timings of
    an instrumented run are not comparable to a plain run.
    """
    if workload is None:
        workload = get_workload(scale)
    points: list[Figure7Point] = []
    for renamings in renamings_counts:
        queries = workload.queries(pattern, renamings, count=queries_per_point)
        # warmup: one evaluation per (query, algorithm) so one-time index
        # and encoding work does not land on the first measured point
        for generated in queries:
            workload.direct.evaluate(generated.query, generated.costs, n=1)
            workload.schema_eval.evaluate(generated.query, generated.costs, n=1)
        for n in n_values:
            for algorithm in ("direct", "schema"):
                elapsed = 0.0
                results_total = 0
                telemetry = Telemetry() if collect_telemetry else None
                with collecting(telemetry):
                    for generated in queries:
                        for _ in range(repeats):
                            start = time.perf_counter()
                            if algorithm == "direct":
                                results = workload.direct.evaluate(
                                    generated.query, generated.costs, n=n
                                )
                            else:
                                results = workload.schema_eval.evaluate(
                                    generated.query, generated.costs, n=n
                                )
                            elapsed += time.perf_counter() - start
                            results_total += len(results)
                measurements = len(queries) * repeats
                points.append(
                    Figure7Point(
                        pattern,
                        algorithm,
                        renamings,
                        n,
                        elapsed / measurements,
                        results_total / measurements,
                        counters=dict(telemetry.counters) if telemetry else None,
                    )
                )
    return points


def format_series(points: list[Figure7Point], scale: str) -> str:
    """Render the measured panel the way the paper's figure reads:
    rows = n, one column per (algorithm, renamings) curve."""
    if not points:
        return "(no points)"
    pattern = points[0].pattern
    renamings_counts = sorted({point.renamings for point in points})
    n_values = list(dict.fromkeys(point.n_label for point in points))
    by_key = {
        (point.algorithm, point.renamings, point.n_label): point for point in points
    }
    columns = [
        (algorithm, renamings)
        for renamings in renamings_counts
        for algorithm in ("direct", "schema")
    ]
    header = ["n".rjust(6)] + [
        f"{algorithm[:6]}/r={renamings}".rjust(13) for algorithm, renamings in columns
    ]
    lines = [
        f"Figure 7({chr(ord('a') + pattern - 1)}): query pattern {pattern}, "
        f"scale={scale}, mean seconds per query (log-scale in the paper)",
        " ".join(header),
    ]
    for n_label in n_values:
        row = [n_label.rjust(6)]
        for algorithm, renamings in columns:
            point = by_key.get((algorithm, renamings, n_label))
            row.append(f"{point.mean_seconds:13.4f}" if point else " " * 13)
        lines.append(" ".join(row))
    lines.append(_shape_summary(points))
    return "\n".join(lines)


def format_markdown(points: list[Figure7Point], scale: str) -> str:
    """Render the measured panel as a Markdown table (EXPERIMENTS.md
    uses this format verbatim)."""
    if not points:
        return "(no points)"
    pattern = points[0].pattern
    renamings_counts = sorted({point.renamings for point in points})
    n_values = list(dict.fromkeys(point.n_label for point in points))
    by_key = {
        (point.algorithm, point.renamings, point.n_label): point for point in points
    }
    columns = [
        (algorithm, renamings)
        for renamings in renamings_counts
        for algorithm in ("direct", "schema")
    ]
    header = "| n | " + " | ".join(
        f"{algorithm} r={renamings}" for algorithm, renamings in columns
    ) + " |"
    divider = "|---" * (len(columns) + 1) + "|"
    lines = [
        f"**Figure 7({chr(ord('a') + pattern - 1)})** — query pattern {pattern}, "
        f"scale `{scale}`, mean seconds per query:",
        "",
        header,
        divider,
    ]
    for n_label in n_values:
        cells = [n_label]
        for algorithm, renamings in columns:
            point = by_key.get((algorithm, renamings, n_label))
            cells.append(f"{point.mean_seconds:.4f}" if point else "—")
        lines.append("| " + " | ".join(cells) + " |")
    lines.extend(["", _shape_summary(points)])
    return "\n".join(lines)


def _shape_summary(points: list[Figure7Point]) -> str:
    """One-line comparison of the paper's claim vs. the measurement:
    schema wins at small n, direct catches up as n approaches 'all'."""
    wins_small = wins_all = total_small = total_all = 0
    for point in points:
        if point.algorithm != "schema":
            continue
        partner = next(
            p
            for p in points
            if p.algorithm == "direct"
            and p.renamings == point.renamings
            and p.n_label == point.n_label
        )
        speedup = partner.mean_seconds / point.mean_seconds if point.mean_seconds else math.inf
        if point.n is not None and point.n <= 10:
            total_small += 1
            wins_small += speedup > 1
        if point.n is None:
            total_all += 1
            wins_all += speedup > 1
    return (
        f"shape: schema faster at n<=10 in {wins_small}/{total_small} curves; "
        f"at n=inf in {wins_all}/{total_all} curves"
    )


def points_to_json(points: list[Figure7Point], scale: str, indent: int = 2) -> str:
    """Serialize a measured panel as the telemetry sidecar JSON.

    One record per point: the measurement itself plus, when the run was
    instrumented, the aggregated counters and the two headline numbers
    (postings decoded, second-level queries) the paper's cost discussion
    turns on.
    """
    from ..telemetry.report import POSTING_COUNTERS

    records = []
    for point in points:
        record = {
            "pattern": point.pattern,
            "algorithm": point.algorithm,
            "renamings": point.renamings,
            "n": point.n,
            "mean_seconds": point.mean_seconds,
            "mean_results": point.mean_results,
        }
        if point.counters is not None:
            counters = point.counters
            record["counters"] = dict(sorted(counters.items()))
            record["summary"] = {
                "postings_decoded": sum(
                    counters.get(name, 0) for name in POSTING_COUNTERS
                ),
                "second_level_queries": counters.get("schema.second_level_executed", 0),
            }
        records.append(record)
    return json.dumps({"scale": scale, "points": records}, indent=indent)
