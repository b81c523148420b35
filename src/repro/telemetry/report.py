"""Structured query reports assembled from a telemetry collection.

A :class:`QueryReport` is what :meth:`repro.core.database.Database.query`
attaches to its :class:`~repro.core.results.ResultSet`: the method the
engine chose, the per-stage counters the evaluation produced, and (in the
``"timings"`` collection mode) per-stage wall times.  It is a plain data
object — renderable for the CLI (:meth:`format`), serializable for
benchmark sidecars (:meth:`to_json`), and queryable by dotted counter
name (:meth:`get`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .collector import Telemetry

#: counters summed into the "postings decoded" headline: every posting
#: entry delivered by any index fetch, data-level or schema-level
POSTING_COUNTERS = (
    "index.data_postings",
    "index.schema_postings",
    "index.sec_postings",
)


@dataclass
class QueryReport:
    """What one query evaluation did, stage by stage.

    ``counters`` and ``timings`` are empty when collection was off; the
    identification fields (method, n, results, wall time) are always
    filled, so ``result_set.report.method`` works in every mode.
    """

    query: str
    method: str
    collect: str
    n: "int | None"
    wall_seconds: float = 0.0
    results: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_telemetry(
        cls,
        telemetry: "Telemetry | None",
        query: str,
        method: str,
        collect: str,
        n: "int | None",
        wall_seconds: float,
        results: int,
    ) -> "QueryReport":
        """Assemble a report from a finished collection (or ``None``)."""
        return cls(
            query=query,
            method=method,
            collect=collect,
            n=n,
            wall_seconds=wall_seconds,
            results=results,
            counters=dict(telemetry.counters) if telemetry is not None else {},
            timings=dict(telemetry.timings) if telemetry is not None else {},
        )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def get(self, name: str, default: float = 0) -> float:
        """Counter value by dotted name, ``default`` when absent."""
        return self.counters.get(name, default)

    def sections(self) -> dict[str, dict[str, float]]:
        """Counters grouped by their first dotted segment."""
        grouped: dict[str, dict[str, float]] = {}
        for name in sorted(self.counters):
            section, _, metric = name.partition(".")
            if not metric:
                section, metric = "misc", name
            grouped.setdefault(section, {})[metric] = self.counters[name]
        return grouped

    @property
    def pages_read(self) -> int:
        """Storage pages read during the evaluation (0 for in-memory)."""
        return int(self.get("storage.pages_read"))

    @property
    def postings_decoded(self) -> int:
        """Total posting entries delivered by index fetches, across the
        data indexes, the schema indexes, and ``I_sec`` (the schema's
        instance columns)."""
        return int(sum(self.get(name) for name in POSTING_COUNTERS))

    @property
    def second_level_queries(self) -> int:
        """Second-level queries executed (0 for the direct method)."""
        return int(self.get("schema.second_level_executed"))

    @property
    def max_k_stops(self) -> int:
        """Times the schema driver gave up growing k at ``max_k``: when
        positive, the answer may be short of ``n`` although more results
        exist (a complete short answer ends by exhaustion instead)."""
        return int(self.get("schema.max_k_stops"))

    @property
    def page_cache_hits(self) -> int:
        """Page reads served by the pager's LRU cache instead of the file."""
        return int(self.get("cache.page_hits"))

    @property
    def posting_cache_hits(self) -> int:
        """Index fetches served as already-decoded posting lists."""
        return int(self.get("cache.posting_hits"))

    @property
    def node_cache_hits(self) -> int:
        """B+tree node visits served as already-decoded node images
        (the decoded-node LRU above the pager's page cache)."""
        return int(self.get("btree.node_cache_hits"))

    @property
    def column_cache_hits(self) -> int:
        """Kernel fetches served as already-built columnar lists (the
        ``kernel.*`` family: derived-value caching above the posting
        cache, with the sparse tables lazily grown on the columns)."""
        return int(self.get("kernel.column_cache_hits"))

    @property
    def rmq_builds(self) -> int:
        """Sparse tables built by join/outerjoin range-min lookups."""
        return int(self.get("kernel.rmq_builds"))

    @property
    def rmq_reuses(self) -> int:
        """Range-min lookups answered by an already-built sparse table."""
        return int(self.get("kernel.rmq_reuses"))

    @property
    def wal_frames_written(self) -> int:
        """Write-ahead-log frames appended (0 unless the store mutates
        under ``durability="wal"``)."""
        return int(self.get("wal.frames_written"))

    @property
    def wal_recoveries(self) -> int:
        """Crash recoveries performed (log replays on open)."""
        return int(self.get("wal.recoveries"))

    @property
    def compiled_cache_hit(self) -> bool:
        """True when the hot-query compiled cache served this query's
        parsed AST, expanded closure, and plan memo (tier 1)."""
        return bool(self.get("querycache.compiled_hits"))

    @property
    def result_cache_hit(self) -> bool:
        """True when the best-n result cache served this query's answer
        prefix without re-running the driver (tier 2)."""
        return bool(self.get("querycache.result_hits"))

    @property
    def resumed_rounds(self) -> int:
        """Times a shorter cached prefix was extended by resuming the
        incremental driver from its saved round state instead of
        restarting at the first round."""
        return int(self.get("querycache.resumed_rounds"))

    @property
    def overlay_hits(self) -> int:
        """Index fetches answered from a snapshot overlay — postings a
        concurrent writer overwrote after this reader pinned its
        generation (see :meth:`~repro.core.database.Database.snapshot`)."""
        return int(self.get("mutation.overlay_hits"))

    @property
    def predicted_candidates(self) -> int:
        """The planner's candidate-root estimate for this query (0 when
        the query ran with an explicit method and no estimate was made);
        compare with ``results`` to judge calibration."""
        return int(self.get("planner.predicted_candidates"))

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def format(self) -> str:
        """Per-stage breakdown for the CLI's ``--stats`` output."""
        n_label = "all" if self.n is None else str(self.n)
        lines = [
            f"telemetry: method={self.method} n={n_label} "
            f"results={self.results} wall={self.wall_seconds * 1000:.1f} ms",
            f"  pages read: {self.pages_read} | "
            f"postings decoded: {self.postings_decoded} | "
            f"second-level queries: {self.second_level_queries}",
            f"  cache hits: {self.page_cache_hits} page / "
            f"{self.node_cache_hits} node / "
            f"{self.posting_cache_hits} posting / "
            f"{self.column_cache_hits} column",
        ]
        if self.wal_frames_written or self.wal_recoveries:
            lines.append(
                f"  wal: {self.wal_frames_written} frame(s) written / "
                f"{self.wal_recoveries} recovery(ies)"
            )
        if self.max_k_stops:
            lines.append(
                "  schema: stopped at max_k before reaching n "
                "(the answer may be incomplete)"
            )
        if self.compiled_cache_hit or self.result_cache_hit:
            parts = []
            if self.compiled_cache_hit:
                parts.append("compiled query")
            if self.result_cache_hit:
                parts.append("result prefix")
            elif self.resumed_rounds:
                parts.append("resumed driver rounds")
            lines.append("  querycache: served from " + " + ".join(parts))
        if "planner.predicted_candidates" in self.counters:
            lines.append(
                f"  planner: predicted ~{self.predicted_candidates} candidate(s) / "
                f"~{int(self.get('planner.predicted_entries'))} posting entries, "
                f"observed {int(self.get('planner.observed_results'))} result(s)"
            )
        if self.get("shard.fanout"):
            lines.append(
                f"  shard: fanout {int(self.get('shard.fanout'))} | "
                f"merged {int(self.get('shard.results_merged'))} result(s)"
            )
        if self.get("server.rejections") or self.get("server.queue_seconds"):
            lines.append(
                f"  server: queued {self.get('server.queue_seconds') * 1000:.1f} ms | "
                f"in flight {int(self.get('server.queue_depth'))} | "
                f"queue-full rejections {int(self.get('server.rejections'))}"
            )
        if self.collect == "off":
            lines.append("  (collection off; pass collect='counters' or --stats)")
            return "\n".join(lines)
        for section, metrics in self.sections().items():
            lines.append(f"  {section}:")
            for metric, value in metrics.items():
                rendered = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"    {metric:<28}{rendered:>12}")
        if self.timings:
            lines.append("  timings:")
            for stage, seconds in self.timings.items():
                lines.append(f"    {stage:<28}{seconds * 1000:>9.2f} ms")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain-dict form (the benchmark sidecar schema)."""
        return {
            "query": self.query,
            "method": self.method,
            "collect": self.collect,
            "n": self.n,
            "wall_seconds": self.wall_seconds,
            "results": self.results,
            "summary": {
                "pages_read": self.pages_read,
                "postings_decoded": self.postings_decoded,
                "second_level_queries": self.second_level_queries,
                "max_k_stops": self.max_k_stops,
                "page_cache_hits": self.page_cache_hits,
                "node_cache_hits": self.node_cache_hits,
                "posting_cache_hits": self.posting_cache_hits,
                "column_cache_hits": self.column_cache_hits,
                "rmq_builds": self.rmq_builds,
                "rmq_reuses": self.rmq_reuses,
                "wal_frames_written": self.wal_frames_written,
                "wal_recoveries": self.wal_recoveries,
                "compiled_cache_hit": self.compiled_cache_hit,
                "result_cache_hit": self.result_cache_hit,
                "resumed_rounds": self.resumed_rounds,
                "overlay_hits": self.overlay_hits,
                "predicted_candidates": self.predicted_candidates,
            },
            "counters": dict(self.counters),
            "timings": dict(self.timings),
        }

    def to_json(self, indent: "int | None" = 2) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
