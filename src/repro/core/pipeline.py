"""The one query pipeline: validate → compile → plan → cache → execute →
report.

The paper defines one query semantics (the best-*n* root–cost pairs) and
two interchangeable algorithms for it; everything around that choice is
the same work whoever asks.  :class:`QueryPipeline` is that work, once:
:class:`~repro.core.database.Database`, its pinned
:class:`~repro.core.database.Snapshot` and
:class:`~repro.shard.database.ShardedDatabase` each own one pipeline and
hand it an :class:`Executor` per call.

Stages of :meth:`QueryPipeline.query`, in order:

1. **validate** ``n`` / ``method`` / ``collect`` — typed errors before any work;
2. **compile** through the Tier-1 :class:`~repro.querycache.CompiledQueryCache`
   (parse, fingerprint, lazily expanded closure);
3. **plan**: an explicit method is taken as given, ``"auto"`` asks the
   :class:`~repro.planner.cost.Planner`, cached on the compiled query
   per (generation, n, method);
4. **cache**: one Tier-2 :class:`~repro.querycache.ResultCache` key per
   (query, costs, method, ``max_cost``) serves every ``n``, across writes
   that miss its root labels: serve the prefix, resume a shorter one, or
5. **execute** on the executor and store what came out;
6. **report**: one :class:`~repro.telemetry.report.QueryReport`
   assembler — the collected counters, child reports folded in,
   ``querycache.compiled_*``, and the planner's predicted-vs-observed
   family.

:meth:`QueryPipeline.query_many` is the one batch path: compile every
item, then serve them one after another on the calling thread, each from
the compiled query it was resolved to.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple, Protocol

from ..approxql.ast import NameSelector, count_or_operators, count_selectors
from ..approxql.costs import CostModel
from ..errors import EvaluationError
from ..planner.cost import PlanEstimates, Planner
from ..planner.stats import CollectionStats
from ..querycache import (
    CachedResult,
    CompiledQuery,
    CompiledQueryCache,
    DriverState,
    ResultCache,
)
from ..telemetry import collector as _telemetry
from ..telemetry.collector import MODE_OFF, MODE_TIMINGS, MODES, Telemetry
from ..telemetry.report import QueryReport
from .results import ResultSet

METHODS = ("auto", "direct", "schema")


@dataclass(frozen=True)
class QueryPlan:
    """The ``"auto"`` method-selection decision, made public.

    :meth:`Database.plan` returns one of these instead of burying the
    choice inside :meth:`Database.query`: the chosen algorithm, why it
    was chosen, and a summary of the parsed query (the quantities the
    paper's complexity bounds are phrased in).
    """

    query: str
    method: str
    requested: str
    reason: str
    n: "int | None"
    root_label: str
    selectors: int
    or_decisions: int
    conjunctive_queries: int
    #: the cost model's numbers behind the decision (predicted candidate
    #: roots, posting bytes, closure widths)
    estimates: "PlanEstimates | None" = None

    def format(self, verbose: bool = False) -> str:
        """Human-readable rendering for the CLI's ``plan`` command;
        ``verbose`` appends the estimates block."""
        n_label = "all" if self.n is None else str(self.n)
        lines = [
            f"plan: {self.query}",
            f"  method: {self.method} ({self.reason})",
            f"  n: {n_label}  root: {self.root_label}",
            f"  selectors: {self.selectors}  or-decisions: {self.or_decisions}  "
            f"conjunctive queries: {self.conjunctive_queries}",
        ]
        if verbose and self.estimates is not None:
            lines.append(self.estimates.format())
        return "\n".join(lines)


class Execution(NamedTuple):
    """What one :meth:`Executor.execute` call produced."""

    #: cacheable row tuples in emission order (the suffix past the
    #: resumed prefix when the call resumed)
    rows: list
    #: the answer is exhausted: the rows serve any ``n``
    complete: bool
    #: captured driver state a later, larger ``n`` can resume from
    state: "DriverState | None" = None
    #: reports of the child queries a fan-out ran, folded into the report
    reports: tuple = ()
    #: what the executor says about this execution itself (the shard
    #: fan-out family); written on the report in *every* collect mode
    counters: "dict[str, float] | None" = None


class Executor(Protocol):
    """What the pipeline cannot know about the collection it queries.

    Two implementations: the pinned ``(_EngineState, overlay, store)``
    view of :mod:`repro.core.database` — memory, stored and snapshot
    reads are all that — and the shard scatter-gather merge of
    :mod:`repro.shard.database`, whose children are whole databases
    entered through their public ``query`` / ``stream``.
    """

    def generation(self) -> object:
        """The invalidation generation of the view (monotone; any write
        the view could observe moves it)."""

    def stats(self) -> CollectionStats:
        """The collection statistics to plan on."""

    def execute(
        self,
        compiled: CompiledQuery,
        chosen: str,
        n: "int | None",
        max_cost: "float | None",
        resume: "DriverState | None",
        collect: str,
    ) -> Execution:
        """Evaluate with the ``chosen`` algorithm.  ``collect`` is the
        mode child queries report in; the call itself already runs
        inside the query's collector."""

    def materialize(self, rows: list) -> list:
        """Row tuples to the result objects callers see."""


def validate(method: str = "auto", collect: str = MODE_OFF, n: "int | None" = None) -> None:
    """The shared argument checks of every query-shaped entry point."""
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
        raise EvaluationError(f"n must be an integer >= 0 or None, got {n!r}")
    if method not in METHODS:
        raise EvaluationError(f"unknown method {method!r}; expected one of {METHODS}")
    if collect not in MODES:
        raise EvaluationError(f"unknown collect mode {collect!r}; expected one of {MODES}")


class QueryPipeline:
    """One handle's query path and the state it owns: default costs, the
    planner, and both hot-query cache tiers."""

    def __init__(self, default_costs: "CostModel | None" = None) -> None:
        self.default_costs = default_costs if default_costs is not None else CostModel()
        #: ``repr`` of the insert fingerprint a stored collection was
        #: saved with (its encoding is baked in, ``open`` sets this);
        #: None when costs are free
        self.frozen_fingerprint: "str | None" = None
        self.planner = Planner()
        self.compiled_cache = CompiledQueryCache()
        self.result_cache = ResultCache()

    def set_cache(
        self, compiled_entries: "int | None" = None, result_entries: "int | None" = None
    ) -> None:
        """Replace a cache tier with one of the given capacity (``0``
        disables it, ``None`` leaves it alone)."""
        if compiled_entries is not None:
            self.compiled_cache = CompiledQueryCache(compiled_entries)
        if result_entries is not None:
            self.result_cache = ResultCache(result_entries)

    def cache_stats(self) -> dict[str, int]:
        """Lifetime ``querycache.*`` counters of both tiers."""
        merged = self.compiled_cache.stats()
        merged.update(self.result_cache.stats())
        return merged

    # ------------------------------------------------------------------
    # compile and plan
    # ------------------------------------------------------------------

    def compile(
        self, text: "str | NameSelector", costs: "CostModel | None"
    ) -> tuple[CompiledQuery, bool]:
        """The compiled form of ``(text, costs)`` plus whether the cache
        served it.  The frozen-fingerprint check runs on *every* call —
        cached entries are not exempt from it."""
        compiled, hit = self.compiled_cache.get(
            text, costs if costs is not None else self.default_costs
        )
        frozen = self.frozen_fingerprint
        if frozen is not None and repr(compiled.costs.insert_fingerprint) != frozen:
            raise EvaluationError(
                "this database was loaded from disk with baked-in insert costs; "
                "queries must use the same insert-cost table (build an in-memory "
                "Database for per-query insert costs)"
            )
        return compiled, hit

    def resolve(
        self,
        text: "str | NameSelector",
        costs: "CostModel | None",
        collect: str = MODE_OFF,
        n: "int | None" = None,
    ) -> CompiledQuery:
        """Validate and compile for the entry points that evaluate on
        their own (``stream``, ``count_results``, ``explain``): identical
        inputs raise the identical typed errors :meth:`query` raises."""
        validate(collect=collect, n=n)
        return self.compile(text, costs)[0]

    def _choose(
        self,
        view: Executor,
        generation: object,
        compiled: CompiledQuery,
        method: str,
        n: "int | None",
        want_estimates: bool = False,
    ) -> "tuple[str, str, PlanEstimates | None]":
        """The method decision for one compiled query.  An explicit
        method skips estimation unless ``want_estimates``; a planner
        decision is cached on the compiled query, so re-planning a hot
        query is a dict hit."""
        if method != "auto" and not want_estimates:
            return method, f"explicitly requested method={method!r}", None
        memo_key = (generation, n, method)
        decision = compiled.cached_plan(memo_key)
        if decision is None:
            decision = self.planner.choose(
                compiled.query, compiled.costs, view.stats(), n, method=method
            )
            compiled.store_plan(memo_key, decision)
        return decision

    def plan(
        self,
        view: Executor,
        text: "str | NameSelector",
        n: "int | None",
        method: str,
        costs: "CostModel | None",
    ) -> QueryPlan:
        """The decision :meth:`query` would make, with its estimates."""
        validate(method, n=n)
        compiled, _ = self.compile(text, costs)
        chosen, reason, estimates = self._choose(
            view, view.generation(), compiled, method, n, want_estimates=True
        )
        query = compiled.query
        or_decisions = count_or_operators(query)
        return QueryPlan(
            query=query.unparse(),
            method=chosen,
            requested=method,
            reason=reason,
            n=n,
            root_label=query.label,
            selectors=count_selectors(query),
            or_decisions=or_decisions,
            conjunctive_queries=2**or_decisions,
            estimates=estimates,
        )

    # ------------------------------------------------------------------
    # one query
    # ------------------------------------------------------------------

    def query(
        self,
        view: Executor,
        text: "str | NameSelector",
        n: "int | None",
        costs: "CostModel | None",
        method: str,
        max_cost: "float | None",
        collect: str,
    ) -> ResultSet:
        """All six stages for one query against ``view``."""
        validate(method, collect, n)
        compiled, compiled_hit = self.compile(text, costs)
        return self.serve(view, compiled, compiled_hit, n, method, max_cost, collect)

    def serve(
        self,
        view: Executor,
        compiled: CompiledQuery,
        compiled_hit: bool,
        n: "int | None",
        method: str,
        max_cost: "float | None",
        collect: str,
    ) -> ResultSet:
        """Stages 3–6 for a query already compiled (``compiled_hit``:
        whether the compiled cache served it) against ``view``."""
        # read before evaluation, so a write landing mid-query stamps the
        # cached entry with the generation whose postings were read
        generation = view.generation()
        chosen, _, estimates = self._choose(view, generation, compiled, method, n)
        telemetry = Telemetry(timed=collect == MODE_TIMINGS) if collect != MODE_OFF else None
        start = time.perf_counter()
        # with collection off an outer collector (a harness) keeps receiving
        with _telemetry.collecting(telemetry) if telemetry is not None else nullcontext():
            results, execution = self._answer(
                view, generation, compiled, chosen, n, max_cost, collect
            )
        report = QueryReport.from_telemetry(
            telemetry,
            query=compiled.query.unparse(),
            method=chosen,
            collect=collect,
            n=n,
            wall_seconds=time.perf_counter() - start,
            results=len(results),
        )
        counters = report.counters
        if execution is not None:
            fold_reports(report, execution.reports)
            counters.update(execution.counters or ())
        if collect != MODE_OFF and self.compiled_cache.enabled:
            counters[
                "querycache.compiled_hits" if compiled_hit else "querycache.compiled_misses"
            ] = 1
        if estimates is not None:
            _attach_planner_counters(report, estimates, len(results))
        return ResultSet(results, report)

    def _answer(
        self, view, generation, compiled, chosen, n, max_cost, collect
    ) -> "tuple[list, Execution | None]":
        """Stages 4–5: the best-``n`` results from the cached prefix of
        this (query, costs, method, max_cost) at this generation, from
        the schema driver resumed past a shorter prefix, or from a cold
        run whose rows are then cached; plus the :class:`Execution` that
        ran, ``None`` when the cache served.  A disabled cache never hits
        and never stores.

        Every method's best-``n`` answer is a prefix of its full answer
        (the schema driver's k schedule changes how long it takes, not
        what it is), so one key serves every ``n``: a shorter ``n`` from
        a longer cached answer, a longer one by resuming.
        """
        key = (compiled.key, chosen, max_cost)
        cache = self.result_cache
        entry = cache.lookup(key, generation, n)
        execution = None
        if entry is not None and entry.serves(n):
            rows = entry.pairs
        else:
            resume = entry.state if entry is not None else None
            if resume is not None:
                cache.note_resume()
            execution = view.execute(compiled, chosen, n, max_cost, resume, collect)
            rows = execution.rows if resume is None else entry.pairs + execution.rows
            cache.store(
                key,
                CachedResult(
                    generation=generation,
                    pairs=rows,
                    complete=execution.complete,
                    state=None if execution.complete else execution.state,
                    root_labels=compiled.root_labels() if cache.enabled else None,
                ),
            )
        with _telemetry.timer("core.materialize"):
            results = view.materialize(rows if n is None else rows[:n])
        _telemetry.count("core.results_materialized", len(results))
        return results, execution

    # ------------------------------------------------------------------
    # a batch
    # ------------------------------------------------------------------

    def query_many(
        self,
        serve: Callable[[CompiledQuery, bool], ResultSet],
        queries: Iterable,
        n: "int | None",
        costs: "CostModel | None",
        method: str,
        collect: str,
    ) -> list[ResultSet]:
        """Serve a batch through ``serve(compiled, compiled_hit)``, one
        result set per item in input order.

        Every item is compiled first, one compiled-cache lookup each, so
        a bad one fails the batch before any evaluation.  The items are
        then served one after another on the calling thread, each from
        the compiled query it was resolved to.
        """
        validate(method, collect, n)
        items: "list[tuple[CompiledQuery, bool]]" = []
        for item in queries:
            text, item_costs = item if isinstance(item, tuple) else (item, None)
            items.append(self.compile(text, item_costs if item_costs is not None else costs))
        return [serve(compiled, hit) for compiled, hit in items]


def fold_reports(report: QueryReport, children: Iterable[QueryReport]) -> None:
    """Sum the reports of the child queries a fan-out ran into
    ``report``."""
    counters, timings = report.counters, report.timings
    for child in children:
        for name, value in child.counters.items():
            if name.startswith("querycache."):
                # a child's own cache activity must not read as this
                # level's verdict (result_cache_hit means "nothing was
                # executed"); keep it under a child-scoped name
                name = "querycache.shard_" + name[len("querycache."):]
            counters[name] = counters.get(name, 0) + value
        for name, value in child.timings.items():
            timings[name] = timings.get(name, 0.0) + value


def _attach_planner_counters(
    report: QueryReport, estimates: PlanEstimates, observed: int
) -> None:
    """Write the predicted-vs-observed ``planner.*`` family directly on
    the report whenever collection is active (``collect="off"`` keeps
    its documented empty-counters contract)."""
    if report.collect == "off":
        return
    counters = report.counters
    counters["planner.predicted_candidates"] = estimates.candidate_roots
    counters["planner.predicted_entries"] = estimates.posting_entries
    counters["planner.observed_results"] = observed
    counters["planner.closure_width"] = estimates.mean_closure_width
    counters["planner.stats_generation"] = estimates.stats_generation
