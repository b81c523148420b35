"""Parallel serving of independent query work.

This package provides two pools behind one interface — construction
with a worker count, ``map_ordered``, ``shutdown``, context-manager use,
and per-task telemetry merged back in submission order:

* :class:`QueryPool` (here) — threads.  Cheap to start, shares every
  in-process cache, but GIL-bound: CPU-heavy rounds do not scale.
* :class:`~repro.concurrent.process.ProcessQueryPool` — processes.
  Workers evaluate on real cores; see :mod:`repro.concurrent.process`
  for the setup-spec machinery that gives each worker its read view
  without pickling postings.

:func:`make_query_pool` picks one from an ``executor`` name and falls
back to threads (counting ``concurrency.process_fallback``) when
process pools are unavailable.

:meth:`repro.core.database.Database.query_many` evaluates a batch of
independent queries on the pool, one
:class:`~repro.core.results.ResultSet` per query, in input order.

Telemetry attribution
---------------------
The ambient collector is thread-local (see
:mod:`repro.telemetry.collector`), so a worker thread cannot report into
the coordinator's collection by accident — nor on purpose.  The pool
closes the gap: when the submitting thread is collecting, each task runs
under its own fresh :class:`~repro.telemetry.collector.Telemetry`
(inheriting the ``timed`` flag) and :meth:`QueryPool.map_ordered` merges
the per-task collections back into the submitter's collector *in
submission order*.  A parallel run therefore reports the same work
counters as the serial run; only genuinely scheduling-dependent counters
(``concurrency.queue_wait_seconds``, ``concurrency.*_lock_waits``)
depend on the interleaving.

The pool reports itself under the ``concurrency.`` section:
``concurrency.pool_size`` (gauge), ``concurrency.tasks`` (submitted
tasks), ``concurrency.batches`` (``map_ordered`` calls), and
``concurrency.queue_wait_seconds`` (summed submit-to-start latency).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from typing import TypeVar

from ..errors import EvaluationError
from ..storage.overlay import SnapshotOverlay, current_overlay, using_overlay
from ..telemetry import collector as _telemetry
from ..telemetry.collector import Telemetry

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a ``jobs`` request to a concrete worker count.

    The convention, shared by the CLI's ``--jobs`` and every ``jobs=``
    keyword:

    * ``None``, ``0``, and ``1`` mean serial execution (resolve to 1);
    * any **negative** count means "one worker per CPU" — the portable
      way to say "use the whole machine" without knowing its size.  When
      the platform cannot report a CPU count (``os.cpu_count()`` returns
      ``None`` on some containers and exotic builds), this falls back to
      1 rather than guessing;
    * anything else is taken literally.
    """
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        # cpu_count() may return None; serve serially rather than guess
        return max(1, os.cpu_count() or 1)
    return max(1, jobs)


def make_query_pool(jobs: int, executor: str = "thread", setup=None):
    """A pool of ``jobs`` workers behind the shared pool interface.

    ``executor`` selects the backend: ``"thread"`` (the default, always
    available) or ``"process"`` (real cores; ``setup`` is the picklable
    worker setup spec of :mod:`repro.concurrent.process`).  When a
    process pool cannot be built — no usable start method, a sandboxed
    platform — this degrades to threads and counts
    ``concurrency.process_fallback`` instead of failing the query.
    """
    if executor not in ("thread", "process"):
        raise EvaluationError(
            f"executor must be 'thread' or 'process', got {executor!r}"
        )
    if executor == "process" and jobs > 1:
        from .process import ProcessQueryPool

        try:
            return ProcessQueryPool(jobs, setup=setup)
        except OSError:
            _telemetry.count("concurrency.process_fallback")
    return QueryPool(jobs)


class QueryPool:
    """A fixed-size thread pool preserving order and telemetry attribution.

    One pool serves one coordinator (a ``query_many`` batch, a shard
    scatter); it is not itself shared between threads.  Use as a context
    manager or call :meth:`shutdown` — dropping the pool without a
    shutdown leaks its worker threads until interpreter exit.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise EvaluationError(f"QueryPool needs at least one worker, got {jobs}")
        self.jobs = jobs
        self._executor = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-query"
        )

    def map_ordered(self, func: "Callable[[_T], _R]", items: "Iterable[_T]") -> "list[_R]":
        """Run ``func`` over ``items`` on the pool; results in submission
        order.

        Blocks until every task finished.  A task's exception propagates
        to the caller (after all tasks were submitted, so no task is
        silently dropped).  Per-task telemetry is merged back into the
        calling thread's active collector in submission order — see the
        module docstring.
        """
        tasks = list(items)
        if not tasks:
            return []
        _telemetry.gauge("concurrency.pool_size", self.jobs)
        _telemetry.count("concurrency.batches")
        _telemetry.count("concurrency.tasks", len(tasks))
        parent = _telemetry.current()
        overlay = current_overlay()
        futures = [
            self._executor.submit(
                _run_task, func, item, parent, overlay, time.perf_counter()
            )
            for item in tasks
        ]
        results: "list[_R]" = []
        for future in futures:
            result, task_telemetry = future.result()
            if parent is not None and task_telemetry is not None:
                parent.merge(task_telemetry)
            results.append(result)
        return results

    def shutdown(self) -> None:
        """Join the worker threads (idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "QueryPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def _run_task(
    func: "Callable[[_T], _R]",
    item: _T,
    parent: "Telemetry | None",
    overlay: "SnapshotOverlay | None",
    submitted: float,
) -> "tuple[_R, Telemetry | None]":
    """Run one task on a worker thread under its own collector, with the
    submitting thread's snapshot overlay re-activated so the task reads
    the same pinned store generation (see :mod:`repro.storage.overlay`)."""
    if parent is None:
        with using_overlay(overlay):
            return func(item), None
    task_telemetry = Telemetry(timed=parent.timed)
    task_telemetry.count("concurrency.queue_wait_seconds", time.perf_counter() - submitted)
    with _telemetry.collecting(task_telemetry), using_overlay(overlay):
        result = func(item)
    return result, task_telemetry


from .process import (  # noqa: E402  (re-export after QueryPool exists)
    ProcessQueryPool,
    StoredDatabaseSetup,
    worker_context,
)

__all__ = [
    "QueryPool",
    "ProcessQueryPool",
    "StoredDatabaseSetup",
    "make_query_pool",
    "resolve_jobs",
    "worker_context",
]
