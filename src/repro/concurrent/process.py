"""Process-pool serving of independent query work.

:class:`ProcessQueryPool` is the multi-core drop-in for
:class:`~repro.concurrent.QueryPool`: same constructor shape, same
``map_ordered`` (ordered results, per-task telemetry merged back into
the submitting thread's collector in submission order), same
context-manager lifecycle.  The differences follow from crossing a
process boundary:

* **Task functions must be module-level** (picklable); closures and
  bound methods cannot cross the pipe.
* **Workers never read the parent's heap.**  Each worker is initialized
  once with a picklable *setup spec* — any object with an ``activate()``
  method — and the activated value is available to task functions via
  :func:`worker_context`.  The specs here cover the two read views a
  worker can need:

  - :class:`StoredDatabaseSetup` opens a saved database by path (each
    worker gets its own store handle and caches — used by batch serving,
    where a worker amortizes the open over many queries);
  - :class:`ForkInheritedSetup` resolves a token against a registry
    populated *before* the pool was created — with the ``fork`` start
    method the child inherits the registered object (an in-memory
    ``Database``, unpicklable because of its locks) through the fork
    snapshot, never through pickle.

* **No ambient snapshot overlay.**  A thread worker re-activates the
  submitter's overlay; a process worker cannot see it.  Callers that
  serve pinned snapshots bake the overlay into the worker's read view
  instead (a worker's own database pins its own snapshot).

The pool prefers the ``fork`` start method (cheap, inherits the fork
registry) and falls back to ``spawn`` where fork is unavailable; with
spawn, only pickle-complete setup specs work.

Telemetry: tasks report under the submitting collector exactly like
thread tasks; ``concurrency.executor_process`` (gauge) marks rounds that
actually ran on processes.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

from ..errors import EvaluationError
from ..telemetry import collector as _telemetry
from ..telemetry.collector import Telemetry

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# worker-side state
# ----------------------------------------------------------------------

#: the activated setup value in a worker process (None in the parent)
_worker_state = None


def worker_context():
    """The value the worker's setup spec activated — task functions call
    this instead of closing over parent-process objects."""
    return _worker_state


def _process_worker_init(setup) -> None:
    """Runs once per worker process: activate the setup spec, park the
    result for :func:`worker_context`."""
    global _worker_state
    _worker_state = setup.activate() if setup is not None else None


def _run_process_task(
    func: "Callable[[_T], _R]",
    item: _T,
    timed: "bool | None",
    submitted: float,
) -> "tuple[_R, Telemetry | None]":
    """Worker-side task wrapper, the process twin of ``_run_task``:
    collect under a fresh Telemetry when the submitter collects (the
    collection crosses back over the pipe and merges in order)."""
    if timed is None:
        return func(item), None
    task_telemetry = Telemetry(timed=timed)
    # perf_counter is CLOCK_MONOTONIC on Linux — comparable across
    # processes, so queue latency still means submit-to-start
    task_telemetry.count("concurrency.queue_wait_seconds", time.perf_counter() - submitted)
    with _telemetry.collecting(task_telemetry):
        result = func(item)
    return result, task_telemetry


# ----------------------------------------------------------------------
# worker setup specs
# ----------------------------------------------------------------------


class StoredDatabaseSetup:
    """Open the saved database at ``path``; the context value is the
    worker's own :class:`~repro.core.database.Database` (own store
    handle, own caches, own snapshots)."""

    __slots__ = ("path", "options")

    def __init__(self, path: str, options=None) -> None:
        self.path = path
        self.options = options

    def activate(self):
        from ..core.database import Database

        return Database.open(self.path, self.options)


#: fork-inherited objects, keyed by registry token (parent process only)
_fork_registry: dict = {}
_fork_tokens = itertools.count(1)


def register_fork_object(value) -> int:
    """Park ``value`` for fork inheritance and return its token.  Must be
    called *before* the pool is created — workers snapshot the registry
    when they fork.  Pair with :func:`unregister_fork_object`."""
    token = next(_fork_tokens)
    _fork_registry[token] = value
    return token


def unregister_fork_object(token: int) -> None:
    """Drop a registered object (parent side; forked snapshots are
    unaffected)."""
    _fork_registry.pop(token, None)


class ForkInheritedSetup:
    """Resolve a :func:`register_fork_object` token in the worker.  Only
    meaningful under the ``fork`` start method: the child's registry is
    the parent's snapshot at fork time."""

    __slots__ = ("token",)

    def __init__(self, token: int) -> None:
        self.token = token

    def activate(self):
        try:
            return _fork_registry[self.token]
        except KeyError:
            raise EvaluationError(
                f"fork registry has no object under token {self.token}; "
                "ForkInheritedSetup requires the 'fork' start method and "
                "registration before the pool is created"
            ) from None


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------


class ProcessQueryPool:
    """A fixed-size process pool behind the ``QueryPool`` interface.

    One pool serves one coordinator; use as a context manager or call
    :meth:`shutdown` — worker processes are real OS resources, not
    daemon threads.
    """

    def __init__(self, jobs: int, setup=None, start_method: "str | None" = None) -> None:
        if jobs < 1:
            raise EvaluationError(f"ProcessQueryPool needs at least one worker, got {jobs}")
        self.jobs = jobs
        method = start_method or default_start_method()
        self._executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context(method),
            initializer=_process_worker_init,
            initargs=(setup,),
        )

    def map_ordered(self, func: "Callable[[_T], _R]", items: "Iterable[_T]") -> "list[_R]":
        """Run ``func`` over ``items`` on worker processes; results in
        submission order, telemetry merged in submission order.  ``func``
        must be module-level and both it, the items, and the results must
        pickle; posting-sized state belongs in the worker's setup spec,
        not in the items."""
        tasks = list(items)
        if not tasks:
            return []
        _telemetry.gauge("concurrency.pool_size", self.jobs)
        _telemetry.gauge("concurrency.executor_process", 1)
        _telemetry.count("concurrency.batches")
        _telemetry.count("concurrency.tasks", len(tasks))
        parent = _telemetry.current()
        timed = parent.timed if parent is not None else None
        futures = [
            self._executor.submit(
                _run_process_task, func, item, timed, time.perf_counter()
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
        """Join the worker processes (idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ProcessQueryPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
