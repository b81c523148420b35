"""The ambient telemetry collector: hierarchical counters and timers.

Every layer of the engine reports into the *active* collector through the
module-level helpers (:func:`count`, :func:`gauge`, :func:`timer`); when no
collector is active — the default — each helper is a single global load and
``None`` check, so instrumented hot paths stay within noise of the
uninstrumented code.  A collector is activated for the duration of one
query (or one benchmark point) with :func:`collecting`::

    telemetry = Telemetry()
    with collecting(telemetry):
        evaluator.evaluate(query, costs)
    print(telemetry.counters["index.data_postings"])

Counter names are dotted paths (``section.metric``); the first segment
groups related counters into the per-stage sections a
:class:`~repro.telemetry.report.QueryReport` renders.  Collectors nest:
activating a second collector redirects counts to it until its block
exits, which lets a benchmark harness measure one point while an inner
query collects its own report.

Activation is **per thread**: every thread has its own active-collector
slot, so concurrently collecting queries on different threads can never
interleave counts into each other's report.  A :class:`Telemetry` object
itself is *not* thread-safe — the one thread that activated it fills it.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: the three collection modes of :meth:`repro.core.database.Database.query`
MODE_OFF = "off"
MODE_COUNTERS = "counters"
MODE_TIMINGS = "timings"
MODES = (MODE_OFF, MODE_COUNTERS, MODE_TIMINGS)


class Telemetry:
    """One collection of hierarchical counters and stage timings.

    ``counters`` maps dotted names to accumulated numbers; ``timings``
    maps stage names to accumulated wall seconds.  Timers only run when
    the collector was created with ``timed=True`` (the ``"timings"``
    collection mode) so counter-only collection never calls the clock.
    """

    __slots__ = ("counters", "timings", "timed")

    def __init__(self, timed: bool = False) -> None:
        self.counters: dict[str, float] = {}
        self.timings: dict[str, float] = {}
        self.timed = timed

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record ``value`` under ``name``, replacing any previous value
        (for quantities that are levels, not sums — e.g. the final k)."""
        self.counters[name] = value

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall time under stage ``name``."""
        timings = self.timings
        timings[name] = timings.get(name, 0.0) + seconds

    def sections(self) -> dict[str, dict[str, float]]:
        """Counters grouped by their first dotted segment, insertion
        order preserved within a section."""
        grouped: dict[str, dict[str, float]] = {}
        for name in sorted(self.counters):
            section, _, metric = name.partition(".")
            if not metric:
                section, metric = "misc", name
            grouped.setdefault(section, {})[metric] = self.counters[name]
        return grouped

    def __repr__(self) -> str:
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"timings={len(self.timings)}, timed={self.timed})"
        )


# ----------------------------------------------------------------------
# ambient activation (thread-local)
# ----------------------------------------------------------------------


class _CollectorState(threading.local):
    """Per-thread activation state.

    The active collector is **thread-local**: a collector activated on
    one thread is invisible to every other thread, so two concurrently
    collecting queries can never interleave counts into each other's
    report.
    """

    def __init__(self) -> None:
        self.active: "Telemetry | None" = None
        self.stack: list["Telemetry | None"] = []


_state = _CollectorState()


def current() -> "Telemetry | None":
    """The collector counts currently go to *on this thread*, or ``None``."""
    return _state.active


@contextmanager
def collecting(telemetry: "Telemetry | None") -> Iterator["Telemetry | None"]:
    """Activate ``telemetry`` on the calling thread for the duration of
    the block.

    Passing ``None`` deactivates collection inside the block (used to
    keep a warmup or a shadow evaluation out of an outer collection).
    Activation is thread-local: other threads' collections are unaffected.
    """
    state = _state
    state.stack.append(state.active)
    state.active = telemetry
    try:
        yield telemetry
    finally:
        state.active = state.stack.pop()


def count(name: str, amount: float = 1) -> None:
    """Add to a counter of the active collector; no-op when inactive."""
    telemetry = _state.active
    if telemetry is not None:
        counters = telemetry.counters
        counters[name] = counters.get(name, 0) + amount


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active collector; no-op when inactive."""
    telemetry = _state.active
    if telemetry is not None:
        telemetry.counters[name] = value


class _NullTimer:
    """Shared do-nothing context manager for the inactive/untimed case."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class _Timer:
    """Context manager accumulating one stage's wall time."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: Telemetry, name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._telemetry.add_time(self._name, time.perf_counter() - self._start)


def timer(name: str):
    """Context manager timing a stage on the active collector.

    Returns a shared no-op manager when no collector is active or the
    active collector is not timed, so wrapping hot stages is free in the
    default configuration.
    """
    telemetry = _state.active
    if telemetry is None or not telemetry.timed:
        return _NULL_TIMER
    return _Timer(telemetry, name)
