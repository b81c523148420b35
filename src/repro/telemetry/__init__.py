"""Engine-wide telemetry: hierarchical counters, timers, query reports.

The subsystem has two halves:

* :mod:`repro.telemetry.collector` — the ambient :class:`Telemetry`
  collector every layer (store log, posting codecs, indexes, both
  evaluators) reports into while one is active; activation costs one
  context manager, inactivity costs one ``None`` check per report site.
* :mod:`repro.telemetry.report` — :class:`QueryReport`, the structured
  per-query summary carried by :class:`~repro.core.results.ResultSet`
  and printed by ``repro query --stats``.

The paper's §8 comparison is quantitative — fewer postings touched,
shorter lists — and this module is the instrument panel that lets every
later optimization prove *why* its numbers moved.
"""

from .collector import (
    MODE_COUNTERS,
    MODE_OFF,
    MODE_TIMINGS,
    MODES,
    Telemetry,
    collecting,
    count,
    current,
    gauge,
    timer,
)
from .report import QueryReport

__all__ = [
    "MODES",
    "MODE_COUNTERS",
    "MODE_OFF",
    "MODE_TIMINGS",
    "QueryReport",
    "Telemetry",
    "collecting",
    "count",
    "current",
    "gauge",
    "timer",
]
