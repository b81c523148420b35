"""What one run of an evaluator did, read the way any caller can: the
counters of a collecting block."""

from repro.telemetry.collector import Telemetry, collecting


def observe(evaluator, *args, method="evaluate", **kwargs):
    """``(results, counters)`` of one ``evaluator.<method>`` call."""
    telemetry = Telemetry()
    with collecting(telemetry):
        results = getattr(evaluator, method)(*args, **kwargs)
    return results, telemetry.counters
