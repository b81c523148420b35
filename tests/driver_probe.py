"""What one run of an evaluator did, read the way any caller can: the
counters of a collecting block and, for the incremental schema driver,
the final ``DriverState`` handed to ``state_sink``."""

from repro.engine.evaluator import DirectEvaluator
from repro.telemetry.collector import Telemetry, collecting


def observe(evaluator, *args, method="evaluate", **kwargs):
    """``(results, counters, state)`` of one ``evaluator.<method>`` call;
    ``state`` is ``None`` for the direct evaluator, which has none."""
    telemetry = Telemetry()
    states = []
    if not isinstance(evaluator, DirectEvaluator):
        kwargs["state_sink"] = states.append
    with collecting(telemetry):
        results = getattr(evaluator, method)(*args, **kwargs)
    return results, telemetry.counters, states[0] if states else None
