"""What one run of the incremental schema driver did, read the way any
caller can: the ``schema.*`` / ``index.*`` counters of a collecting block
and the final ``DriverState`` handed to ``state_sink``."""

from repro.telemetry.collector import Telemetry, collecting


def observe(evaluator, *args, **kwargs):
    """``(results, counters, state)`` of one ``evaluator.evaluate`` call."""
    telemetry = Telemetry()
    states = []
    with collecting(telemetry):
        results = evaluator.evaluate(*args, state_sink=states.append, **kwargs)
    return results, telemetry.counters, states[0]
