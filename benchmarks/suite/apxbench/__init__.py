"""The benchmark suite of the approXQL engine (see ``../README.md``).

The suite measures ``repro`` strictly from outside, so the one thing it
needs from the checkout is ``src/`` on the import path.
"""

import os
import resource
import sys

SUITE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
RESULTS_DIR = os.path.join(SUITE_DIR, "results")

_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB.

    Linux's ``VmHWM`` where ``/proc`` has it: ``ru_maxrss`` survives
    fork+exec, so a process started by a 300 MB parent reports 300 MB
    before it has allocated anything.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
