"""Durability benchmarks: what the record log's commits cost.

Three experiments:

* **Database save** — writing the single-file store of the Figure 7a
  workload collection: one frame to a temporary file, fsync, rename.
* **Commit batches** — a raw :class:`FileStore` update workload (puts in
  committed batches) at several batch sizes.  Every commit is one
  appended, fsynced frame, so small batches pay the fsync most often;
  this sweep shows the commit-rate / throughput trade.
* **Recovery** — time to reopen a store whose last commit was torn by a
  kill, as a function of the committed puts before it.

Standalone usage (writes the committed ``BENCH_wal.json`` baseline)::

    PYTHONPATH=src python benchmarks/bench_wal.py --scale tiny --out BENCH_wal.json

The module also exposes pytest-benchmark points when collected with
``pytest benchmarks/bench_wal.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

import pytest

from repro import Database
from repro.bench.workloads import SCALES, get_workload
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.kv import FileStore
from repro.telemetry.collector import Telemetry, collecting

PASSES = 3
BATCH_SIZES = (1, 16, 256)
KV_OPS = 1024
RECOVERY_PUTS = (64, 512)


def _kv_pairs(count: int):
    return [
        (f"key{i:08d}".encode(), bytes([i % 251 or 1]) * (64 + i % 512))
        for i in range(count)
    ]


def _timed(fn) -> "tuple[float, object]":
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def save_database(tree, path: str) -> None:
    Database.from_tree(tree).save(path)


def measure_save(tree, directory: str) -> dict:
    """Wall time of saving the workload collection, plus the ``wal.*``
    counters of one instrumented save."""
    path = os.path.join(directory, "save.apxq")
    times = [_timed(lambda: save_database(tree, path))[0] for _ in range(PASSES)]
    telemetry = Telemetry()
    with collecting(telemetry):
        save_database(tree, path)
    return {
        "pass_seconds": times,
        "best_seconds": min(times),
        "file_bytes": os.path.getsize(path),
        "counters": {
            name: value
            for name, value in sorted(telemetry.counters.items())
            if name.startswith("wal.")
        },
    }


def commit_batches(path: str, batch_size: int, ops: int = KV_OPS) -> None:
    """The raw store workload: ``ops`` puts, committed every ``batch_size``."""
    if os.path.exists(path):
        os.remove(path)
    with FileStore(path) as store:
        for index, (key, value) in enumerate(_kv_pairs(ops)):
            store.put(key, value)
            if (index + 1) % batch_size == 0:
                store.commit()


def measure_commit_batches(directory: str) -> list[dict]:
    points = []
    for batch_size in BATCH_SIZES:
        path = os.path.join(directory, f"kv-{batch_size}.apxq")
        times = [_timed(lambda: commit_batches(path, batch_size))[0] for _ in range(PASSES)]
        points.append(
            {
                "batch_size": batch_size,
                "ops": KV_OPS,
                "pass_seconds": times,
                "best_seconds": min(times),
                "file_bytes": os.path.getsize(path),
            }
        )
    return points


def crashed_store(path: str, puts: int) -> None:
    """Commit ``puts`` puts one frame each, then kill the next commit
    halfway through its write, leaving a torn tail for the reopen."""
    if os.path.exists(path):
        os.remove(path)
    injector = FaultInjector()
    store = FileStore(path, opener=injector.opener())
    for key, value in _kv_pairs(puts):
        store.put(key, value)
        store.commit()
    injector.kill_after_ops = injector.mutating_ops
    store.put(b"torn", b"x" * 4096)
    try:
        store.commit()
    except SimulatedCrash:
        pass
    store._file.close()


def measure_recovery(directory: str) -> list[dict]:
    points = []
    for puts in RECOVERY_PUTS:
        path = os.path.join(directory, f"recover-{puts}.apxq")
        times = []
        recoveries = 0
        for _ in range(PASSES):
            crashed_store(path, puts)
            telemetry = Telemetry()

            def _reopen():
                with collecting(telemetry):
                    FileStore(path, must_exist=True).close()

            seconds, _ = _timed(_reopen)
            times.append(seconds)
            recoveries = int(telemetry.counters.get("wal.recoveries", 0))
        points.append(
            {
                "committed_puts": puts,
                "recoveries": recoveries,
                "pass_seconds": times,
                "best_seconds": min(times),
            }
        )
    return points


# ----------------------------------------------------------------------
# pytest-benchmark points
# ----------------------------------------------------------------------


def bench_save(benchmark, workload, tmp_path):
    path = str(tmp_path / "save.apxq")
    benchmark.pedantic(
        save_database, args=(workload.tree, path), rounds=2, iterations=1, warmup_rounds=1
    )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def bench_commit_batches(benchmark, tmp_path, batch_size):
    path = str(tmp_path / "kv.apxq")
    benchmark.pedantic(
        commit_batches,
        args=(path, batch_size),
        kwargs={"ops": KV_OPS // 4},
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )


def bench_recovery_replay(benchmark, tmp_path):
    path = str(tmp_path / "recover.apxq")

    def _setup():
        crashed_store(path, RECOVERY_PUTS[0])
        return (), {}

    def _reopen():
        FileStore(path, must_exist=True).close()

    benchmark.pedantic(_reopen, setup=_setup, rounds=3, iterations=1)


# ----------------------------------------------------------------------
# standalone baseline writer
# ----------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument("--out", default=None, help="write the JSON baseline here")
    args = parser.parse_args(argv)

    tree = get_workload(args.scale).tree
    with tempfile.TemporaryDirectory() as directory:
        record = {
            "workload": {"scale": args.scale, "passes": PASSES, "kv_ops": KV_OPS},
            "save": measure_save(tree, directory),
            "commit_batches": measure_commit_batches(directory),
            "recovery": measure_recovery(directory),
        }

    rendered = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"baseline written to {args.out}")
    else:
        print(rendered, end="")

    print(f"save: {record['save']['best_seconds'] * 1000:.1f} ms", file=sys.stderr)
    for point in record["commit_batches"]:
        print(
            f"commit every {point['batch_size']:>3}: "
            f"{point['best_seconds'] * 1000:.1f} ms for {point['ops']} puts",
            file=sys.stderr,
        )
    for point in record["recovery"]:
        print(
            f"reopen after a torn commit ({point['committed_puts']} frames): "
            f"{point['best_seconds'] * 1000:.1f} ms",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
