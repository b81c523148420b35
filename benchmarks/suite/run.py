#!/usr/bin/env python3
"""The benchmark of the approXQL engine: one command, four workloads.

    python3 benchmarks/suite/run.py                      # every workload: untraced + traced
    python3 benchmarks/suite/run.py --workload fig7-schema --runs 5 --out A.json
    python3 benchmarks/suite/run.py compare A.json B.json
    python3 benchmarks/suite/run.py --workload stored-churn --ablate posting_cache

The driver's form measures one workload once in this process and prints
one JSON object as the last line of standard output:

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

See ``README.md`` next to this file for the workloads, the metrics and how
to read the trace.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import apxbench
from apxbench import spec
from apxbench.workloads import ABLATIONS, WORKLOAD_CLASSES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=spec.PINNED_SEED)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure once in this process: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="result file (default: results/run-<time>.json)")
    parser.add_argument("--ablate", choices=ABLATIONS,
                        help="rerun --workload with this one option flipped, next to a baseline")
    parser.add_argument("--smoke", action="store_true", help="seconds-long size (self-test)")
    parser.add_argument("--record-out", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help="write the kept spans of a traced run here (JSON)")
    return parser


def _default_seconds() -> float:
    from apxbench.report import load_benchmark_json

    try:
        return float(load_benchmark_json()["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 10.0


def _measure_here(args) -> int:
    """The driver's form: one run, result as the last line of stdout."""
    from apxbench import measure, report

    record = measure.run(
        args.workload,
        args.seed,
        args.seconds if args.seconds is not None else _default_seconds(),
        bool(args.trace),
        smoke=args.smoke,
        ablate=args.ablate,
        setup_reps=1 if args.smoke else measure.SETUP_REPS,
        spans_out=args.spans_out,
    )
    record["environment"] = spec.environment(args.seed)
    if args.record_out:
        with open(args.record_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    print(report.format_record(record))
    print(report.contract_line(record))
    return 0


def _child(args, workload: str, trace: int, seed: int, ablate=None) -> dict:
    """Measure in a child process (its own interpreter, its own peak RSS)."""
    with tempfile.NamedTemporaryFile(
        dir=apxbench.RESULTS_DIR, suffix=".json", delete=False
    ) as handle:
        record_path = handle.name
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--record-out", record_path,
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if ablate:
        command += ["--ablate", ablate]
    if trace and not args.smoke:
        command += ["--spans-out", os.path.join(apxbench.RESULTS_DIR, f"spans-{workload}.json")]
    try:
        finished = subprocess.run(command, capture_output=True, text=True)
        if finished.returncode != 0:
            sys.stderr.write(finished.stdout + finished.stderr)
            raise SystemExit(f"{workload}: measuring run exited with {finished.returncode}")
        sys.stderr.write(finished.stderr)
        with open(record_path, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        os.remove(record_path)


def _suite(args) -> int:
    from apxbench import report

    os.makedirs(apxbench.RESULTS_DIR, exist_ok=True)
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    records = []
    for workload in workloads:
        for _ in range(args.runs):
            records.append(_child(args, workload, 0, args.seed))
            print(report.format_record(records[-1]), flush=True)
        records.append(_child(args, workload, 1, args.seed))
        print(report.format_record(records[-1]), flush=True)
    table = report.figure7_table(records)
    if table:
        print(table)
    out = args.out or os.path.join(apxbench.RESULTS_DIR, f"run-{int(time.time())}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"environment": spec.environment(args.seed), "runs": records}, handle, indent=1)
    print(f"results written to {out}")
    return 1 if any(record["failed"] for record in records) else 0


def _ablate(args) -> int:
    """Baseline and ablated run of one workload, same seed; not part of
    the default command or its time budget."""
    from apxbench import report

    if not args.workload:
        raise SystemExit("--ablate needs --workload")
    applicable = WORKLOAD_CLASSES[args.workload].ablations
    if args.ablate not in applicable:
        raise SystemExit(
            f"--ablate {args.ablate} does not apply to {args.workload} "
            f"(it has: {', '.join(applicable)})"
        )
    os.makedirs(apxbench.RESULTS_DIR, exist_ok=True)
    paths = []
    for ablate in (None, args.ablate):
        records = [_child(args, args.workload, 0, args.seed, ablate) for _ in range(args.runs)]
        print(report.format_record(records[-1]), flush=True)
        path = os.path.join(apxbench.RESULTS_DIR, f"ablate-{ablate or 'baseline'}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"environment": spec.environment(args.seed), "runs": records}, handle)
        paths.append(path)
    print(f"A = baseline, B = {args.ablate} flipped")
    print(report.compare(*paths)[0])
    return 0


def main(argv: list) -> int:
    if not os.path.isdir(os.path.join(apxbench.REPO_ROOT, "src", "repro")):
        raise SystemExit("benchmarks/suite measures the repro package: src/repro is not in this checkout")
    if argv and argv[0] == "compare":
        from apxbench import report

        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        table, worse = report.compare(argv[1], argv[2])
        print(table)
        return 1 if worse else 0
    args = _parser().parse_args(argv)
    if args.trace is not None:
        if not args.workload:
            raise SystemExit("--trace needs --workload")
        if args.ablate == "numpy_kernel":
            os.environ["REPRO_NUMPY"] = "1"  # before the first import of repro
        return _measure_here(args)
    if args.ablate:
        return _ablate(args)
    return _suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
