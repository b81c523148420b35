"""Operator microbenchmark: columnar kernel vs the entry-shaped reference.

Times ``join`` / ``outerjoin`` / ``merge`` at several list sizes and
ancestor-window widths (the *l* of the Section 6.5 bound: how many
descendants each ancestor's interval spans), once through the retained
reference kernel (:mod:`repro.engine.reference`, one ``ListEntry`` object
per row) and once through the production columnar kernel
(:mod:`repro.engine.ops` over :class:`~repro.engine.columns.EvalColumns`;
each join picks sparse tables or slice sweeps from its input, and the
cases sit on both sides of that choice).  Inputs are prebuilt outside the
timing loop — a list that was worth a sparse table keeps it across
calls, so steady-state per-call cost is the honest comparison.

The run **fails (exit 1) when the columnar kernel is slower than the
reference on any large-list case** — the CI ``bench-smoke`` job runs
``--quick`` as a regression gate.

Standalone usage (writes the committed ``BENCH_ops.json`` baseline)::

    PYTHONPATH=src python benchmarks/bench_ops.py --out BENCH_ops.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from repro.engine import ops, reference
from repro.engine.columns import as_columns
from repro.engine.entries import ListEntry

# (name, ancestor count, descendant count, window) — window is how many
# descendant pres each ancestor interval covers; "large" cases gate CI
CASES = (
    ("small-narrow", 200, 400, 4, False),
    ("medium", 1_000, 5_000, 25, False),
    ("large-wide", 2_000, 20_000, 200, True),
    ("large-deep", 500, 40_000, 1_000, True),
)
MERGE_SIZES = ((1_000, False), (10_000, True), (50_000, True))


def make_descendants(count: int) -> list:
    """A flat descendant list; costs vary so range minima are non-trivial."""
    return [
        ListEntry(2 * i + 1, 2 * i + 1, float(i % 17), 0.0, float(i % 5), float(i % 7))
        for i in range(count)
    ]


def make_ancestors(count: int, descendants: int, window: int) -> list:
    """Ancestors whose intervals each cover ``window`` descendant pres,
    sliding over the descendant range (overlapping -> nesting-like reuse
    of the same descendants by many ancestors)."""
    last_pre = 2 * descendants
    step = max(2, (last_pre - 2 * window) // max(1, count))
    result = []
    for i in range(count):
        pre = i * step
        result.append(ListEntry(pre, pre + 2 * window, float(i % 9), 1.0, 0.0, 0.0))
    return result


def interleaved(count: int, offset: int) -> list:
    return [
        ListEntry(3 * i + offset, 3 * i + offset, float(i % 11), 1.0, float(i % 3), float(i % 3))
        for i in range(count)
    ]


def best_call_seconds(func, args, repeats: int, rounds: int = 3) -> float:
    """Best-of-``rounds`` mean seconds per call over ``repeats`` calls."""
    best = math.inf
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repeats):
            func(*args)
        elapsed = (time.perf_counter() - started) / repeats
        best = min(best, elapsed)
    return best


def run_cases(quick: bool) -> list[dict]:
    results = []
    for name, ancestor_count, descendant_count, window, large in CASES:
        if quick and not large and name != "medium":
            continue
        ancestors = make_ancestors(ancestor_count, descendant_count, window)
        descendants = make_descendants(descendant_count)
        ancestor_columns = as_columns(ancestors)
        descendant_columns = as_columns(descendants)
        repeats = 3 if large else 10
        if quick:
            repeats = max(1, repeats // 3)
        for op_name, ref_func, col_func, extra in (
            ("join", reference.join, ops.join, (0.0,)),
            ("outerjoin", reference.outerjoin, ops.outerjoin, (0.0, 5.0)),
        ):
            ref_seconds = best_call_seconds(
                ref_func, (ancestors, descendants) + extra, repeats
            )
            col_seconds = best_call_seconds(
                col_func, (ancestor_columns, descendant_columns) + extra, repeats
            )
            results.append(
                {
                    "op": op_name,
                    "case": name,
                    "ancestors": ancestor_count,
                    "descendants": descendant_count,
                    "window": window,
                    "large": large,
                    "reference_ms": ref_seconds * 1e3,
                    "columnar_ms": col_seconds * 1e3,
                    "speedup": ref_seconds / col_seconds if col_seconds else math.inf,
                }
            )
    for size, large in MERGE_SIZES:
        if quick and not large:
            continue
        left = interleaved(size, 0)
        right = interleaved(size, 1)
        left_columns = as_columns(left)
        right_columns = as_columns(right)
        repeats = 3 if large else 10
        if quick:
            repeats = max(1, repeats // 3)
        ref_seconds = best_call_seconds(reference.merge, (left, right, 2.0), repeats)
        col_seconds = best_call_seconds(ops.merge, (left_columns, right_columns, 2.0), repeats)
        results.append(
            {
                "op": "merge",
                "case": f"interleaved-{size}",
                "ancestors": size,
                "descendants": size,
                "window": 0,
                "large": large,
                "reference_ms": ref_seconds * 1e3,
                "columnar_ms": col_seconds * 1e3,
                "speedup": ref_seconds / col_seconds if col_seconds else math.inf,
            }
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: large cases only, few repeats")
    parser.add_argument("--out", help="write the JSON baseline to this path")
    args = parser.parse_args(argv)

    payload = {
        "benchmark": "bench_ops",
        "quick": args.quick,
        "cases": run_cases(args.quick),
    }

    header = f"{'op':<10} {'case':<18} {'reference':>12} {'columnar':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for case in payload["cases"]:
        print(
            f"{case['op']:<10} {case['case']:<18} "
            f"{case['reference_ms']:>10.3f}ms {case['columnar_ms']:>10.3f}ms "
            f"{case['speedup']:>8.2f}x"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")

    # regression gate: the columnar kernel must not lose on large lists
    failures = [
        case for case in payload["cases"] if case["large"] and case["speedup"] < 1.0
    ]
    if failures:
        for case in failures:
            print(
                f"FAIL: columnar {case['op']} slower than reference on "
                f"{case['case']} ({case['speedup']:.2f}x)",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
