"""Command-line entry point of the benchmark harness.

Examples::

    python -m repro.bench figure7 --pattern 1 --scale small
    python -m repro.bench figure7 --pattern 2 --renamings 0 5
    python -m repro.bench figure7 --pattern 1 --quick
    python -m repro.bench figure7 --pattern 1 --telemetry-out fig7a.json
    python -m repro.bench schema-info --scale paper
"""

from __future__ import annotations

import argparse
import sys

from .chart import render_chart
from .figure7 import (
    DEFAULT_N_VALUES,
    format_markdown,
    format_series,
    points_to_json,
    run_figure7,
)
from .workloads import SCALES, get_workload


def _parse_n(value: str) -> "int | None":
    if value.lower() in ("inf", "all", "none"):
        return None
    return int(value)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    commands = parser.add_subparsers(dest="command", required=True)

    figure7 = commands.add_parser(
        "figure7", help="regenerate one panel of the paper's Figure 7"
    )
    figure7.add_argument("--pattern", type=int, choices=(1, 2, 3), required=True)
    figure7.add_argument("--scale", choices=sorted(SCALES), default="small")
    figure7.add_argument("--renamings", type=int, nargs="+", default=[0, 5, 10])
    figure7.add_argument(
        "--n",
        type=_parse_n,
        nargs="+",
        default=list(DEFAULT_N_VALUES),
        help="requested result counts; 'inf' for all results",
    )
    figure7.add_argument("--queries", type=int, default=10, help="queries per point")
    figure7.add_argument(
        "--markdown", action="store_true", help="emit a Markdown table (EXPERIMENTS.md format)"
    )
    figure7.add_argument(
        "--chart", action="store_true", help="draw an ASCII log-scale chart of the panel"
    )
    figure7.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: tiny scale, 2 queries per point, n in {1, 10}, "
        "renamings in {0, 5} — seconds instead of minutes, for CI",
    )
    figure7.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="collect engine telemetry during the run and write a JSON "
        "sidecar (per-point counters: postings decoded, "
        "second-level queries)",
    )

    info = commands.add_parser("schema-info", help="print collection and schema sizes")
    info.add_argument("--scale", choices=sorted(SCALES), default="small")

    args = parser.parse_args(argv)

    if args.command == "figure7":
        scale = args.scale
        renamings = tuple(args.renamings)
        n_values = tuple(args.n)
        queries = args.queries
        if args.quick:
            scale = "tiny"
            renamings = tuple(r for r in renamings if r <= 5) or (0, 5)
            n_values = tuple(n for n in n_values if n is not None and n <= 10) or (1, 10)
            queries = min(queries, 2)
        points = run_figure7(
            args.pattern,
            scale=scale,
            renamings_counts=renamings,
            n_values=n_values,
            queries_per_point=queries,
            collect_telemetry=args.telemetry_out is not None,
        )
        if args.chart:
            print(render_chart(points, scale))
        else:
            formatter = format_markdown if args.markdown else format_series
            print(formatter(points, scale))
        if args.telemetry_out:
            with open(args.telemetry_out, "w", encoding="utf-8") as handle:
                handle.write(points_to_json(points, scale) + "\n")
            print(f"telemetry sidecar written to {args.telemetry_out}")
        return 0

    if args.command == "schema-info":
        from ..xmltree.stats import collect_statistics

        workload = get_workload(args.scale)
        statistics = collect_statistics(workload.tree, workload.schema)
        print(f"scale={args.scale}:")
        print(statistics.format())
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
