"""Printing, the driver's one-line contract, and ``compare``."""

from __future__ import annotations

import json
import math
import os
import statistics

from . import REPO_ROOT, spec


def load_benchmark_json() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def contract_line(record: dict) -> str:
    """The last line of standard output the driver reads: the end-to-end
    metrics of an untraced run, the per-layer metrics of a traced one.  A
    metric that does not apply to the workload, or whose trace target is
    gone, is ``null`` in the result file and 0 here (the driver wants a
    number for every declared metric)."""
    declared = spec.PER_LAYER if record["trace"] else spec.END_TO_END
    metrics = {}
    for name, unit, *_ in declared:
        value = record["metrics"].get(name)
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def _units() -> dict:
    units = {name: unit for name, unit, *_ in spec.END_TO_END}
    units.update({name: unit for name, unit, _ in spec.PER_LAYER})
    return units


def format_record(record: dict) -> str:
    """Every metric of one run by name, with its unit."""
    units = _units()
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    lines = [
        f"== {record['workload']}  seed={record['seed']}  {kind}"
        f"  attempted={record['attempted']} failed={record['failed']}"
        + (f"  ablate={record['ablate']}" if record.get("ablate") else "")
    ]
    for name, value in record["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<44}{shown:>14} {units.get(name, '')}")
    digests = record.get("digests")
    if digests:
        lines.append(f"  inputs sha256 {digests['inputs'][:16]}  stream sha256 {digests['stream'][:16]}")
    detail = record.get("detail", {})
    if "samples" in detail:
        lines.append(
            f"  samples: {detail['samples']['reads']} reads, {detail['samples']['writes']} "
            f"writes over {detail['passes']} timed pass(es), {detail['timed_wall_s']:.2f} s"
        )
    if "layer_share" in detail:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in detail["layer_share"].items())
        lines.append(f"  self-time share by layer: {shares}")
    for message in record.get("failures", []):
        lines.append(f"  FAILED: {message}")
    return "\n".join(lines)


def figure7_table(records: list) -> str:
    """Direct vs. schema vs. what ``Database.plan`` would pick, per cell
    (needs the traced runs of both fig7 workloads)."""
    traced = {r["workload"]: r for r in records if r["trace"]}
    if not {"fig7-direct", "fig7-schema"} <= set(traced):
        return ""
    direct, schema = traced["fig7-direct"], traced["fig7-schema"]
    picks = schema.get("plan_picks") or {}
    lines = [
        "Figure 7 (mean ms per query; auto = queries for which Database.plan picks schema)",
        f"{'cell':<14}{'direct':>10}{'schema':>10}{'faster':>9}{'auto':>14}",
    ]
    for cell in spec.FIG7_CELLS:
        name = spec.cell_name(cell)
        d = direct["metrics"][f"fig7.{name}.mean_ms"]
        s = schema["metrics"][f"fig7.{name}.mean_ms"]
        pick = picks.get(name)
        auto = f"schema {pick[0]}/{pick[1]}" if pick else ""
        lines.append(
            f"{name:<14}{d:>10.2f}{s:>10.2f}{'schema' if s < d else 'direct':>9}{auto:>14}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def _spread(values: list) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def _group(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)["runs"]
    grouped: dict = {}
    for record in records:
        if record["trace"]:
            continue
        for name, value in record["metrics"].items():
            if value is not None:
                grouped.setdefault((record["workload"], name), []).append(value)
    return grouped


def compare(path_a: str, path_b: str) -> "tuple[str, int]":
    """One row per (workload, end-to-end metric): both medians, the ratio
    B/A with its base, and ``worse`` / ``ok`` / ``unresolved`` (spread of
    either side wider than the bound) against the bounds in
    ``BENCHMARK.json`` and, for the end-to-end metrics the driver does not
    gate, in ``spec.END_TO_END_UNGATED``.  Returns the table and the number
    of ``worse`` rows."""
    bounds = {name: (better, bound) for name, _, better, bound in spec.END_TO_END_UNGATED}
    bounds.update(
        {m["name"]: (m["better"], m["bound"]) for m in load_benchmark_json()["end_to_end"]}
    )
    a, b = _group(path_a), _group(path_b)
    lines = [
        f"A = {path_a}\nB = {path_b}",
        f"{'workload':<14}{'metric':<16}{'A median':>12}{'B median':>12}"
        f"{'B/A':>8}{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict",
    ]
    worse = 0
    for (workload, metric), values_a in sorted(a.items()):
        values_b = b.get((workload, metric))
        if metric not in bounds or not values_b:
            continue
        better, bound = bounds[metric]
        median_a, median_b = statistics.median(values_a), statistics.median(values_b)
        if not median_a:  # failed_share: any rise from 0 is a regression
            ratio = math.inf if median_b else 1.0
        else:
            ratio = median_b / median_a
        spread_a, spread_b = _spread(values_a), _spread(values_b)
        change = ratio - 1 if better == "lower" else 1 - ratio
        if max(spread_a, spread_b) > bound:
            verdict = "unresolved"
        elif change > bound:
            verdict = "worse"
            worse += 1
        else:
            verdict = "ok"
        lines.append(
            f"{workload:<14}{metric:<16}{median_a:>12.5g}{median_b:>12.5g}{ratio:>8.3f}"
            f"{spread_a:>10.1%}{spread_b:>10.1%}{bound:>7.0%}  {verdict}"
            f" (n={len(values_a)}/{len(values_b)})"
        )
    return "\n".join(lines), worse
