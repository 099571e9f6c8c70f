"""Record a baseline of the benchmark on this machine.

    python3 perfbench/baseline.py --label <commit or description>

Runs every workload once per seed (seeds 1..10) with tracing off, exactly as
``run.py`` does, and writes ``baseline.json`` next to this file: the machine
(Python version, CPU count, CPU model), for every end-to-end metric the ten
values with their median, quartiles and spread (quartile distance over
median, as ``statistics.quantiles(values, n=4)`` gives them), and a per-cell
table of the sweeps (median wall ms and cases_run).  The per-cell table is
not gated: cells of one sweep share lru_cache tables, so a cell's time
depends on which cells ran before it in the same process.

Earlier sets are kept: the ``repeat_sets`` and ``spread_note`` of an existing
``baseline.json`` carry over, and the set being replaced is appended to
``repeat_sets`` as its medians and spreads, under its label.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")
SEEDS = range(1, 11)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def earlier_sets() -> dict:
    """``repeat_sets`` and ``spread_note`` of the existing baseline, plus its own set."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            old = json.load(fh)
    except FileNotFoundError:
        return {}
    sets = old.get("repeat_sets", [])
    sets.append({
        "note": f"ten-seed set recorded as {old['label']!r}, replaced by a later set",
        "workloads": {name: {metric: {"median": s["median"], "spread": s["spread"]}
                             for metric, s in w["metrics"].items()}
                      for name, w in old["workloads"].items()},
    })
    kept = {"repeat_sets": sets}
    if "spread_note" in old:
        kept["spread_note"] = old["spread_note"]
    return kept


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    doc = {
        "label": args.label,
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "cpu_model": cpu_model()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "cells_note": "Not gated. Cells of one sweep share lru_cache tables, so a cell's "
                      "time depends on which cells ran before it in the same process.",
        "workloads": {},
    }
    for name in workloads.NAMES:
        values: dict[str, list[float]] = {}
        cells: dict[str, list[dict]] = {}
        failed = attempted = 0
        for seed in doc["seeds"]:
            ns = argparse.Namespace(workload=name, seed=seed, seconds=seconds, trace=0,
                                    smoke=False)
            result, workers = run.run_workload(ns)
            failed += result["failed"]
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            for w in workers:
                for cell in w.get("cells", ()):
                    cells.setdefault(f"{cell['check']}:{cell['n']}", []).append(cell)
        doc["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "metrics": {metric: summary(v) for metric, v in values.items()},
            "cells": [{"cell": key, "wall_ms_median": statistics.median(c["ms"] for c in cs),
                       "wall_ms_min": min(c["ms"] for c in cs),
                       "wall_ms_max": max(c["ms"] for c in cs),
                       "cases_run": sorted({c["cases_run"] for c in cs})}
                      for key, cs in cells.items()],
        }
    doc.update(earlier_sets())
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, w in doc["workloads"].items():
        for metric, s in w["metrics"].items():
            print(f"{name:<14} {metric:<12} median {s['median']:.6g}  spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
