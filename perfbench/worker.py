"""One measured process of the benchmark.

``run.py`` starts this file in a fresh interpreter for every sweep, every
file-ops loop and every set-up probe.  The worker imports kostantcheck from
the checkout's ``src``, sets up (for file-ops: one warm-up operation per
(operation, grading)), does its work, checks every output after the timed
region and prints one JSON object as its last line of output.

Roles:
    probe   set up and stop: one more ``setup_s`` sample;
    sweep   run the workload's verify invocations once, with cold caches;
    ops     run the file-ops closed loop for ``--seconds`` or ``--rounds`` rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program under test is the checkout's own source tree, never an
# installed copy.
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def _call(cli, argv: list[str]) -> int | str:
    """cli.main's exit code; a crash counts as a failed operation, not a
    failed benchmark."""
    try:
        return cli.main(argv)
    except Exception:  # noqa: BLE001 - reported as the operation's failure
        traceback.print_exc()
        return "exception"


def _verify(cli, argv: list[str]) -> tuple[int | str, object]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _call(cli, argv)
    try:
        return code, json.loads(buf.getvalue())
    except ValueError:
        return code, None


def run_sweep(cli, plan, seed: int, tracer):
    """One pass over the workload's verify invocations, each of them an
    operation; cells are timed too, for the baseline's per-cell table.
    Returns the measurements and the check to run after the timed region."""
    cells: list[dict] = []
    run_check = cli.run_check

    def timed_cell(name, n, cell_seed, trials):
        if tracer is not None:
            tracer.begin_run()
        start = time.perf_counter()
        rep = run_check(name, n, cell_seed, trials)
        if rep is not None:
            cells.append({"check": name, "n": n, "cases_run": rep.cases,
                          "ms": (time.perf_counter() - start) * 1000})
        return rep

    cli.run_check = timed_cell
    outputs = []
    op_ms: dict[str, list[float]] = {}
    start = time.perf_counter()
    for check, n_min, n_max, trials in plan:
        t0 = time.perf_counter()
        outputs.append(_verify(cli, workloads.verify_argv(check, n_min, n_max, trials, seed)))
        op_ms[f"{check}:{n_min}-{n_max}"] = [(time.perf_counter() - t0) * 1000]
    work_s = time.perf_counter() - start
    cli.run_check = run_check
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check() -> tuple[int, list[str]]:
        failures: list[str] = []
        attempted = 0
        for (name, n_min, n_max, _), (code, rows) in zip(plan, outputs):
            expected = workloads.expected_cells(name, n_min, n_max)
            listed = rows if isinstance(rows, list) else []
            attempted += len(expected) + sum(
                1 for row in listed if (row.get("check"), row.get("n")) not in expected)
            failures += oracle.check_rows(rows, code, expected)
        return attempted, failures

    return {"work_s": work_s, "rss_mb": rss_mb, "cells": cells, "pass_ops": list(op_ms),
            "op_ms": op_ms, "passes_s": [work_s]}, check


def _op_argv(entry: dict, output: str) -> list[str]:
    argv = [entry["op"], "--input", entry["path"], "--output", output]
    return argv + ["--source", entry["source"]] if entry["source"] else argv


def schedule(manifest: list[dict], seed: int, repeats: int) -> list[dict]:
    """One seeded round: every sparse input ``repeats`` times and every
    dense input once, shuffled."""
    rnd = [e for e in manifest for _ in range(repeats if e["density"] == "sparse" else 1)]
    random.Random(f"{seed}:file-ops-schedule").shuffle(rnd)
    return rnd


def warm_up(cli, manifest: list[dict], output: str) -> None:
    """One operation per (operation, grading): fills the graded_sl and
    build_maps caches the way a long-running caller's first requests do."""
    done = set()
    for entry in manifest:
        key = (entry["op"], entry["source"], tuple(entry["blocks"]))
        if key not in done:
            done.add(key)
            if cli.main(_op_argv(entry, output)) != 0:
                raise SystemExit(f"warm-up operation failed: {entry['path']}")


def run_ops(cli, manifest, seed, seconds, rounds, tracer, output):
    """The closed loop: one client, next request after the previous reply,
    cycling through the seeded round until ``seconds`` pass or ``rounds``
    rounds are done.  Every output is compared with the first output of
    the same request; the oracle checks the first ones after the timed region."""
    rnd = schedule(manifest, seed, workloads.SPARSE_REPEATS)
    keys = [f"{e['op']}:{os.path.basename(e['path'])}" for e in rnd]
    count = rounds * len(rnd)
    latencies: list[float] = []
    op_ms: dict[str, list[float]] = {}
    passes_s: list[float] = []
    first: dict[str, tuple[dict, str]] = {}
    failures: list[str] = []
    start = time.perf_counter()
    deadline = start + seconds
    # A time-bound loop still completes at least one round.
    while (len(latencies) < count if count else
           time.perf_counter() < deadline or len(latencies) < len(rnd)):
        entry, key = rnd[len(latencies) % len(rnd)], keys[len(latencies) % len(rnd)]
        if tracer is not None:
            tracer.begin_run()
        t0 = time.perf_counter()
        code = _call(cli, _op_argv(entry, output))
        latencies.append((time.perf_counter() - t0) * 1000)
        op_ms.setdefault(key, []).append(latencies[-1])
        if len(latencies) % len(rnd) == 0:
            passes_s.append(sum(latencies[-len(rnd):]) / 1000)
        if code != 0:
            failures.append(f"{key}: exit code {code}")
            continue
        with open(output, encoding="utf-8") as fh:
            text = fh.read()
        if first.setdefault(key, (entry, text))[1] != text:
            failures.append(f"{key}: output differs from the first run")
    work_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check() -> tuple[int, list[str]]:
        for key, (entry, text) in first.items():
            problem = oracle.check_output(entry, text)
            if problem is not None:
                failures.extend([problem] * len(op_ms[key]))
        return len(latencies), failures

    return {"work_s": work_s, "rss_mb": rss_mb, "pass_ops": keys, "op_ms": op_ms,
            "passes_s": passes_s}, check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("probe", "sweep", "ops"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before starting this process")
    parser.add_argument("--tmp", required=True, help="scratch directory for file-ops")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="file-ops: stop after this many schedule rounds, not --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import kostantcheck.cli as cli

    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.install()
    caches_before = tracer.snapshot_caches() if tracer else None
    output = os.path.join(args.tmp, f"out-{os.getpid()}.json")
    manifest = None
    if args.workload == workloads.FILE_OPS:
        with open(os.path.join(args.tmp, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        warm_up(cli, manifest, output)
    result: dict = {"setup_s": time.monotonic() - args.t0}

    if args.role == "probe":
        print(json.dumps(result))
        return 0
    if args.role == "sweep":
        measured, check = run_sweep(cli, workloads.sweep_plan(args.workload, args.smoke),
                                    args.seed, tracer)
    else:
        measured, check = run_ops(cli, manifest, args.seed, args.seconds, args.rounds,
                                  tracer, output)
    result |= measured
    if tracer is not None:
        layers = tracer.metrics(caches_before, tracer.snapshot_caches())
        layers["checks.cases_run"] = (sum(c["cases_run"] for c in result.get("cells", ())),
                                      "count")
        result["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    result["attempted"], result["failures"] = check()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
