"""kostantcheck benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
Sweep workloads run one fresh interpreter per sweep (cold caches, as every
``kostantcheck verify`` invocation pays them) until the next sweep would end
past ``--seconds``; file-ops runs one closed loop for ``--seconds`` after its
warm-up.  Extra set-up probes bring every run to at least MIN_SETUPS set-up
samples.  With ``--trace 1`` the run makes one untraced and one traced pass
over a fixed amount of work and reports the per-layer metrics of the traced
pass, plus ``trace.overhead_frac`` = traced / untraced − 1.

The last line of output is one JSON object {correct, attempted, failed,
metrics}; the lines before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
MIN_SETUPS = 11
# Every run must end within 180 s; leave room for the probes and the checks.
RUN_LIMIT_S = 170


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def spawn(args: argparse.Namespace, role: str, tmp: str, deadline: float, *,
          trace: int = 0, seconds: float = 0.0, rounds: int = 0, spans: str | None = None) -> dict:
    """Run one worker to completion and return its JSON result."""
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--role", role, "--tmp", tmp, "--trace", str(trace),
            "--seconds", repr(seconds), "--rounds", str(rounds)]
    if spans:
        argv += ["--spans", spans]
    if args.smoke:
        argv.append("--smoke")
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise WorkerError(f"{role} worker for {args.workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args: argparse.Namespace, tmp: str, deadline: float) -> tuple[dict, list[dict]]:
    """Trace-off run: the end-to-end metrics and the worker results."""
    start = time.monotonic()
    if args.workload == workloads.FILE_OPS:
        results = [spawn(args, "ops", tmp, deadline, seconds=args.seconds)]
    else:
        results = [spawn(args, "sweep", tmp, deadline)]
        while time.monotonic() - start + results[-1]["wall_s"] <= args.seconds:
            results.append(spawn(args, "sweep", tmp, deadline))
    setups = [r["setup_s"] for r in results]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(args, "probe", tmp, deadline)["setup_s"])
    op_ms: dict[str, list[float]] = {}
    for r in results:
        for key, values in r["op_ms"].items():
            op_ms.setdefault(key, []).extend(values)
    # Every pass and every operation is taken at its mean over the run: the
    # host's speed drifts from pass to pass, a sweep run holds only two to
    # four passes, and a mean uses each of them where a median keeps one.
    one_pass = [statistics.fmean(op_ms[key]) for key in results[0]["pass_ops"]]
    samples = [ms for values in op_ms.values() for ms in values]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (statistics.fmean([s for r in results for s in r["passes_s"]]), "s"),
        "op_p50_ms": (quantile(one_pass, 50), "ms"),
        "op_p90_ms": (quantile(one_pass, 90), "ms"),
        "ops_per_s": (len(samples) / (sum(samples) / 1000), "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
    }
    return metrics, results


def trace_run(args: argparse.Namespace, tmp: str, deadline: float) -> tuple[dict, list[dict]]:
    """Trace-on run: an untraced and a traced pass over the same fixed work."""
    role = "ops" if args.workload == workloads.FILE_OPS else "sweep"
    rounds = workloads.TRACE_ROUNDS if role == "ops" else 0
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    plain = spawn(args, role, tmp, deadline, rounds=rounds)
    traced = spawn(args, role, tmp, deadline, trace=1, rounds=rounds, spans=spans)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.untraced_s"] = (plain["work_s"], "s")
    metrics["trace.overhead_frac"] = (traced["work_s"] / plain["work_s"] - 1, "ratio")
    return metrics, [plain, traced]


def run_workload(args: argparse.Namespace) -> tuple[dict, list[dict]]:
    """Run one workload and print its metrics; returns the result object and
    the results of its worker processes."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.workload == workloads.FILE_OPS:
            per_class = workloads.SMOKE_PER_CLASS if args.smoke else workloads.PER_CLASS
            manifest = gen.generate_pool(args.seed, tmp, per_class)
            with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
        metrics, results = (trace_run if args.trace else measure)(args, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    print(f"== {args.workload} (seed {args.seed}, trace {args.trace})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(f"{'fail_frac':<44} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)} of {attempted})")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kostantcheck", "__init__.py")):
        print(f"error: no kostantcheck sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(args)[0]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
