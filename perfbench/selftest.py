"""Self-test of the benchmark:  python3 perfbench/selftest.py

1. The oracles reject a corrupted output file (one entry changed) for both
   ``costar`` and ``transfer``, and accept the uncorrupted one.
2. A PASS row with zero cases, a FAIL row, a missing cell and a bad exit code
   each count as failures.
3. The same faults injected into the measured loops raise ``failed`` above 0.
4. A tiny smoke size of every workload runs end to end, with and without
   tracing, and reports exactly the metrics listed in BENCHMARK.json.
5. Without the program's sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kostantcheck import cli  # noqa: E402


def corrupt(text: str) -> str:
    """Change the first nonzero matrix entry of an output document."""
    doc = json.loads(text)
    for entry in doc["values"]:
        for row in entry["matrix"]:
            for c, raw in enumerate(row):
                if raw != "0":
                    row[c] = "1/7" if raw != "1/7" else "2/7"
                    return json.dumps(doc)
    raise AssertionError("output has no nonzero entry to corrupt")


def check_oracles(tmp: str) -> None:
    manifest = gen.generate_pool(7, tmp, 1)
    out = os.path.join(tmp, "out.json")
    for entry in manifest:
        if entry["density"] != "sparse" or entry["blocks"][-1] != 3:
            continue
        assert cli.main(worker._op_argv(entry, out)) == 0, entry
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        assert oracle.check_output(entry, text) is None, entry["path"]
        assert oracle.check_output(entry, corrupt(text)) is not None, entry["path"]


def check_rows() -> None:
    good = {"check": "jacobi", "n": 2, "status": "PASS", "cases_run": 5, "wall_time_ms": 0}
    cells = [("jacobi", 2)]
    assert oracle.check_rows([good], 0, cells) == []
    assert oracle.check_rows([good | {"cases_run": 0}], 0, cells)
    assert oracle.check_rows([good | {"status": "FAIL"}], 1, cells)
    assert oracle.check_rows([], 0, cells)
    assert oracle.check_rows([good], 1, cells)
    assert oracle.check_rows([good, good | {"n": 3}], 0, cells)


def check_injected_faults(tmp: str) -> None:
    """A program that corrupts one output or passes a cell with zero cases
    must drive the loop's failure count above 0."""
    manifest = gen.generate_pool(8, tmp, 1)

    def corrupting_main(argv):
        code = cli.main(argv)
        out = argv[argv.index("--output") + 1]
        if "2-3-sparse" in argv[argv.index("--input") + 1]:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(corrupt(text))
        return code

    bad_cli = types.SimpleNamespace(main=corrupting_main)
    _, check = worker.run_ops(bad_cli, manifest, 1, 0, 1, None, os.path.join(tmp, "out.json"))
    attempted, failures = check()
    assert attempted > 0 and failures, "corrupted outputs were not counted"

    def zero_case_main(argv):
        print(json.dumps([{"check": "jacobi", "n": 2, "status": "PASS",
                           "cases_run": 0, "wall_time_ms": 0}]))
        return 0

    bad_cli = types.SimpleNamespace(main=zero_case_main, run_check=None)
    _, check = worker.run_sweep(bad_cli, [("jacobi", 2, 2, 1)], 1, None)
    attempted, failures = check()
    assert attempted == 1 and len(failures) == 1, failures


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_smoke() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == wanted[trace], (
                name, trace, set(result["metrics"]) ^ wanted[trace])
            print(f"smoke {name} trace {trace}: ok ({result['attempted']} attempted)")


def check_without_sources(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))
    try:
        check_oracles(tmp)
        print("oracles reject corrupted costar and transfer outputs: ok")
        check_rows()
        print("row oracle rejects zero-case PASS, FAIL, missing cells, bad exit: ok")
        check_injected_faults(tmp)
        print("injected faults count as failures: ok")
        check_without_sources(tmp)
        print("exits non-zero without the program's sources: ok")
        check_smoke()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
