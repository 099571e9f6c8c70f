"""Every function in the package runs from the command line, or is named here.

A fresh interpreter, so that no cache is warm, records every code object it
enters under ``sys.setprofile`` while ``cli.main`` runs every check at n = 2,
the checks whose window starts at n = 3 at n = 3, and one ``costar`` and one
``transfer`` request per source.  Every ``def`` in the package must have
run, or stand in :data:`ALLOWED` with the reason it does not.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import kostantcheck
from kostantcheck.cochain_io import save_cochain
from kostantcheck.feff import SOURCES
from kostantcheck.gla import graded_sl
from kostantcheck.kostant import Cochain

PACKAGE = Path(kostantcheck.__file__).resolve().parent

# module.qualname → why no command-line run reaches it.
ALLOWED = {
    "kostant.laplacian": "declared oracle: □ = ∂∂* + ∂*∂ applied to cochains",
    "penrose.reassemble": "declared oracle: inverse of the block extraction",
    "ratlin.kernel_basis": "declared oracle: back-substituted reference for null_space",
    "ratlin.mat_vec": "declared oracle: dense product for kernel checks",
    "gla.smat_trace_pair": "declared oracle: the trace pairing behind π* duality",
    "kostant.ChainModule.from_cochains": "declared oracle: elimination reference for "
                                         "the tensor modules",
    "feff._Checker.fail": "runs only when a check fails",
    "cochain_io._shown": "runs only when an input file is rejected",
    "gla.GradedSL.__repr__": "debugging display",
    "kostant.Cochain.__repr__": "debugging display",
    "kostant.ChainModule.__repr__": "debugging display",
    "penrose.EFTensor.__repr__": "debugging display",
    "ratlin.Subspace.__repr__": "debugging display",
    "ratlin.Subspace.__hash__": "subspaces are compared, never used as keys by the package",
}

# Records (file, first line) of every code object entered; the first line of
# a decorated function is its first decorator, as in ast.
TRACER = r"""
import contextlib, io, json, sys
codes = set()
sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
from kostantcheck import cli
with contextlib.redirect_stdout(io.StringIO()):
    exit_codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
json.dump({"exit_codes": exit_codes,
           "entered": sorted({(c.co_filename, c.co_firstlineno) for c in codes})},
          sys.stdout)
"""


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line) → module.qualname for every def in the package."""
    out: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def cli_runs(tmp_path: Path) -> list[list[str]]:
    """The command lines of the traced run; the request files go to tmp_path."""
    runs = [["verify", "--check", "all", "--n-min", "2", "--n-max", "2", "--trials", "1",
             "--format", "json"]]
    runs += [["verify", "--check", name, "--n-min", "3", "--n-max", "3", "--trials", "1"]
             for name in ("ag-costar", "norm-modules", "normalize-step", "rho-ricci",
                          "harmonic-types")]
    for source, (blocks, min_n) in SOURCES.items():
        alg = graded_sl(blocks(min_n))
        c = Cochain(alg, 2)
        c.add_term((0, 1), alg.basis_mat(alg.dim - 1), Fraction(1, 2))
        c.add_term((0, alg.dim_neg - 1), alg.basis_mat(0), 3)
        src = str(tmp_path / f"{source}.json")
        save_cochain(c, src)
        runs.append(["costar", "--input", src, "--output", src + ".costar"])
        runs.append(["transfer", "--input", src, "--source", source,
                     "--output", src + ".transfer"])
    return runs


def test_every_def_runs_or_is_allowed(tmp_path) -> None:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", TRACER, json.dumps(cli_runs(tmp_path))],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit_codes"] == [0] * len(result["exit_codes"])
    entered = {(str(Path(f).resolve()), line) for f, line in result["entered"]}
    defs = package_defs()
    assert set(ALLOWED) <= set(defs.values()), "allowlist names a missing def"
    unreached = sorted(name for key, name in defs.items()
                       if key not in entered and name not in ALLOWED)
    assert unreached == []
