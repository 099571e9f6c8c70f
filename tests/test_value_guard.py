"""No value coercion in the package: values stay as arithmetic makes them.

The AST of every module in the package is searched for a ``frac`` helper
(its definition or a call to it) and, outside ``ratlin``, for a one-argument
``Fraction(x)`` whose argument is not a literal: that call turns an ``int``
into a ``Fraction`` and nothing else.  ``Fraction(p, q)`` divides, and is
allowed; so is ``Fraction`` inside ``ratlin``, whose elimination returns
``Fraction`` by contract.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kostantcheck

PACKAGE = Path(kostantcheck.__file__).resolve().parent


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant)


def coercions(source: str, module: str) -> list[str]:
    """``module:line what`` for every coercion in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "frac":
            found.append(f"{module}:{node.lineno} defines frac")
        elif isinstance(node, ast.Call):
            name = _name(node.func)
            if name == "frac":
                found.append(f"{module}:{node.lineno} calls frac")
            elif (name == "Fraction" and module != "ratlin" and len(node.args) == 1
                  and not node.keywords and not _is_literal(node.args[0])):
                found.append(f"{module}:{node.lineno} coerces to Fraction")
    return found


def test_the_guard_sees_each_coercion() -> None:
    source = ("def frac(x):\n    return x\n"
              "a = frac(3)\nb = ratlin.frac(v)\nc = Fraction(v)\nd = fractions.Fraction(-v)\n"
              "e = Fraction(0)\nf = Fraction(-1)\ng = Fraction(-v, 2)\nh = Fraction(1, n)\n")
    assert coercions(source, "feff") == [
        "feff:1 defines frac", "feff:3 calls frac", "feff:4 calls frac",
        "feff:5 coerces to Fraction", "feff:6 coerces to Fraction"]
    assert coercions("c = Fraction(v)\n", "ratlin") == []


def test_no_module_coerces_values() -> None:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += coercions(path.read_text(encoding="utf-8"), path.stem)
    assert found == []
