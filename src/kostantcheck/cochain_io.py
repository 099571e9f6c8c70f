"""JSON serialization of cochains with exact rational entries.

A cochain file is a JSON document of the shape

    {
      "algebra": {"type": "sl", "m": 5},
      "grading": {"blocks": [1, 1, 3]},
      "degree": 2,
      "values": [
        {"indices": [0, 3], "matrix": [["0", "1/2", ...], ...]},
        ...
      ]
    }

Every matrix is a dense m×m array of rationals written as strings "p" or
"p/q" (never floats, so round-trips are bit-exact); each entry of "values"
carries one strictly increasing index tuple over the g/p quotient basis,
and index tuples omitted from the list are zero.  Matrices must be
traceless (values live in sl(m)); m must equal the sum of the grading
blocks; integer fields take JSON numbers, never the booleans true/false.
Malformed documents raise :class:`CochainFormatError` whose message is
anchored to the offending location ("values[3].matrix: ...").

Loading checks and parses each distinct rational string once per document
and reuses the value for its repeats.  The errors are unchanged: a string
that fails is never kept, so its first location is the one named, and JSON
numbers skip the reuse and are checked one by one.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .gla import SparseMat, graded_sl, smat_to_dense, smat_trace
from .kostant import Cochain

_RATIONAL = re.compile(r"-?\d+(/[1-9]\d*)?\Z", re.ASCII)


class CochainFormatError(ValueError):
    """A cochain document violates the file-format invariants."""


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _is_int(x: object) -> bool:
    """A JSON integer; JSON booleans load as ``bool``, a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _shown(value: object) -> str:
    """``repr(value)`` cut to 60 characters, so an error stays one short line."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def parse_rational(raw: object, where: str) -> Fraction:
    if isinstance(raw, str) and _RATIONAL.match(raw) or _is_int(raw):
        try:
            return Fraction(raw)
        except ValueError as exc:  # more digits than Python's int-string limit
            raise CochainFormatError(
                f"{where}: rational longer than the integer-string limit") from exc
    raise CochainFormatError(f'{where}: expected a rational "p" or "p/q", got {_shown(raw)}')


def cochain_to_doc(c: Cochain) -> dict:
    """Deterministic document for a cochain: entries sorted by index tuple."""
    values = []
    for T in sorted(c.data):
        dense = smat_to_dense(c.data[T], c.alg.m)
        values.append({
            "indices": list(T),
            "matrix": [[format_rational(v) for v in row] for row in dense],
        })
    return {
        "algebra": {"type": "sl", "m": c.alg.m},
        "grading": {"blocks": list(c.alg.blocks)},
        "degree": c.deg,
        "values": values,
    }


def _require(doc: object, key: str, where: str) -> object:
    if not isinstance(doc, dict):
        raise CochainFormatError(f"{where}: expected a JSON object")
    if key not in doc:
        raise CochainFormatError(f"{where}: missing key {key!r}")
    return doc[key]


def doc_to_cochain(doc: object) -> Cochain:
    algebra = _require(doc, "algebra", "document")
    if _require(algebra, "type", "algebra") != "sl":
        raise CochainFormatError('algebra.type: only "sl" is supported')
    m = _require(algebra, "m", "algebra")
    blocks = _require(_require(doc, "grading", "document"), "blocks", "grading")
    if (not isinstance(blocks, list) or not blocks
            or any(not _is_int(b) or b < 1 for b in blocks)):
        raise CochainFormatError("grading.blocks: expected a list of positive integers")
    if not _is_int(m) or m != sum(blocks):
        raise CochainFormatError(
            f"algebra.m: expected the block sum {sum(blocks)}, got {_shown(m)}")
    if len(blocks) < 2:
        raise CochainFormatError("grading.blocks: a grading needs at least two blocks")
    degree = _require(doc, "degree", "document")
    if not _is_int(degree) or degree < 0:
        raise CochainFormatError(f"degree: expected a non-negative integer, got {_shown(degree)}")
    values = _require(doc, "values", "document")
    if not isinstance(values, list):
        raise CochainFormatError("values: expected a list")

    alg = graded_sl(tuple(blocks))
    out = Cochain(alg, degree)
    seen: set[tuple[int, ...]] = set()
    # Parsed rational strings, keyed by the string: a key by value would let
    # JSON true in, since True == 1 and both hash alike.
    parsed: dict[str, Fraction] = {}
    for k, entry in enumerate(values):
        where = f"values[{k}]"
        indices = _require(entry, "indices", where)
        if (not isinstance(indices, list) or len(indices) != degree
                or any(not _is_int(i) for i in indices)):
            raise CochainFormatError(f"{where}.indices: expected {degree} integers")
        T = tuple(indices)
        if any(i < 0 or i >= alg.dim_neg for i in T):
            raise CochainFormatError(
                f"{where}.indices: index outside the g/p basis range 0..{alg.dim_neg - 1}")
        if list(T) != sorted(set(T)):
            raise CochainFormatError(f"{where}.indices: must be strictly increasing")
        if T in seen:
            raise CochainFormatError(f"{where}.indices: duplicate index tuple {list(T)}")
        seen.add(T)
        matrix = _require(entry, "matrix", where)
        if (not isinstance(matrix, list) or len(matrix) != m
                or any(not isinstance(row, list) or len(row) != m for row in matrix)):
            raise CochainFormatError(f"{where}.matrix: expected an {m}×{m} array")
        mat: SparseMat = {}
        for r, row in enumerate(matrix):
            for c, raw in enumerate(row):
                x = parsed.get(raw) if type(raw) is str else None
                if x is None:
                    x = parse_rational(raw, f"{where}.matrix[{r}][{c}]")
                    if type(raw) is str:
                        parsed[raw] = x
                if x:
                    mat[r, c] = x
        if smat_trace(mat):
            raise CochainFormatError(f"{where}.matrix: matrix is not traceless")
        out.add_term(T, mat)
    return out


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_cochain(path: str) -> Cochain:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CochainFormatError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise CochainFormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
        except ValueError as exc:  # a JSON integer past the int-string limit
            raise CochainFormatError(
                f"{path}: integer longer than the integer-string limit") from exc
        except RecursionError as exc:
            raise CochainFormatError(f"{path}: nesting too deep") from exc
    return doc_to_cochain(doc)


def save_cochain(c: Cochain, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_doc(cochain_to_doc(c)))
