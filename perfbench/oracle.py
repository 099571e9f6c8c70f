"""Output oracles: every failure they find counts towards ``failed``.

* ``verify`` rows: every expected (check, n) cell is present exactly once, in
  order, with status PASS and ``cases_run > 0``, and the exit code is 0.
* ``costar`` outputs: equal to the independent degree-2 evaluation form
  ``kostant.costar_two_form`` of the generated input.
* ``transfer`` outputs: equal to κ̃(X̃, Ỹ) = i′(κ(πX̃, πỸ)), evaluated here
  from ``maps.pi_cols`` and ``maps.i_prime`` pair by pair.

Output files are parsed here, not with ``cochain_io``, and inputs are rebuilt
from the generated documents, so a reader or writer fault cannot cancel out.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from kostantcheck.feff import build_maps
from kostantcheck.gla import graded_sl
from kostantcheck.kostant import Cochain, costar_two_form

Values = dict[tuple[int, ...], dict[tuple[int, int], Fraction]]


def check_rows(rows: object, code: int, expected: list[tuple[str, int]]) -> list[str]:
    """Failures of one verify invocation, one message per failed cell."""
    if not isinstance(rows, list):
        return [f"{cell}: no JSON report list" for cell in expected]
    failures = []
    seen = []
    for row in rows:
        cell = (row.get("check"), row.get("n"))
        seen.append(cell)
        if cell not in expected:
            failures.append(f"{cell}: unexpected cell")
        elif row.get("status") != "PASS":
            failures.append(f"{cell}: status {row.get('status')!r}")
        elif not isinstance(row.get("cases_run"), int) or row["cases_run"] <= 0:
            failures.append(f"{cell}: PASS with cases_run {row.get('cases_run')!r}")
        elif code != 0:
            failures.append(f"{cell}: exit code {code}")
    for cell in expected:
        if cell not in seen:
            failures.append(f"{cell}: missing")
    if not failures and seen != expected:
        failures.append(f"cells out of order: {seen}")
    return failures


def doc_values(doc: dict) -> Values:
    """Nonzero entries of a cochain document: {indices: {(row, col): value}}."""
    out: Values = {}
    for entry in doc["values"]:
        mat = {(r, c): Fraction(raw)
               for r, row in enumerate(entry["matrix"]) for c, raw in enumerate(row)
               if Fraction(raw)}
        if mat:
            out[tuple(entry["indices"])] = mat
    return out


def _cochain(doc: dict):
    c = Cochain(graded_sl(tuple(doc["grading"]["blocks"])), doc["degree"])
    for T, mat in doc_values(doc).items():
        c.add_term(T, mat)
    return c


def expected_costar(doc: dict) -> tuple[tuple[int, ...], int, Values]:
    out = costar_two_form(_cochain(doc))
    return tuple(doc["grading"]["blocks"]), 1, {T: dict(m) for T, m in out.data.items() if m}


def expected_transfer(doc: dict, source: str) -> tuple[tuple[int, ...], int, Values]:
    blocks = tuple(doc["grading"]["blocks"])
    n = blocks[-1]
    maps = build_maps(n, source)
    kappa = doc_values(doc)
    out: Values = {}
    for j, k in itertools.combinations(range(maps.gt.dim_neg), 2):
        x, y = maps.pi_cols[j], maps.pi_cols[k]
        val: dict[tuple[int, int], Fraction] = {}
        for (s, t), mat in kappa.items():
            cf = x[s] * y[t] - x[t] * y[s]
            if cf:
                for pos, v in mat.items():
                    val[pos] = val.get(pos, 0) + cf * v
        val = {pos: v for pos, v in val.items() if v}
        if val:
            img = {pos: v for pos, v in maps.i_prime(val).items() if v}
            if img:
                out[(j, k)] = img
    return (2, n + 1), 2, out


def check_output(entry: dict, text: str) -> str | None:
    """None when ``text`` is the correct output for the input ``entry``."""
    with open(entry["path"], encoding="utf-8") as fh:
        doc = json.load(fh)
    if entry["op"] == "costar":
        blocks, degree, want = expected_costar(doc)
    else:
        blocks, degree, want = expected_transfer(doc, entry["source"])
    try:
        got_doc = json.loads(text)
        got = doc_values(got_doc)
        header = (tuple(got_doc["grading"]["blocks"]), got_doc["degree"],
                  got_doc["algebra"]["m"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"{entry['path']}: unreadable output ({exc})"
    if header != (blocks, degree, sum(blocks)):
        return f"{entry['path']}: output header {header}, expected {blocks} degree {degree}"
    if got != want:
        wrong = sorted(set(got) ^ set(want)
                       | {T for T in set(got) & set(want) if got[T] != want[T]})
        return f"{entry['path']}: {entry['op']} output differs at indices {wrong[:5]}"
    return None
