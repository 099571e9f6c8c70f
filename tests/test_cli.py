"""Tests for the cochain file format, the check registry, and the CLI.

The JSON report list is the machine interface, so the tests pin its shape:
sorted keys, wall_time_ms fixed to 0, a counterexample field only on
failing cells, and byte-identical output for identical (check, n, seed,
trials) invocations.  Exit codes: 0 all-pass, 1 any failure, 2 for usage
or input errors.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from kostantcheck import checks, cli, feff, penrose
from kostantcheck.checks import CHECK_NAMES, CHECKS, run_check
from kostantcheck.cochain_io import (
    CochainFormatError,
    cochain_to_doc,
    doc_to_cochain,
    dumps_doc,
    format_rational,
    load_cochain,
    parse_rational,
    save_cochain,
)
from kostantcheck.feff import (Report, _Checker, build_maps, transfer,
                               verify_harmonic_types)
from kostantcheck.gla import elementary, graded_sl
from kostantcheck.kostant import ChainModule, Cochain, chain_tuples, costar, costar_two_form
from test_feff import dense_transfer

F = Fraction


def sample_cochain(blocks=(1, 1, 2), deg=2, seed=0, terms=4) -> Cochain:
    alg = graded_sl(blocks)
    rng = random.Random(seed)
    c = Cochain(alg, deg)
    for _ in range(terms):
        T = tuple(sorted(rng.sample(range(alg.dim_neg), deg)))
        c.add_term(T, alg.basis_mat(rng.randrange(alg.dim)),
                   F(rng.randint(1, 5), rng.randint(1, 3)))
    return c


def bad_cochain_files() -> dict[str, tuple[bytes, str]]:
    """Files the loader must reject, each with the location its error names
    ("{path}" stands for the file path)."""
    text = json.dumps(cochain_to_doc(sample_cochain(seed=3)))
    long_entry = json.loads(text)
    long_entry["values"][0]["matrix"][0][0] = "1" + "0" * 4300
    arabic_digit = json.loads(text)
    arabic_digit["values"][0]["matrix"][1][2] = "\u0663"
    return {
        "not-utf-8": (text.encode().replace(b'"sl"', b'"s\xfel"'), "{path}"),
        "rational-past-the-digit-limit": (json.dumps(long_entry).encode(),
                                          "values[0].matrix[0][0]"),
        "integer-past-the-digit-limit": (
            text.replace('"degree": 2', '"degree": 1' + "0" * 4300).encode(), "{path}"),
        "deep-nesting": (b"[" * 100_000 + b"]" * 100_000, "{path}"),
        "non-ascii-digit": (json.dumps(arabic_digit).encode(), "values[0].matrix[1][2]"),
    }


def nested(depth: int) -> object:
    value: object = 0
    for _ in range(depth):
        value = [value]
    return value


BAD_FILES = bad_cochain_files()


class TestRationalStrings:
    def test_format(self) -> None:
        assert format_rational(F(1, 2)) == "1/2"
        assert format_rational(F(-3)) == "-3"
        assert format_rational(F(0)) == "0"

    def test_parse(self) -> None:
        assert parse_rational("7/3", "x") == F(7, 3)
        assert parse_rational("-4", "x") == F(-4)
        assert parse_rational(4, "x") == F(4)

    @pytest.mark.parametrize("bad", ["1.5", "3/0", "1/-2", "", "a", 2.5, None,
                                     "\u0663", "\uff17", "-\u0663/2", "1/\u0662"])
    def test_rejects_non_rationals(self, bad) -> None:
        with pytest.raises(CochainFormatError, match="x:"):
            parse_rational(bad, "x")

    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_booleans(self, bad) -> None:
        with pytest.raises(CochainFormatError, match="x:"):
            parse_rational(bad, "x")


class TestCochainDocuments:
    def test_round_trip_through_doc(self) -> None:
        c = sample_cochain()
        assert doc_to_cochain(cochain_to_doc(c)) == c

    def test_round_trip_through_file(self, tmp_path) -> None:
        c = sample_cochain(blocks=(2, 3), deg=2, seed=1)
        path = str(tmp_path / "c.json")
        save_cochain(c, path)
        assert load_cochain(path) == c

    def test_doc_is_deterministic(self) -> None:
        c = sample_cochain(seed=2)
        assert cochain_to_doc(c) == cochain_to_doc(c)
        doc = cochain_to_doc(c)
        indices = [tuple(v["indices"]) for v in doc["values"]]
        assert indices == sorted(indices)

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["algebra"].__setitem__("type", "gl"), "only \"sl\""),
        (lambda d: d["algebra"].__setitem__("m", 5), "block sum"),
        (lambda d: d["grading"].__setitem__("blocks", [4]), "at least two"),
        (lambda d: d["grading"].__setitem__("blocks", [0, 4]), "positive integers"),
        (lambda d: d.__setitem__("degree", -1), "non-negative"),
        (lambda d: d.__setitem__("degree", "2"), "non-negative"),
        (lambda d: d.__setitem__("values", {}), "expected a list"),
        (lambda d: d.pop("degree"), "missing key 'degree'"),
        (lambda d: d["values"][0].__setitem__("indices", [0]), "expected 2 integers"),
        (lambda d: d["values"][0].__setitem__("indices", [0, 99]), "basis range"),
        (lambda d: d["values"][0].__setitem__("indices", [3, 1]), "strictly increasing"),
        (lambda d: d["values"][0].__setitem__("indices", [1, 1]), "strictly increasing"),
        (lambda d: d["values"][1].__setitem__(
            "indices", list(d["values"][0]["indices"])), "duplicate index tuple"),
        (lambda d: d["values"][0].__setitem__("matrix", [["0"]]), "array"),
        (lambda d: d["values"][0]["matrix"][0].__setitem__(0, "1.5"), "rational"),
        (lambda d: d["values"][0]["matrix"][0].__setitem__(0, "7"), "not traceless"),
    ])
    def test_validation_errors(self, mutate, message) -> None:
        doc = cochain_to_doc(sample_cochain(seed=3, terms=6))
        assert len(doc["values"]) >= 2
        mutate(doc)
        with pytest.raises(CochainFormatError, match=message):
            doc_to_cochain(doc)

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["algebra"].__setitem__("m", True), "block sum"),
        (lambda d: d["grading"].__setitem__("blocks", [True, 1, 2]), "positive integers"),
        (lambda d: d.__setitem__("degree", True), "non-negative"),
        (lambda d: d["values"][0].__setitem__("indices", [False, 3]), "expected 2 integers"),
        (lambda d: d["values"][0]["matrix"][0].__setitem__(0, True), "rational"),
    ], ids=["m", "blocks", "degree", "indices", "matrix-entry"])
    def test_json_booleans_are_not_integers(self, mutate, message) -> None:
        doc = cochain_to_doc(sample_cochain(seed=3, terms=6))
        mutate(doc)
        with pytest.raises(CochainFormatError, match=message):
            doc_to_cochain(doc)

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.__setitem__("degree", nested(900)), "degree:"),
        (lambda d: d["algebra"].__setitem__("m", "5" * 5000), "algebra.m:"),
        (lambda d: d["values"][0]["matrix"][0].__setitem__(0, "x" * 5000),
         "values[0].matrix[0][0]:"),
        (lambda d: d["values"][0]["matrix"][0].__setitem__(0, nested(900)),
         "values[0].matrix[0][0]:"),
    ], ids=["nested-degree", "long-m", "long-entry", "nested-entry"])
    def test_errors_stay_one_short_line(self, mutate, field) -> None:
        doc = cochain_to_doc(sample_cochain(seed=3))
        mutate(doc)
        with pytest.raises(CochainFormatError) as err:
            doc_to_cochain(doc)
        message = str(err.value)
        assert message.startswith(field)
        assert "\n" not in message and len(message) < 200

    def test_all_boolean_document_is_rejected(self) -> None:
        zero_row = ["0"] * 4
        doc = {"algebra": {"type": "sl", "m": 4}, "grading": {"blocks": [True, 1, 2]},
               "degree": True,
               "values": [{"indices": [False],
                           "matrix": [[True, "0", "0", "0"], ["0", "-1", "0", "0"],
                                      zero_row, zero_row]}]}
        with pytest.raises(CochainFormatError):
            doc_to_cochain(doc)

    def test_malformed_json_error_names_the_location(self, tmp_path) -> None:
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(CochainFormatError) as err:
            load_cochain(str(path))
        assert str(path) in str(err.value)
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_unreadable_files_are_format_errors(self, tmp_path, case) -> None:
        content, where = BAD_FILES[case]
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(CochainFormatError) as err:
            load_cochain(str(path))
        assert where.format(path=path) in str(err.value)


def single_value_doc(matrix: list[list[object]], values: int = 1) -> dict:
    """A (1, 1, 2) degree-2 document with the same matrix at the first
    ``values`` index pairs; the caller edits entries per value."""
    pairs = [[0, 1], [0, 2], [1, 3]][:values]
    return {"algebra": {"type": "sl", "m": 4}, "grading": {"blocks": [1, 1, 2]},
            "degree": 2,
            "values": [{"indices": T, "matrix": [list(row) for row in matrix]}
                       for T in pairs]}


class TestParseOncePerDocument:
    """Each distinct rational string is parsed once per document; these pin
    that errors still name their own first location, and JSON numbers are
    still checked one by one."""

    MATRIX = [["1", "0", "0", "0"], ["0", "-1", "1/2", "0"],
              ["0", "0", "0", "0"], ["0", "0", "0", "0"]]

    @pytest.mark.parametrize("one", ["1", 1])
    def test_json_true_after_a_one_is_rejected(self, tmp_path, capsys, one) -> None:
        doc = single_value_doc(self.MATRIX)
        doc["values"][0]["matrix"][0][0] = one
        doc["values"][0]["matrix"][2][3] = True
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        rc = cli.main(["costar", "--input", str(src), "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "values[0].matrix[2][3]: expected a rational" in capsys.readouterr().err

    def test_bad_string_after_a_good_one_names_its_own_location(self) -> None:
        doc = single_value_doc(self.MATRIX, values=2)
        doc["values"][1]["matrix"][3][2] = "1/2.0"
        with pytest.raises(CochainFormatError, match=r"^values\[1\]\.matrix\[3\]\[2\]: "):
            doc_to_cochain(doc)

    def test_repeated_overlong_string_errors_at_its_first_location(self) -> None:
        doc = single_value_doc(self.MATRIX, values=2)
        long = "1" + "0" * 4300
        doc["values"][0]["matrix"][2][1] = long
        doc["values"][1]["matrix"][0][1] = long
        with pytest.raises(CochainFormatError,
                           match=r"^values\[0\]\.matrix\[2\]\[1\]: rational longer"):
            doc_to_cochain(doc)

    def test_string_and_json_integer_load_alike(self) -> None:
        doc = single_value_doc(self.MATRIX, values=2)
        doc["values"][0]["matrix"][0][3] = 1
        doc["values"][1]["matrix"][0][3] = "1"
        doc["values"][1]["matrix"][1][1] = -1
        c = doc_to_cochain(doc)
        expected = {(0, 0): F(1), (1, 1): F(-1), (1, 2): F(1, 2), (0, 3): F(1)}
        assert c.data == {(0, 1): expected, (0, 2): expected}
        # Integral values load as int, the others as Fraction, from either form.
        assert all(type(v) is (int if v.denominator == 1 else Fraction)
                   for mat in c.data.values() for v in mat.values())


#: Coefficients of every exact kind a cochain may hold: ints (negative ones
#: too), integral Fractions such as 4/2, and proper fractions p/q.
MIXED_COEFFS = (1, -3, 7, F(4, 2), F(-6, 3), F(1, 2), F(-7, 3), F(5, 4))


def mixed_cochain(blocks, deg: int, seed: int, terms: int = 4) -> Cochain:
    """A seeded traceless cochain whose values mix the kinds of
    ``MIXED_COEFFS``: basis matrices at sampled sorted tuples, each scaled
    by a drawn coefficient."""
    alg = graded_sl(blocks)
    rng = random.Random(f"mixed:{blocks}:{deg}:{seed}")
    tuples = chain_tuples(alg, deg)
    c = Cochain(alg, deg)
    for _ in range(terms):
        c.add_term(rng.choice(tuples), alg.basis_mat(rng.randrange(alg.dim)),
                   rng.choice(MIXED_COEFFS))
    return c


def json_layout(c: Cochain) -> str:
    """The reference bytes of a cochain file: the standard-library encoder."""
    return json.dumps(cochain_to_doc(c), indent=2, sort_keys=True) + "\n"


class TestFixedLayoutWriter:
    """``dumps_doc`` writes the layout of ``json.dumps(indent=2,
    sort_keys=True)`` by string joins; these pin it byte for byte."""

    @pytest.mark.parametrize("blocks", checks._configs(3))
    @pytest.mark.parametrize("deg", [0, 1, 2, 3])
    def test_matches_the_json_encoder(self, blocks, deg) -> None:
        for seed in range(3):
            c = mixed_cochain(blocks, deg, seed)
            assert not c.is_zero()
            assert dumps_doc(cochain_to_doc(c)) == json_layout(c)
        kinds = {type(v) for seed in range(3)
                 for mat in mixed_cochain(blocks, deg, seed).data.values()
                 for v in mat.values()}
        assert kinds == {int, Fraction}

    @pytest.mark.parametrize("blocks", checks._configs(3))
    @pytest.mark.parametrize("deg", [0, 2])
    def test_empty_cochain(self, blocks, deg) -> None:
        c = Cochain(graded_sl(blocks), deg)
        text = dumps_doc(cochain_to_doc(c))
        assert text == json_layout(c)
        assert '"values": []' in text

    def test_degree_zero_writes_empty_indices(self) -> None:
        c = mixed_cochain((2, 3), 0, seed=0)
        text = dumps_doc(cochain_to_doc(c))
        assert text == json_layout(c)
        assert '"indices": []' in text

    def test_values_of_every_kind(self) -> None:
        alg = graded_sl((1, 1, 3))
        c = Cochain(alg, 1)
        c.add_term((0,), {(0, 0): -3, (1, 1): F(4, 2), (0, 1): F(-7, 3),
                          (2, 2): 1, (4, 3): F(5, 4)})
        text = dumps_doc(cochain_to_doc(c))
        assert text == json_layout(c)
        for shown in ('"-3"', '"2"', '"-7/3"', '"1"', '"5/4"'):
            assert shown in text

    def test_save_writes_the_layout(self, tmp_path) -> None:
        c = mixed_cochain((2, 1, 3), 2, seed=5)
        path = tmp_path / "c.json"
        save_cochain(c, str(path))
        assert path.read_bytes() == json_layout(c).encode()


class TestLoadedValueTypes:
    """Integral values load as ``int``, the others as reduced ``Fraction``."""

    @pytest.mark.parametrize("raw", ["3", "4/2", 3, "03", "-12/4"])
    def test_integral_values_are_ints(self, raw) -> None:
        x = parse_rational(raw, "x")
        assert type(x) is int and x == Fraction(raw)

    @pytest.mark.parametrize("raw,value", [("-7/3", F(-7, 3)), ("14/6", F(7, 3)),
                                           ("1/2", F(1, 2))])
    def test_proper_fractions_are_reduced(self, raw, value) -> None:
        x = parse_rational(raw, "x")
        assert type(x) is Fraction and x == value
        assert (x.numerator, x.denominator) == (value.numerator, value.denominator)

    def test_document_entries_keep_their_kind(self) -> None:
        doc = single_value_doc(TestParseOncePerDocument.MATRIX)
        matrix = doc["values"][0]["matrix"]
        matrix[0][0], matrix[1][1] = "4/2", -2
        matrix[2][3], matrix[3][0] = "-7/3", 3
        c = doc_to_cochain(doc)
        assert c.data == {(0, 1): {(0, 0): 2, (1, 1): -2, (1, 2): F(1, 2),
                                   (2, 3): F(-7, 3), (3, 0): 3}}
        types = {pos: type(v) for pos, v in c.data[(0, 1)].items()}
        assert types == {(0, 0): int, (1, 1): int, (1, 2): Fraction,
                         (2, 3): Fraction, (3, 0): int}

    @pytest.mark.parametrize("zero", ["0", "-0", "0/5", 0])
    def test_zero_entries_are_not_stored(self, zero) -> None:
        doc = single_value_doc(TestParseOncePerDocument.MATRIX, values=2)
        doc["values"][0]["matrix"][1][2] = zero
        doc["values"][1]["matrix"] = [[zero] * 4 for _ in range(4)]
        c = doc_to_cochain(doc)
        assert c.data == {(0, 1): {(0, 0): 1, (1, 1): -1}}

    @pytest.mark.parametrize("blocks", checks._configs(3))
    @pytest.mark.parametrize("deg", [0, 1, 2, 3])
    def test_round_trip_of_mixed_values(self, tmp_path, blocks, deg) -> None:
        path = str(tmp_path / "c.json")
        for seed in range(2):
            c = mixed_cochain(blocks, deg, seed)
            save_cochain(c, path)
            loaded = load_cochain(path)
            assert loaded == c
            assert all(type(v) is (int if v.denominator == 1 else Fraction)
                       for mat in loaded.data.values() for v in mat.values())


class TestRequestOutputs:
    """Each ``costar`` and ``transfer`` output file equals its independent
    reference written by the standard-library encoder."""

    @pytest.mark.parametrize("blocks", [(1, 1, 3), (2, 3), (2, 4), (2, 1, 3)])
    def test_costar_file_is_the_evaluation_form(self, tmp_path, blocks) -> None:
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        for seed in range(3):
            c = mixed_cochain(blocks, 2, seed, terms=6)
            save_cochain(c, str(src))
            assert cli.main(["costar", "--input", str(src), "--output", str(dst)]) == 0
            assert dst.read_text(encoding="utf-8") == json_layout(costar_two_form(c))

    @pytest.mark.parametrize("n,source", [(2, "path"), (3, "path"), (3, "ag"), (4, "ag")])
    def test_transfer_file_is_the_dense_reference(self, tmp_path, n, source) -> None:
        maps = build_maps(n, source)
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        for seed in range(3):
            c = mixed_cochain(maps.g.blocks, 2, seed, terms=6)
            save_cochain(c, str(src))
            assert cli.main(["transfer", "--input", str(src), "--source", source,
                             "--output", str(dst)]) == 0
            assert dst.read_text(encoding="utf-8") == json_layout(dense_transfer(c, maps))


class TestCheckRegistry:
    def test_registry_names_and_windows(self) -> None:
        assert len(CHECK_NAMES) == 13
        assert set(CHECKS) == {
            "jacobi", "hodge", "codiff-lift", "bianchi-path",
            "path-normality", "beta-secondsum", "ag-costar", "norm-modules",
            "normalize-step", "memberships", "torsion-transfer", "rho-ricci",
            "harmonic-types",
        }
        for name, (min_n, _) in CHECKS.items():
            assert min_n in (2, 3), name

    def test_runners_are_the_module_functions(self) -> None:
        """Each runner is the module attribute of its own name, so that
        rebinding that attribute (as the per-layer tracer does) reaches it."""
        for name, (_, runner) in CHECKS.items():
            owner = sys.modules[runner.__module__]
            assert getattr(owner, runner.__name__) is runner, name

    @pytest.mark.parametrize("name", [k for k, (min_n, _) in CHECKS.items()
                                      if min_n == 2])
    def test_reports_carry_the_registry_name(self, name: str) -> None:
        rep = run_check(name, 2, 0, 1)
        assert rep is not None and rep.ok
        assert rep.name == name

    @pytest.mark.parametrize("name", ["ag-costar", "norm-modules",
                                      "normalize-step", "rho-ricci"])
    def test_below_window_returns_none(self, name: str) -> None:
        assert run_check(name, 2, 0, 1) is None

    def test_unknown_name_raises(self) -> None:
        with pytest.raises(ValueError):
            run_check("curvature", 2, 0, 1)

    def test_cells_are_deterministic(self) -> None:
        a = run_check("rho-ricci", 3, 5, 2)
        b = run_check("rho-ricci", 3, 5, 2)
        assert a == b
        assert a is not None and a.ok

    def test_sampled_cell_passes(self) -> None:
        rep = run_check("ag-costar", 3, 1, 2)
        assert rep is not None and rep.ok and rep.cases > 0

    @pytest.mark.parametrize("name", ["ag-costar", "rho-ricci"])
    def test_cell_with_no_cases_fails(self, name: str) -> None:
        rep = run_check(name, 3, 1, 0)
        assert rep is not None and rep.cases == 0
        assert not rep.ok and rep.failed == 1
        assert rep.failures == ["the cell ran no cases"]

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_every_case_is_one_checker_comparison(self, name, monkeypatch) -> None:
        """A cell's ``cases`` is the number of ``_Checker.check`` calls it
        made, at its smallest n and at n = 3: no sweep counts a case that it
        did not compare."""
        calls = 0
        real = _Checker.check

        def counted(self, ok, message):
            nonlocal calls
            calls += 1
            real(self, ok, message)

        monkeypatch.setattr(_Checker, "check", counted)
        for n in sorted({CHECKS[name][0], 3}):
            calls = 0
            rep = run_check(name, n, 1, 2)
            assert rep is not None and rep.ok, (n, rep and rep.failures)
            assert rep.cases == calls, n

    def test_every_failure_is_counted(self, capsys, monkeypatch) -> None:
        def ten_failures(n, rng, trials):
            chk = _Checker()
            for k in range(12):
                chk.check(k >= 10, f"failure {k}")
            return chk.report(n)

        monkeypatch.setitem(CHECKS, "jacobi", (2, ten_failures))
        rep = run_check("jacobi", 2, 1, 1)
        assert rep.failed == 10 and rep.cases == 12
        assert rep.failures == [f"failure {k}" for k in range(8)]
        assert cli.main(["verify", "--check", "jacobi", "--n-min", "2", "--n-max", "2"]) == 1
        assert "counterexample: failure 0 (10 failures)" in capsys.readouterr().out
        assert cli.main(["verify", "--check", "jacobi", "--n-min", "2", "--n-max", "2",
                         "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == [
            {"check": "jacobi", "n": 2, "status": "FAIL", "cases_run": 12,
             "wall_time_ms": 0, "counterexample": "failure 0"}]

    def test_report_ok_is_read_from_failed(self) -> None:
        assert Report(n=2, cases=3).ok
        assert not Report(n=2, cases=3, failed=1).ok
        with pytest.raises(AttributeError):
            Report(n=2, cases=3).ok = False

    def test_merged_sources_count_every_failure(self, monkeypatch) -> None:
        def ten_failures(n, source):
            chk = _Checker()
            for k in range(10):
                chk.check(False, f"failure {k}")
            return chk.report(n)

        monkeypatch.setattr(checks, "verify_transfer_memberships", ten_failures)
        rep = run_check("memberships", 3, 1, 1)
        assert not rep.ok and rep.failed == 20 and rep.cases == 20
        assert rep.failures == [f"path: failure {k}" for k in range(8)]

    def test_failing_ag_costar_trial_fails_the_cell(self, capsys, monkeypatch) -> None:
        """A failing bracket identity fails the cell, counted once per cell
        and not once per trial."""
        broken = _Checker()
        for k in range(10):
            broken.check(False, f"bracket {k}")
        monkeypatch.setattr(checks, "_ag_bracket_identity", lambda n: broken.report(n))
        rep = run_check("ag-costar", 3, 1, 1)
        assert not rep.ok and rep.failed == 10
        assert rep.failures == [f"bracket {k}" for k in range(8)]
        assert run_check("ag-costar", 3, 1, 3).failed == 10
        assert cli.main(["verify", "--check", "ag-costar", "--n-min", "3",
                         "--n-max", "3", "--trials", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexample: bracket 0 (10 failures)" in out

    def test_ag_costar_counts_each_comparison_once(self) -> None:
        """Each trial adds its three comparisons; the bracket identity is
        checked once per cell, however many trials it samples."""
        one, three = run_check("ag-costar", 3, 1, 1), run_check("ag-costar", 3, 1, 3)
        assert one.ok and three.ok
        assert three.cases - one.cases == 6

    def test_residual_outside_e_fails_normalize_step(self, capsys, monkeypatch) -> None:
        """A transfer residual outside 𝔼 is a failed trial, not an error."""
        def off_level(kappa, maps):
            out = transfer(kappa, maps)
            out.add_term((0, 1), elementary(3, 0))
            return out

        monkeypatch.setattr(checks, "transfer", off_level)
        rep = run_check("normalize-step", 3, 1, 3)
        assert not rep.ok and rep.failed == 1
        assert rep.failures == ["transfer residual outside 𝔼 at trial 0"]
        assert cli.main(["verify", "--check", "normalize-step", "--n-min", "3",
                         "--n-max", "3"]) == 1
        assert "counterexample: transfer residual outside 𝔼 at trial 0" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize("kind,failing", [
        ("im costar", ("Hodge dimensions do not sum to the chain dimension",
                       "im∂* meets ker□", "ker□ differs from ker∂ ∩ ker∂*",
                       "ker∂* differs from im∂* ⊕ ker□", "ker∂ differs from ker□ ⊕ im∂")),
        ("zero", ("Hodge dimensions do not sum to the chain dimension",
                  "ker□ differs from ker∂ ∩ ker∂*",
                  "ker∂* differs from im∂* ⊕ ker□", "ker∂ differs from ker□ ⊕ im∂"))])
    def test_wrong_harmonic_space_fails_hodge(self, monkeypatch, kind, failing) -> None:
        """ker□ replaced by im∂* (meets im∂*, not inside ker∂) or by zero
        (inside ker∂ ∩ ker∂*, but of the wrong dimension): the sum tests
        fail the same seven cases per grading, by name."""
        hodge = checks.hodge

        def wrong(blocks, deg):
            hd = hodge(blocks, deg)
            box = hd.im_costar if kind == "im costar" else ChainModule("zero", hd.ker_box.alg, deg)
            return replace(hd, ker_box=box)

        monkeypatch.setattr(checks, "hodge", wrong)
        rep = run_check("hodge", 2, 1, 1)
        assert rep.cases == 14 and rep.failed == 2 * len(failing)
        assert rep.failures[:len(failing)] == [f"1-1-2: {msg}" for msg in failing]

    def test_failing_ag_harmonic_type_fails_the_sweep(self, monkeypatch) -> None:
        """A slot swap that returns its tensor unchanged breaks one tensor
        condition of every basis cochain of both typed parts (τ is skew in
        its F* slots, ρ in its E slots): one failure per basis cochain."""
        monkeypatch.setattr(penrose.EFTensor, "swap",
                            lambda self, i, j: self.scale(1))
        rep = verify_harmonic_types(3, "ag")
        assert rep.details == {"harmonic_dim": 48, "tau_dim": 24, "rho_dim": 24}
        assert rep.cases == 2 + 5 * 48
        assert not rep.ok and rep.failed == 48
        assert rep.failures == [f"τ-part basis cochain {k} is not skew in the F* "
                                "argument slots" for k in range(8)]
        rep = run_check("harmonic-types", 3, 1, 1)
        assert rep.failed == 48 and rep.failures[0].startswith("ag: τ-part")


class TestVerifyCommand:
    def run_json(self, capsys, *argv: str):
        rc = cli.main(["verify", "--format", "json", *argv])
        return rc, capsys.readouterr().out

    def test_json_runs_are_byte_identical(self, capsys) -> None:
        args = ("--check", "rho-ricci", "--n-min", "3", "--n-max", "3",
                "--seed", "5", "--trials", "2")
        rc1, out1 = self.run_json(capsys, *args)
        rc2, out2 = self.run_json(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        rows = json.loads(out1)
        assert rows == [{"check": "rho-ricci", "n": 3, "status": "PASS",
                         "cases_run": rows[0]["cases_run"], "wall_time_ms": 0}]
        assert rows[0]["cases_run"] > 0

    def test_window_skips_produce_no_rows(self, capsys) -> None:
        rc, out = self.run_json(capsys, "--check", "norm-modules",
                                "--n-min", "2", "--n-max", "2")
        assert rc == 0
        assert json.loads(out) == []

    def test_text_format_table(self, capsys) -> None:
        rc = cli.main(["verify", "--check", "memberships",
                       "--n-min", "2", "--n-max", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CHECK" in out and "TIME_MS" in out
        assert "memberships" in out and "PASS" in out
        assert "1 report(s), all PASS" in out

    def test_bad_range_is_a_usage_error(self, capsys) -> None:
        rc = cli.main(["verify", "--n-min", "3", "--n-max", "2"])
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("check,trials", [("ag-costar", "0"), ("rho-ricci", "-3")])
    def test_non_positive_trials_is_a_usage_error(self, capsys, check, trials) -> None:
        rc = cli.main(["verify", "--format", "json", "--check", check,
                       "--n-min", "3", "--n-max", "3", "--trials", trials])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--trials" in captured.err

    def test_zero_case_cell_is_reported_as_fail(self, capsys, monkeypatch) -> None:
        vacuous = Report(name="jacobi", n=2, cases=0)
        monkeypatch.setitem(CHECKS, "jacobi", (2, lambda n, rng, trials: vacuous))
        rc, out = self.run_json(capsys, "--check", "jacobi",
                                "--n-min", "2", "--n-max", "2")
        assert rc == 1
        assert json.loads(out) == [{"check": "jacobi", "n": 2, "status": "FAIL",
                                    "cases_run": 0, "wall_time_ms": 0,
                                    "counterexample": "the cell ran no cases"}]

    def test_raising_cell_is_a_fail_row_and_the_run_goes_on(self, capsys, monkeypatch) -> None:
        """j_of[1] and j_of[2] swapped after the construction checks, as in
        ``test_feff.TestRelabelingMutants``: the transfer cells raise, each
        is a FAIL row with the exception as its counterexample, and every
        other row is the row of the unmutated run."""
        argv = ("--check", "all", "--n-min", "2", "--n-max", "3")
        rc, out = self.run_json(capsys, *argv)
        assert rc == 0
        clean = json.loads(out)
        real = feff.build_maps

        def swapped(n: int, source: str):
            maps = copy.copy(real(n, source))
            maps.j_of = [maps.j_of[0], maps.j_of[2], maps.j_of[1], *maps.j_of[3:]]
            return maps

        monkeypatch.setattr(feff, "build_maps", swapped)
        rc, out = self.run_json(capsys, *argv)
        assert rc == 1
        rows = json.loads(out)
        assert len(rows) == len(clean) == 22
        raised = [(row["check"], row["n"]) for row, before in zip(rows, clean)
                  if row != before]
        assert raised == [("path-normality", 2), ("path-normality", 3),
                          ("torsion-transfer", 2), ("torsion-transfer", 3)]
        for row, before in zip(rows, clean):
            if (row["check"], row["n"]) in raised:
                assert row == {"check": row["check"], "n": row["n"], "status": "FAIL",
                               "cases_run": 0, "wall_time_ms": 0,
                               "counterexample": "ValueError: index tuple is not "
                                                 "strictly increasing"}
            else:
                assert row == before and row["status"] == "PASS"

    def test_unknown_check_is_rejected_by_the_parser(self) -> None:
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--check", "curvature"])
        assert err.value.code == 2

    def test_failing_cell_sets_exit_code_and_counterexample(
            self, capsys, monkeypatch) -> None:
        stub = Report(name="jacobi", n=2, cases=3,
                      failures=["stub mismatch"], details={}, failed=1)
        monkeypatch.setattr(cli, "run_check", lambda *a: stub)
        rc, out = self.run_json(capsys, "--check", "jacobi",
                                "--n-min", "2", "--n-max", "2")
        assert rc == 1
        rows = json.loads(out)
        assert rows[0]["status"] == "FAIL"
        assert rows[0]["counterexample"] == "stub mismatch"
        rc = cli.main(["verify", "--check", "jacobi",
                       "--n-min", "2", "--n-max", "2"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "counterexample: stub mismatch (1 failure)" in text
        assert "1 FAIL" in text


class TestCostarCommand:
    def test_matches_the_library_operator(self, tmp_path, capsys) -> None:
        c = sample_cochain(blocks=(2, 3), deg=2, seed=4)
        src, dst = str(tmp_path / "in.json"), str(tmp_path / "out.json")
        save_cochain(c, src)
        assert cli.main(["costar", "--input", src, "--output", dst]) == 0
        assert load_cochain(dst) == costar(c)

    def test_degree_zero_is_rejected(self, tmp_path, capsys) -> None:
        src, dst = str(tmp_path / "in.json"), str(tmp_path / "out.json")
        save_cochain(Cochain(graded_sl((1, 1, 2)), 0), src)
        assert cli.main(["costar", "--input", src, "--output", dst]) == 2
        assert "degree >= 1" in capsys.readouterr().err

    def test_missing_input_is_an_input_error(self, tmp_path, capsys) -> None:
        rc = cli.main(["costar", "--input", str(tmp_path / "absent.json"),
                       "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_input_is_an_input_error(self, tmp_path, capsys) -> None:
        src = tmp_path / "in.json"
        src.write_text('{"algebra": {"type": "gl"}}', encoding="utf-8")
        rc = cli.main(["costar", "--input", str(src),
                       "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_unreadable_input_is_an_input_error(self, tmp_path, capsys, case) -> None:
        content, where = BAD_FILES[case]
        src = tmp_path / "in.json"
        src.write_bytes(content)
        rc = cli.main(["costar", "--input", str(src),
                       "--output", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and where.format(path=src) in err


class TestTransferCommand:
    def test_matches_the_library_transfer(self, tmp_path) -> None:
        c = sample_cochain(blocks=(1, 1, 2), deg=2, seed=5)
        src, dst = str(tmp_path / "in.json"), str(tmp_path / "out.json")
        save_cochain(c, src)
        rc = cli.main(["transfer", "--input", src, "--source", "path",
                       "--output", dst])
        assert rc == 0
        out = load_cochain(dst)
        assert out == transfer(c, build_maps(2, "path"))
        kernel = build_maps(2, "path").gt.index_of_neg[(2, 1)]
        assert all(kernel not in T for T in out.data)

    def test_source_grading_mismatch(self, tmp_path, capsys) -> None:
        c = sample_cochain(blocks=(1, 1, 2), deg=2, seed=6)
        src = str(tmp_path / "in.json")
        save_cochain(c, src)
        rc = cli.main(["transfer", "--input", src, "--source", "ag",
                       "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "needs the grading" in capsys.readouterr().err

    def test_wrong_degree_is_rejected(self, tmp_path, capsys) -> None:
        src = str(tmp_path / "in.json")
        save_cochain(sample_cochain(blocks=(1, 1, 2), deg=1, seed=7), src)
        rc = cli.main(["transfer", "--input", src, "--source", "path",
                       "--output", str(tmp_path / "out.json")])
        assert rc == 2
        assert "degree-2" in capsys.readouterr().err


class TestCachedParser:
    def test_one_parser_per_process(self) -> None:
        assert cli.build_parser() is cli.build_parser()

    def test_defaults_survive_an_earlier_parse(self) -> None:
        parser = cli.build_parser()
        args = parser.parse_args(["verify", "--check", "jacobi", "--n-max", "2"])
        assert (args.check, args.n_max) == ("jacobi", 2)
        args = parser.parse_args(["verify"])
        assert (args.check, args.n_min, args.n_max) == ("all", 2, 3)

    def test_required_source_after_a_call_that_had_one(self, tmp_path, capsys) -> None:
        src, dst = str(tmp_path / "in.json"), str(tmp_path / "out.json")
        save_cochain(sample_cochain(blocks=(1, 1, 2), deg=2, seed=9), src)
        assert cli.main(["transfer", "--input", src, "--source", "path",
                         "--output", dst]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["transfer", "--input", src, "--output", dst])
        assert exc.value.code == 2
        assert "--source" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["costar", "transfer"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, command, where) -> None:
    src = str(tmp_path / "in.json")
    save_cochain(sample_cochain(blocks=(1, 1, 2), deg=2, seed=8), src)
    dst = tmp_path / "absent" / "out.json" if where == "missing-directory" else tmp_path
    extra = ["--source", "path"] if command == "transfer" else []
    rc = cli.main([command, "--input", src, *extra, "--output", str(dst)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and str(dst) in err
    assert "Traceback" not in err and err.count("\n") == 1
