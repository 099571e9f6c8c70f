"""Tests for the cochain file format, the check registry, and the CLI.

The JSON report list is the machine interface, so the tests pin its shape:
sorted keys, wall_time_ms fixed to 0, a counterexample field only on
failing cells, and byte-identical output for identical (check, n, seed,
trials) invocations.  Exit codes: 0 all-pass, 1 any failure, 2 for usage
or input errors.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest

from kostantcheck import checks, cli, feff, penrose
from kostantcheck.checks import CHECK_NAMES, CHECKS, run_check
from kostantcheck.cochain_io import (
    CochainFormatError,
    cochain_to_doc,
    doc_to_cochain,
    format_rational,
    load_cochain,
    parse_rational,
    save_cochain,
)
from kostantcheck.feff import (Report, _Checker, build_maps, transfer,
                               verify_harmonic_types)
from kostantcheck.gla import graded_sl
from kostantcheck.kostant import Cochain, costar

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
        assert all(type(v) is Fraction for mat in c.data.values() for v in mat.values())


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
        broken = _Checker()
        for k in range(10):
            broken.check(False, f"bracket {k}")
        monkeypatch.setattr(feff, "_ag_bracket_identity", lambda n: broken.report(n))
        rep = run_check("ag-costar", 3, 1, 1)
        assert not rep.ok and rep.failed == 10
        assert rep.failures == [f"trial 0: bracket {k}" for k in range(8)]
        assert cli.main(["verify", "--check", "ag-costar", "--n-min", "3",
                         "--n-max", "3", "--trials", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexample: trial 0: bracket 0 (10 failures)" in out

    def test_failing_ag_harmonic_type_fails_the_sweep(self, monkeypatch) -> None:
        typed = {"ok": False, "harmonic_dim": 0, "tau_dim": 0, "rho_dim": 0,
                 "failures": [f"type {k}" for k in range(10)]}
        monkeypatch.setattr(penrose, "check_harmonic_torsion_type", lambda n: typed)
        rep = verify_harmonic_types(3, "ag")
        assert not rep.ok and rep.failed == 10
        assert rep.failures == [f"type {k}" for k in range(8)]


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
        vacuous = Report(name="jacobi", n=2, ok=True, cases=0)
        monkeypatch.setitem(CHECKS, "jacobi", (2, lambda n, rng, trials: vacuous))
        rc, out = self.run_json(capsys, "--check", "jacobi",
                                "--n-min", "2", "--n-max", "2")
        assert rc == 1
        assert json.loads(out) == [{"check": "jacobi", "n": 2, "status": "FAIL",
                                    "cases_run": 0, "wall_time_ms": 0,
                                    "counterexample": "the cell ran no cases"}]

    def test_unknown_check_is_rejected_by_the_parser(self) -> None:
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--check", "curvature"])
        assert err.value.code == 2

    def test_failing_cell_sets_exit_code_and_counterexample(
            self, capsys, monkeypatch) -> None:
        stub = Report(name="jacobi", n=2, ok=False, cases=3,
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
