"""End-to-end tests of the command-line interface via main(argv)."""

import hashlib
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import explab.checks as checks
import explab.cli as cli
from explab.classify import MAX_COLUMNS, ColumnLimitError, classify
from explab.groupexp import ExtrapolationError, PhaseFunction
from explab.lie import MAX_INDEX_DIGITS, LieAlgebra

# sha256 of each built-in `classify --format json` report, recorded with
# the benchmark; read here, never rewritten by the tests
EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "expected.json").read_text())["classify"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rough_phase(r, x, t):
    """x1 v1 log|v1|: not smooth at the identity, so extraction cannot converge."""
    v = r.A[..., 1, 0]
    return x[..., 0] * v * np.log(np.where(v == 0, 1.0, np.abs(v)))


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert err == ""
    return code, json.loads(out)


class TestClassifyCommand:
    def test_galilean_quotient(self, capsys):
        code, report = run_json(["classify", "--algebra", "galilean"], capsys)
        assert code == 0
        assert report["results"]["quotient_dim"] == 1
        assert report["schema_version"] == 1
        assert report["timing"] is None

    def test_milne_quotient(self, capsys):
        code, report = run_json(["classify", "--algebra", "milne:3"], capsys)
        assert code == 0
        assert report["results"]["quotient_dim"] == 6

    def test_phase_space_quotient(self, capsys):
        code, report = run_json(["classify", "--algebra", "phase-space:2"], capsys)
        assert code == 0
        assert report["results"]["quotient_dim"] == 6

    def test_explicit_degree(self, capsys):
        code, report = run_json(
            ["classify", "--algebra", "galilean", "--degree", "2"], capsys)
        assert code == 0
        assert report["results"]["degree_used"] == 2
        assert report["input"]["degree"] == 2

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(["classify", "--algebra", "milne:2"], capsys)
        _, second, _ = run_cli(["classify", "--algebra", "milne:2"], capsys)
        assert first == second

    def test_json_reserializes_byte_identical(self, capsys):
        _, out, _ = run_cli(["classify", "--algebra", "galilean"], capsys)
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(["classify", "--algebra", "galilean",
                                "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["results"]["quotient_dim"] == 1

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(["classify", "--algebra", "galilean",
                                  "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err and not target.exists()

    def test_directory_algebra_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(["classify", "--algebra", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_non_utf8_algebra_is_a_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "latin1.json"
        spec.write_bytes('{"labels": ["\u00e9"], "brackets": []}'.encode("latin-1"))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err

    def test_algebra_file(self, capsys, tmp_path):
        spec = tmp_path / "plane.json"
        spec.write_text(json.dumps({
            "labels": ["p1", "q1"], "brackets": [], "time_generator": None}))
        code, report = run_json(["classify", "--algebra", str(spec)], capsys)
        assert code == 0
        assert report["results"]["quotient_dim"] == 1

    def test_malformed_file_is_a_parse_error(self, capsys, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text('{"labels": ["x",\n')
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert "line" in err and "column" in err

    def test_jacobi_violation_names_the_triple(self, capsys, tmp_path):
        spec = tmp_path / "nonlie.json"
        spec.write_text(json.dumps({
            "labels": ["x", "y", "z"],
            "brackets": [
                {"lhs": "x", "rhs": "y", "out": [["z", "1"]]},
                {"lhs": "y", "rhs": "z", "out": [["y", "1"]]},
            ],
            "time_generator": None}))
        code, _, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2
        assert "jacobi" in err and "(x,y,z)" in err

    def test_time_component_in_a_bracket_is_a_usage_error(self, capsys, tmp_path):
        # [x, y] = tau: polynomials in t are then not a module, so there is
        # no complex to classify on
        spec = tmp_path / "central-time.json"
        spec.write_text(json.dumps({
            "labels": ["tau", "x", "y", "z"],
            "brackets": [{"lhs": "x", "rhs": "y", "out": [["tau", "1"]]}],
            "time_generator": "tau"}))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "[x, y]" in err and "tau" in err

    def test_float_coefficient_rejected(self, capsys, tmp_path):
        spec = tmp_path / "inexact.json"
        spec.write_text(json.dumps({
            "labels": ["x", "y", "z"],
            "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", 0.1]]}],
            "time_generator": None}))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert "(x, y), coefficient of z" in err and "0.1" in err

    def test_bool_coefficient_rejected(self, capsys, tmp_path):
        spec = tmp_path / "bool.json"
        spec.write_text(json.dumps({
            "labels": ["x", "y", "z"],
            "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", True]]}],
            "time_generator": None}))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert "(x, y), coefficient of z" in err and "True" in err

    @pytest.mark.parametrize("coefficient, message", [
        ("1/0", "zero denominator"), ("1e100000000", "decimal exponent beyond 4300")])
    def test_unreadable_coefficient_string_is_a_usage_error(self, coefficient, message,
                                                            capsys, tmp_path):
        spec = tmp_path / "coefficient.json"
        spec.write_text(json.dumps({
            "labels": ["x", "y", "z"],
            "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", coefficient]]}]}))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "(x, y), coefficient of z" in err and message in err

    def test_unknown_algebra_name(self, capsys):
        code, _, err = run_cli(["classify", "--algebra", "heisenberg"], capsys)
        assert code == 2 and "unknown algebra" in err

    def test_negative_degree_rejected(self, capsys):
        code, _, err = run_cli(
            ["classify", "--algebra", "galilean", "--degree", "-1"], capsys)
        assert code == 2 and "degree" in err

    def test_oversized_degree_is_a_usage_error(self, capsys):
        # refused from the column count alone: no row is built, so the
        # run stays far below the memory a layout of that size would take
        tracemalloc.start()
        try:
            code, out, err = run_cli(["classify", "--algebra", "galilean",
                                      "--degree", "1000000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "limit is %d" % MAX_COLUMNS in err
        assert peak < 1_000_000

    def test_oversized_json_algebra_is_refused_before_validation(self, capsys, tmp_path):
        # refused from the label count: validation would visit all 10.7
        # million triples of labels
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps({"labels": ["x%03d" % k for k in range(401)],
                                    "brackets": []}))
        started = time.perf_counter()
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert err == ("error: degree 0 needs 80200 coefficient columns on wide.json; "
                       "the limit is %d\n" % MAX_COLUMNS)

    @pytest.mark.parametrize("n, timed, degree", [(101, True, "auto"), (101, False, "1"),
                                                  (60, True, "5"), (142, False, "auto")])
    def test_json_algebra_refused_as_classify_refuses_it(self, n, timed, degree,
                                                         capsys, tmp_path, monkeypatch):
        labels = ["x%03d" % k for k in range(n)]
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps({"labels": labels, "brackets": [],
                                    "time_generator": labels[0] if timed else None}))
        alg = LieAlgebra(labels, {}, time_index=0 if timed else None, name="wide.json")
        with pytest.raises(ColumnLimitError) as built:
            classify(alg, degree=degree if degree == "auto" else int(degree))
        monkeypatch.setattr(LieAlgebra, "_jacobi_violations",
                            lambda self: pytest.fail("validated"))
        code, out, err = run_cli(["classify", "--algebra", str(spec), "--degree", degree],
                                 capsys)
        assert code == 2 and out == "" and err == "error: %s\n" % built.value

    @pytest.mark.parametrize("data", [[1, 2], {"labels": 5, "brackets": []},
                                      {"brackets": []}])
    def test_malformed_algebra_is_not_sized(self, data, capsys, tmp_path):
        spec = tmp_path / "malformed.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid algebra in %s: " % spec)

    ENTRY = ('brackets[%d] must be {"lhs": label, "rhs": label, '
             '"out": [[label, coefficient], ...]}')

    @pytest.mark.parametrize("fields, message", [
        ({"labels": [None, 2, "tau"]}, "labels must be a list of strings"),
        ({"labels": "abc"}, "labels must be a list of strings"),
        ({"labels": "x" * 500}, "labels must be a list of strings"),
        ({"time_generator": 0}, "time_generator must be a string or null"),
        ({"time_generator": ["tau"]}, "time_generator must be a string or null"),
        ({"brackets": {"lhs": "x", "rhs": "y", "out": [["z", "1"]]}},
         "brackets must be a list"),
        ({"brackets": [["x", "y", [["z", "1"]]]]}, ENTRY % 0),
        ({"brackets": [{"lhs": "x", "rhs": 1, "out": []}]}, ENTRY % 0),
        ({"brackets": [{"lhs": "x", "rhs": "y"}]}, ENTRY % 0),
        ({"brackets": [{"lhs": "x", "rhs": "y", "out": {"z": "1"}}]}, ENTRY % 0),
        ({"brackets": [{"lhs": "x", "rhs": "y", "out": [["z", "1", "2"]]}]}, ENTRY % 0),
        ({"brackets": [{"lhs": "x", "rhs": "z", "out": []},
                       {"lhs": "x", "rhs": "y", "out": [[None, "1"]]}]}, ENTRY % 1)])
    def test_untyped_field_is_refused(self, fields, message, capsys, tmp_path):
        # JSON values of another type are not read as strings or lists
        data = {"labels": ["x", "y", "z"], "brackets": [], "time_generator": None}
        data.update(fields)
        spec = tmp_path / "untyped.json"
        spec.write_text(json.dumps(data))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert err == "error: invalid algebra in %s: %s\n" % (spec, message)

    def test_text_format(self, capsys):
        code, out, _ = run_cli(["classify", "--algebra", "galilean",
                                "--format", "text"], capsys)
        assert code == 0
        assert "quotient_dim 1" in out and "coordinates: gamma" in out


class TestVerifyCommand:
    def test_galilean_suite_passes(self, capsys):
        code, report = run_json(["verify", "--suite", "galilean",
                                 "--samples", "200", "--seed", "3"], capsys)
        assert code == 0
        assert report["results"]["passed"] is True
        names = [c["name"] for c in report["results"]["checks"]]
        assert "cocycle-identities" in names and "time-independence" in names
        assert report["input"] == {"suite": "galilean", "samples": 200, "seed": 3}
        assert report["timing"] > 0

    def test_milne_suite_passes(self, capsys):
        code, report = run_json(["verify", "--suite", "milne:1",
                                 "--samples", "150"], capsys)
        assert code == 0
        names = {c["name"] for c in report["results"]["checks"]}
        assert {"structure-recurrence", "structure-antisymmetry",
                "realizable-dimension"} <= names

    def test_bundle_suite_passes(self, capsys):
        code, report = run_json(["verify", "--suite", "bundle"], capsys)
        assert code == 0
        assert all(c["passed"] for c in report["results"]["checks"])

    def test_h_group_suite_passes(self, capsys):
        code, report = run_json(["verify", "--suite", "h-group",
                                 "--samples", "50"], capsys)
        assert code == 0
        assert report["results"]["checks"][0]["name"] == "associativity-matches-composition"

    def test_schrodinger_suite_passes(self, capsys):
        code, report = run_json(["verify", "--suite", "schrodinger"], capsys)
        assert code == 0
        sweep = next(c for c in report["results"]["checks"]
                     if c["name"] == "mass-ratio-sweep")
        assert sweep["best_ratio"] == 1.0

    def test_oversized_milne_suite_is_a_usage_error(self, capsys):
        # the certified bound 2m - 1 exceeds the column limit from m = 9 on
        for m, degree in ((9, 17), (12, 23)):
            code, out, err = run_cli(["verify", "--suite", "milne:%d" % m], capsys)
            assert code == 2 and out == ""
            assert err.startswith("error: degree %d needs" % degree)
            assert err.count("\n") == 1 and "limit is %d" % MAX_COLUMNS in err

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == 2 and "unknown suite" in err

    def test_nonpositive_samples_rejected(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "galilean",
                                "--samples", "0"], capsys)
        assert code == 2 and "samples" in err

    @pytest.mark.parametrize("suite", ["galilean", "milne:2", "bundle",
                                       "schrodinger", "h-group"])
    def test_negative_seed_rejected(self, suite, capsys):
        code, out, err = run_cli(["verify", "--suite", suite, "--seed", "-1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err

    @pytest.mark.parametrize("argv, flag", [
        (["classify", "--algebra", "galilean", "--degree", "1_0"], "--degree"),
        (["classify", "--algebra", "galilean", "--degree", "\u0663"], "--degree"),
        (["classify", "--algebra", "galilean", "--degree", "+2"], "--degree"),
        (["classify", "--algebra", "galilean", "--degree", " 3"], "--degree"),
        (["verify", "--suite", "h-group", "--samples", "1_0"], "--samples"),
        (["verify", "--suite", "h-group", "--samples", "+2"], "--samples"),
        (["verify", "--suite", "h-group", "--samples", "5 "], "--samples"),
        (["verify", "--suite", "h-group", "--samples", "\uff15"], "--samples"),
        (["verify", "--suite", "h-group", "--seed", "\u0663"], "--seed"),
        (["verify", "--suite", "h-group", "--seed", "1_0"], "--seed"),
        (["verify", "--suite", "h-group", "--seed", "+2"], "--seed"),
        (["verify", "--suite", "h-group", "--seed", "9" * 5000], "--seed"),
    ])
    def test_an_integer_flag_reads_ascii_digits_only(self, argv, flag, capsys):
        # int() reads each of these values; the flag refuses them as it
        # refuses "abc"
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "error: argument %s: " % flag in captured.err
        assert "Traceback" not in captured.err

    def test_integer_flags_echo_ints(self, capsys):
        code, report = run_json(["verify", "--suite", "h-group", "--samples", "007",
                                 "--seed", "12"], capsys)
        assert code == 0 and report["input"]["samples"] == 7
        assert report["input"]["seed"] == 12
        code, report = run_json(["classify", "--algebra", "galilean",
                                 "--degree", "02"], capsys)
        assert code == 0 and report["input"]["degree"] == 2

    def test_oversized_samples_is_a_usage_error(self, capsys):
        # refused before any draw: the suites hold up to 3.2 KB per sample
        tracemalloc.start()
        try:
            code, out, err = run_cli(["verify", "--suite", "galilean",
                                      "--samples", "1000000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "%d" % cli.MAX_SAMPLES in err
        assert peak < 1_000_000

    @pytest.mark.parametrize("run, budget", [
        (checks.galilean_suite, 11_000_000),
        (lambda samples, seed: checks.milne_suite(2, samples, seed), 14_000_000),
        (lambda samples, seed: checks.milne_suite(4, samples, seed), 20_000_000)],
        ids=["galilean", "milne:2", "milne:4"])
    def test_suite_peak_memory_stays_within_the_stated_budget(self, run, budget):
        # the budgets of the comment on cli.MAX_SAMPLES, at 10^4 samples; a
        # first small run loads what the suite imports and memoizes
        run(10, 0)
        tracemalloc.start()
        try:
            run(10_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_failing_check_exits_one_with_report(self, capsys, monkeypatch):
        # variance is nonnegative, so this tolerance cannot be met
        monkeypatch.setattr(checks, "VARIANCE_TOL", -1.0)
        code, report = run_json(["verify", "--suite", "galilean",
                                 "--samples", "50"], capsys)
        assert code == 1
        assert report["results"]["passed"] is False
        failing = [c for c in report["results"]["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == ["time-independence"]

    def test_text_format_lists_checks(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "bundle",
                                "--format", "text"], capsys)
        assert code == 0
        assert "PASS planted-phase-recovery" in out
        assert out.strip().splitlines()[-2] == "result: PASS"


class TestExponentCommand:
    def test_boost_translation_pair_matches_mass(self, capsys):
        code, report = run_json(["exponent", "--group", "galilean",
                                 "--theta", "galilean-mass:2",
                                 "--pair", "b1,d1"], capsys)
        assert code == 0
        entry = report["results"]["entries"][0]
        assert entry["reference"] == 2.0
        assert abs(entry["value"] - 2.0) <= 1e-6 * 2.0

    def test_commuting_pair_extracts_zero(self, capsys):
        code, report = run_json(["exponent", "--group", "galilean",
                                 "--theta", "galilean-mass:2",
                                 "--pair", "b1,b2"], capsys)
        assert code == 0
        assert abs(report["results"]["entries"][0]["value"]) <= 1e-6

    def test_milne_all_pairs_table(self, capsys):
        code, report = run_json(["exponent", "--group", "milne:2",
                                 "--theta", "milne-schrodinger:1",
                                 "--all-pairs"], capsys)
        assert code == 0
        results = report["results"]
        assert len(results["entries"]) == 78  # C(13, 2)
        assert {c["name"] for c in results["checks"]} == {
            "rotation-time-zero", "cross-axis-zero",
            "inner-pairs-zero-at-origin"}
        assert results["passed"] is True

    def test_group_theta_mismatch(self, capsys):
        code, _, err = run_cli(["exponent", "--group", "milne:2",
                                "--theta", "galilean-mass:1",
                                "--pair", "d0_1,tau"], capsys)
        assert code == 2 and "does not act" in err

    def test_unknown_generator_label(self, capsys):
        code, _, err = run_cli(["exponent", "--group", "galilean",
                                "--theta", "galilean-mass:1",
                                "--pair", "b1,z9"], capsys)
        assert code == 2 and "unknown generator" in err

    def test_repeated_label_rejected(self, capsys):
        code, _, err = run_cli(["exponent", "--group", "galilean",
                                "--theta", "galilean-mass:1",
                                "--pair", "b1,b1"], capsys)
        assert code == 2 and "distinct" in err

    def test_pair_and_all_pairs_required_choice(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["exponent", "--group", "galilean",
                      "--theta", "galilean-mass:1"])
        assert exc.value.code == 2

    def test_nonconvergent_extraction_exits_one(self, capsys, monkeypatch):
        def diverge(theta, alg, pairs, p, tau0=0.1, levels=6):
            raise ExtrapolationError("sequence grows without bound")
        monkeypatch.setattr(checks, "extraction_table", diverge)
        code, out, err = run_cli(["exponent", "--group", "galilean",
                                  "--theta", "galilean-mass:1",
                                  "--pair", "b1,d1"], capsys)
        assert code == 1 and out == "" and "converge" in err

    def test_non_smooth_phase_exits_one(self, capsys, monkeypatch):
        rough = PhaseFunction("rough", "galilean", rough_phase)
        monkeypatch.setattr(cli, "load_theta", lambda spec: (rough, 1.0))
        code, out, err = run_cli(["exponent", "--group", "galilean",
                                  "--theta", "galilean-mass:1",
                                  "--pair", "b1,d1"], capsys)
        assert code == 1 and out == "" and "converge" in err

    def test_infinite_mass_rejected(self, capsys):
        code, out, err = run_cli(["exponent", "--group", "galilean",
                                  "--theta", "galilean-mass:inf",
                                  "--pair", "b1,d1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "mass" in err

    def test_overflowing_mass_names_first_failing_pair(self, capsys):
        # the table's first pair that does not converge is the one reported
        code, out, err = run_cli(["exponent", "--group", "galilean",
                                  "--theta", "galilean-mass:1e308",
                                  "--all-pairs"], capsys)
        assert code == 1 and out == ""
        assert "no convergence on a12,d1:" in err

    @pytest.mark.parametrize("mass", ["1_0", " 2", "+2", "\u0663", "2 ", "nan", "0x1", ""])
    def test_mass_is_a_plain_decimal_literal(self, mass, capsys):
        code, out, err = run_cli(["exponent", "--group", "galilean",
                                  "--theta", "galilean-mass:" + mass,
                                  "--pair", "b1,d1"], capsys)
        assert code == 2 and out == ""
        assert err == "error: bad mass in %r\n" % ("galilean-mass:" + mass)

    @pytest.mark.parametrize("mass, value", [("2", 2.0), ("0.5", 0.5), (".5", 0.5),
                                             ("5.", 5.0), ("1e3", 1000.0), ("25E-1", 2.5)])
    def test_decimal_masses_are_read(self, mass, value):
        assert cli.load_theta("galilean-mass:" + mass)[1] == value

    @pytest.mark.parametrize("group", ["phase-space:2", "milne", "heisenberg"])
    def test_unknown_group_spec(self, group, capsys):
        code, out, err = run_cli(["exponent", "--group", group,
                                  "--theta", "milne-schrodinger:1", "--all-pairs"], capsys)
        assert code == 2 and out == ""
        assert err == ("error: unknown group spec %r (use galilean or milne:<m>)\n"
                       % group)

    def test_bad_theta_spec(self, capsys):
        code, _, err = run_cli(["exponent", "--group", "galilean",
                                "--theta", "newton-mass:1",
                                "--pair", "b1,d1"], capsys)
        assert code == 2 and "theta" in err


@pytest.mark.parametrize("spec, message", [
    ("milne:0", "milne index must be >= 1"),
    ("milne:x", "bad index in 'milne:x': expected milne:<integer>"),
    ("milne:1_0", "bad index in 'milne:1_0': expected milne:<integer>"),
    ("milne: 2", "bad index in 'milne: 2': expected milne:<integer>"),
    ("milne:+2", "bad index in 'milne:+2': expected milne:<integer>"),
    ("milne:\u0663", "bad index in 'milne:\u0663': expected milne:<integer>"),
    # int() refuses more than 4300 digits with a message that names neither
    # the spec nor the family
    *(pytest.param("milne:" + digits, "milne index has more than %d digits" % MAX_INDEX_DIGITS,
                   id="milne:<5000 digits>") for digits in ("9" * 5000, "1" + "0" * 4999))])
def test_family_spec_errors_agree_across_commands(spec, message, capsys):
    # one parser reads milne:<m> for classify, exponent and verify
    errors = set()
    for argv in (["classify", "--algebra", spec],
                 ["exponent", "--group", spec, "--theta", "milne-schrodinger:1",
                  "--all-pairs"],
                 ["verify", "--suite", spec]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "int_max_str_digits" not in err
        errors.add(err)
    assert errors == {"error: %s\n" % message}


@pytest.mark.parametrize("argv", [["classify", "--algebra", "milne:1000000"],
                                  ["verify", "--suite", "milne:1000000"]])
def test_oversized_family_is_refused_before_it_is_built(argv, capsys):
    # the first solve's column count is a closed form in m, so milne(m),
    # linear in m, is never built
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: degree 1 needs") and "limit is %d" % MAX_COLUMNS in err
    assert peak < 1_000_000


@pytest.mark.parametrize("m", [17, 1000000])
def test_oversized_exponent_group_is_refused_before_it_is_built(m, capsys):
    # milne:16 is the largest group whose table fits the pair limit
    tracemalloc.start()
    try:
        code, out, err = run_cli(["exponent", "--group", "milne:%d" % m, "--theta",
                                  "milne-schrodinger:1", "--pair", "tau,d1_1"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = 3 * m + 7
    assert code == 2 and out == ""
    assert err == ("error: the exponent table of milne:%d has %d generator pairs; "
                   "the limit is %d\n" % (m, dim * (dim - 1) // 2, checks.MAX_TABLE_PAIRS))
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [
    ["classify", "--algebra"], ["verify", "--samples", "20", "--suite"],
    ["exponent", "--theta", "milne-schrodinger:1", "--pair", "tau,d1_1", "--group"]])
def test_leading_zeros_of_an_index_are_not_counted(argv, capsys):
    results = []
    for spec in ("milne:2", "milne:" + "0" * 5000 + "2"):
        code, out, err = run_cli(argv + [spec], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)["results"]
        report.pop("suite", None)
        results.append(report)
    assert results[0] == results[1]


def test_pair_limit_admits_milne_16():
    checks.check_table_pairs("milne", 16)
    with pytest.raises(checks.PairLimitError):
        checks.check_table_pairs("milne", 17)


@pytest.mark.parametrize("spec", ["galilean", "milne:1", "milne:2", "milne:3",
                                  "milne:4", "milne:5", "phase-space:1",
                                  "phase-space:2", "phase-space:3"])
def test_classify_report_bytes_are_golden(spec, capsys, monkeypatch):
    # the digests were taken with explab run from src/, uninstalled
    monkeypatch.setattr(cli, "_tool_stamp",
                        lambda: {"name": "explab", "version": "unknown"})
    code, out, _ = run_cli(["classify", "--algebra", spec, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXPECTED[spec]["sha256"]


# sha256 of `classify --format json` reports outside the benchmark's set:
# larger auto-degree runs, explicit degrees, and Bug B's algebra, whose
# auto-mode report holds its two classes and no truncation artifact
CENTRAL_TIME = {"labels": ["tau", "x", "y", "z"], "time_generator": "tau",
                "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", "1"]]}]}
GOLDEN = {
    ("milne:6",): "16bd57b8ed8a0e6936189e6e100b21a1fa0afdadc9565b47847a88aa337f1c03",
    ("milne:7",): "69c91d7ff67640bfa3630a5553534abd60740090d92b491f307793cb6c11802d",
    ("galilean", "--degree", "0"):
        "6eb03345e93696a06b2278cdc1643f7f7ccc774f2440dda35bff4012418320f7",
    ("galilean", "--degree", "3"):
        "d8fee61497b6b6dcdd28f9092d9b00b26dea603abc589fbc27b5ed4016ebdc27",
    ("milne:2", "--degree", "0"):
        "09c12b43bccf4beac5ee60a06f6117790d16997dd3e7e4936f7c44e898195544",
    ("milne:2", "--degree", "3"):
        "029c3136593bf687c5ec6d80279228e47609bb7f91a32f77bd365649be752af6",
    ("central-time.json",): "b7b7f6a6c6a73f0b7f91ce52338e971ba6a781c0c539b3993e9f963164174e71",
}


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_more_classify_report_bytes_are_golden(args, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_tool_stamp",
                        lambda: {"name": "explab", "version": "unknown"})
    # the report echoes the algebra path, so the JSON algebra is read by name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "central-time.json").write_text(json.dumps(CENTRAL_TIME))
    code, out, _ = run_cli(["classify", "--algebra", *args, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[args]


# sha256 of `exponent --all-pairs --format json` reports with their timing
# line removed; the extraction point is fixed, so the tables are
# deterministic to the bit
EXPONENT_GOLDEN = {
    ("galilean", "galilean-mass:2"):
        "99e3a275fdc701bee230eca69f815058893a5897d23c96af53ac74c92cac6d2e",
    ("milne:2", "milne-schrodinger:1"):
        "e6978714ed10b34a5cb347a9769eb5c670fb5423d8056fb1c79f6f7c05bedf16",
}


@pytest.mark.parametrize("group, theta", sorted(EXPONENT_GOLDEN), ids=" ".join)
def test_exponent_table_bytes_are_golden(group, theta, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_tool_stamp",
                        lambda: {"name": "explab", "version": "unknown"})
    code, out, _ = run_cli(["exponent", "--group", group, "--theta", theta,
                            "--all-pairs", "--format", "json"], capsys)
    assert code == 0
    lines = out.splitlines(keepends=True)
    untimed = [line for line in lines if not line.startswith('  "timing": ')]
    assert len(untimed) == len(lines) - 1
    assert hashlib.sha256("".join(untimed).encode("utf-8")).hexdigest() == \
        EXPONENT_GOLDEN[group, theta]


# sha256 of `verify --seed 1 --format json` reports with their timing line
# removed: the sampled violations are pinned to the bit, so a change to
# the group layer that keeps the arithmetic keeps these bytes
VERIFY_GOLDEN = {
    "galilean": "5f9d72e4f2232528f2e45ecb05604d74bcf1e7d3c7eebee156203fc28d73b067",
    "milne:2": "9079361341d1b4559bb389d4b62095e368e546e410642b7bc7482879fbd8d6ff",
    "h-group": "90e1b5f4b4b94be901947d0430fda96b71e19a3daf27af1627a222beb39e52a6",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_GOLDEN))
def test_verify_report_bytes_are_golden(suite, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_tool_stamp",
                        lambda: {"name": "explab", "version": "unknown"})
    code, out, _ = run_cli(["verify", "--suite", suite, "--seed", "1",
                            "--format", "json"], capsys)
    assert code == 0
    lines = out.splitlines(keepends=True)
    untimed = [line for line in lines if not line.startswith('  "timing": ')]
    assert len(untimed) == len(lines) - 1
    assert hashlib.sha256("".join(untimed).encode("utf-8")).hexdigest() == \
        VERIFY_GOLDEN[suite]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "explab.cli", "classify",
         "--algebra", "phase-space:1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["quotient_dim"] == 1


def test_closed_stdout_exits_1_without_a_traceback():
    # the milne:7 report (about 184 KB) outgrows a pipe buffer, so the
    # write meets the closed pipe, as in `explab classify ... | head -c 100`
    proc = subprocess.Popen(
        [sys.executable, "-m", "explab.cli", "classify", "--algebra", "milne:7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == cli.EXIT_CHECK_FAILED
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


class TestOneParser:
    ARGV = (["classify", "--algebra", "galilean"],
            ["verify", "--suite", "galilean", "--samples", "50", "--seed", "3"],
            ["exponent", "--group", "galilean", "--theta", "galilean-mass:2",
             "--pair", "b1,d1"],
            ["classify", "--algebra", "milne:1", "--degree", "2", "--format", "text"],
            ["verify", "--suite", "bundle"])

    @staticmethod
    def untimed(out):
        if out.startswith("{"):
            report = json.loads(out)
            report.pop("timing")
            return report
        return out

    def test_the_parser_is_built_once_on_first_use(self):
        assert cli._build_parser() is cli._build_parser()

    def test_alternating_commands_print_what_fresh_parsers_print(self, capsys, monkeypatch):
        kept = [run_cli(argv, capsys) for argv in self.ARGV + self.ARGV[::-1]]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_cli(argv, capsys) for argv in self.ARGV + self.ARGV[::-1]]
        assert [(code, self.untimed(out), err) for code, out, err in kept] == \
            [(code, self.untimed(out), err) for code, out, err in fresh]
        assert all(code == 0 for code, _, _ in kept)

    def test_no_default_leaks_between_subcommands(self):
        parser = cli._build_parser()
        for argv in self.ARGV + self.ARGV[::-1]:
            parsed = vars(parser.parse_args(argv))
            assert parsed == vars(cli._build_parser.__wrapped__().parse_args(argv))
        bare = {"classify": {"command", "run", "algebra", "degree", "fmt", "out"},
                "verify": {"command", "run", "suite", "samples", "seed", "fmt", "out"},
                "exponent": {"command", "run", "group", "theta", "pair", "all_pairs",
                             "fmt", "out"}}
        for argv in self.ARGV:
            assert set(vars(parser.parse_args(argv))) == bare[argv[0]]
