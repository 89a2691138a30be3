"""End-to-end tests of the command-line interface via main(argv)."""

import json
import subprocess
import sys

import pytest

import explab.checks as checks
import explab.cli as cli
from explab.classify import DegreeCapError
from explab.groupexp import ExtrapolationError


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_float_coefficient_rejected(self, capsys, tmp_path):
        spec = tmp_path / "inexact.json"
        spec.write_text(json.dumps({
            "labels": ["x", "y", "z"],
            "brackets": [{"lhs": "x", "rhs": "y", "out": [["z", 0.1]]}],
            "time_generator": None}))
        code, out, err = run_cli(["classify", "--algebra", str(spec)], capsys)
        assert code == 2 and out == ""
        assert "(x, y), coefficient of z" in err and "0.1" in err

    def test_unknown_algebra_name(self, capsys):
        code, _, err = run_cli(["classify", "--algebra", "heisenberg"], capsys)
        assert code == 2 and "unknown algebra" in err

    def test_negative_degree_rejected(self, capsys):
        code, _, err = run_cli(
            ["classify", "--algebra", "galilean", "--degree", "-1"], capsys)
        assert code == 2 and "degree" in err

    def test_degree_cap_abort_exits_one(self, capsys, monkeypatch):
        def blow_up(alg, degree="auto"):
            raise DegreeCapError("quotient never stabilized below the cap")
        monkeypatch.setattr(cli, "classify", blow_up)
        code, out, err = run_cli(["classify", "--algebra", "galilean"], capsys)
        assert code == 1 and out == "" and "cap" in err

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

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
        assert code == 2 and "unknown suite" in err

    def test_nonpositive_samples_rejected(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "galilean",
                                "--samples", "0"], capsys)
        assert code == 2 and "samples" in err

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
        def diverge(theta, alg, a, b, p, tau0=0.1, levels=6):
            raise ExtrapolationError("sequence grows without bound")
        monkeypatch.setattr(cli, "infinitesimal_from_finite", diverge)
        code, out, err = run_cli(["exponent", "--group", "galilean",
                                  "--theta", "galilean-mass:1",
                                  "--pair", "b1,d1"], capsys)
        assert code == 1 and out == "" and "converge" in err

    def test_bad_theta_spec(self, capsys):
        code, _, err = run_cli(["exponent", "--group", "galilean",
                                "--theta", "newton-mass:1",
                                "--pair", "b1,d1"], capsys)
        assert code == 2 and "theta" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "explab.cli", "classify",
         "--algebra", "phase-space:1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["quotient_dim"] == 1
