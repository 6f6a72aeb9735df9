"""Command-line contract: outputs, exit codes, report replay, self-test determinism."""

import json

import pytest

import salemunits.trigpolys as trigpolys
from salemunits.cli import main
from salemunits.intpoly import IntPoly
from salemunits.salem import MAX_T


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerators:
    def test_cheb(self, capsys):
        code, out, _ = run(capsys, "cheb", "--k", "2")
        assert code == 0 and out.strip() == "-2,0,1"

    def test_ctrace_constant(self, capsys):
        code, out, _ = run(capsys, "ctrace", "--n", "2")
        assert code == 0 and out.strip() == "1"

    def test_ctrace_12(self, capsys):
        code, out, _ = run(capsys, "ctrace", "--n", "12")
        assert code == 0 and out.strip() == "0,3,0,-4,0,1"

    def test_bad_index_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cheb", "--k", "-1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["ctrace", "--n", "0"])
        assert exc.value.code == 2


class TestPlan:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "plan", "--n", "12", "--t", "9")
        assert code == 0
        assert out.splitlines()[0] == "quad-unit k=0"

    def test_hypothesis_violations(self, capsys):
        code, _, err = run(capsys, "plan", "--n", "20", "--t", "15")
        assert code == 3 and "5" in err
        code, _, err = run(capsys, "plan", "--n", "12", "--t", "10")
        assert code == 3 and "odd" in err
        code, _, err = run(capsys, "plan", "--n", "8", "--t", "9")
        assert code == 3 and "mod 8" in err


class TestSearch:
    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "search", "--n", "12", "--t", "9", "--want", "2", "--format", "json",
            "--output", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["n"] == 12 and payload["t"] == 9
        assert len(payload["certificates"]) == 2
        assert payload["distinct_salem_count"] == 2
        assert payload["plan"]["construction"] == "quad-unit"

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "12", "--t", "9", "--want", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "a,verdict,detail"
        assert lines[1].startswith("3,certified,")
        digits = lines[1].split(",")[2]
        assert len(digits.split(".")[1]) == 15

    def test_empty_search_exits_4(self, capsys):
        code, out, _ = run(capsys, "search", "--n", "12", "--t", "15", "--a-max", "5", "--format", "csv")
        assert code == 4
        assert "root_pattern" in out

    def test_hypothesis_exits_3(self, capsys):
        code, _, err = run(capsys, "search", "--n", "20", "--t", "15")
        assert code == 3

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "--n", "12", "--t", "9", "--a-min", "1")
        assert code == 2 and "a_min" in err
        code, _, err = run(capsys, "search", "--n", "12", "--t", "9", "--a-min", "10", "--a-max", "5")
        assert code == 2


class TestCertify:
    def test_round_trip_from_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "2", "--output", str(path))
        code, out, _ = run(capsys, "certify", "--from-report", str(path))
        assert code == 0
        assert out.count("OK") == 2

    def test_from_report_detects_tampering(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "1", "--output", str(path))
        payload = json.loads(path.read_text())
        payload["certificates"][0]["resultant"] = 7
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "certify", "--from-report", str(path))
        assert code == 5 and "FAIL" in out

    def test_from_report_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"certificates": [')
        code, out, err = run(capsys, "certify", "--from-report", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_from_report_missing_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"certificates":[{"n":12}]}')
        code, out, err = run(capsys, "certify", "--from-report", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "missing" in err

    @pytest.mark.parametrize(
        "field, value",
        [("n", "12"), ("alpha_precision", None), ("trace_poly", 5), ("root_pattern", []), ("beta_interval", {})],
    )
    def test_from_report_wrong_type_exits_2(self, capsys, tmp_path, field, value):
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "1", "--output", str(path))
        payload = json.loads(path.read_text())
        payload["certificates"][0][field] = value
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "certify", "--from-report", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1

    def test_from_report_one_tampered_certificate(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "2", "--output", str(path))
        payload = json.loads(path.read_text())
        cert = payload["certificates"][1]
        cert["irreducibility"]["degree_multisets"] = [["1", 8]] * len(cert["irreducibility"]["primes"])
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "certify", "--from-report", str(path))
        assert code == 5 and err == ""
        assert [line.split()[0] for line in out.splitlines()] == ["OK", "FAIL"]

    def test_min_poly_unit_gap(self, capsys):
        code, _, err = run(capsys, "certify", "1,-3,1", "--n", "2")
        assert code == 5
        assert "resultant" in err

    def test_non_reciprocal_min_poly(self, capsys):
        code, _, err = run(capsys, "certify", "2,0,1", "--n", "2", "--as", "min")
        assert code == 5
        assert "not reciprocal" in err

    def test_accepts_valid_trace(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", "23,-4,-6,1", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["resultant"] in (-1, 1)
        assert payload["min_poly"] == "1,-6,-1,11,-1,-6,1"

    def test_poly_from_file(self, capsys, tmp_path):
        p = tmp_path / "poly.txt"
        p.write_text("23,-4,-6,1\n")
        code, out, _ = run(capsys, "certify", str(p), "--n", "2")
        assert code == 0 and "certified" in out

    def test_malformed_poly_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", "1,x,3", "--n", "2")
        assert code == 2

    def test_negative_leading_coefficient_after_double_dash(self, capsys):
        # without "--", argparse reads "-1,-3,1" as an unknown option
        with pytest.raises(SystemExit) as exc:
            run(capsys, "certify", "--n", "2", "-1,-3,1")
        assert exc.value.code == 2 and "unrecognized arguments: -1,-3,1" in capsys.readouterr().err
        code, _, err = run(capsys, "certify", "--n", "2", "--", "-1,-3,1")
        assert code == 5 and "rejected at check 'resultant'" in err

    def test_missing_n_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", "1,-3,1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "23,-4,-6,1", "--n", "2"),
            ("certify", "1,-3,1", "--n", "2", "--as", "min"),
            ("search", "--n", "12", "--t", "9"),
        ],
    )
    def test_precision_over_bound_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--precision", "5000")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "4000" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "23,-4,-6,1", "--n", "10001"),
            ("certify", "1,-3,1", "--n", "10001", "--as", "min"),
            ("search", "--n", "10004", "--t", "5005"),
        ],
    )
    def test_n_over_bound_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "10000" in err

    def test_from_report_with_n_over_bound_fails(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "1", "--output", str(path))
        payload = json.loads(path.read_text())
        payload["certificates"][0]["n"] = 10**30
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "certify", "--from-report", str(path))
        assert code == 5 and err == ""
        assert out.startswith("FAIL") and out.rstrip().endswith("resultant")

    def test_help_states_n_bound(self, capsys):
        for command in ("certify", "search"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "at most 10000" in " ".join(capsys.readouterr().out.split())


class TestTBound:
    def test_help_states_t_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        assert f"at most {MAX_T}" in " ".join(capsys.readouterr().out.split())

    def test_search_t_over_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "--n", "12", "--t", str(MAX_T + 2))
        assert code == 2 and out == ""
        assert err.strip() == f"t must be between 1 and {MAX_T} (got {MAX_T + 2})"


class TestDeepIndices:
    """Indices past the recursion limit of a recursive cheb build."""

    def test_plan_t_1001(self, capsys):
        code, out, err = run(capsys, "plan", "--n", "12", "--t", "1001")
        assert code == 0 and err == ""
        assert out.startswith("quad-unit k=248\n")

    def test_cheb_k_2000(self, capsys):
        code, out, err = run(capsys, "cheb", "--k", "2000")
        assert code == 0 and err == ""
        assert out.strip().split(",")[-1] == "1" and len(out.strip().split(",")) == 2001

    def test_search_t_1001_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "--n", "12", "--t", "1001")
        assert code == 2 and out == "" and len(err.strip().splitlines()) == 1


class TestSelftest:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "selftest", "--seed", "42")
        code2, out2, _ = run(capsys, "selftest", "--seed", "42")
        assert code1 == code2 == 0
        assert out1 == out2
        total = int(out1.strip().splitlines()[-1].split()[1])
        assert total >= 500
        assert "0 failures" in out1.strip().splitlines()[-1]

    def test_fault_injection_names_identity(self, capsys, monkeypatch):
        real = trigpolys.cyclo_trace

        def corrupted(n):
            p = real(n)
            if n == 12:
                return p + IntPoly([1])
            return p

        monkeypatch.setattr(trigpolys, "cyclo_trace", corrupted)
        code, out, _ = run(capsys, "selftest", "--seed", "0")
        assert code == 1
        assert "FAIL product-identity quarter k=3" in out
