"""Command-line contract: outputs, exit codes, report replay, self-test determinism."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import salemunits.cli as cli
import salemunits.trigpolys as trigpolys
from salemunits.cli import main
from salemunits.construct import MAX_A_SPAN, build_candidate, plan_construction, search
from salemunits.intpoly import IntPoly
from salemunits.salem import MAX_A, MAX_N, MAX_T


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

    def test_text_report(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "44", "--t", "31", "--a-min", "25", "--a-max", "29", "--want", "1",
            "--format", "text",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[:3] == ["search n=44 t=31 a in [25, 29]", "plan quad-shift k=1", "certificates: 1 (distinct: 1)"]
        assert lines[3].startswith("  a=29  alpha=28.00127370952219") and lines[3].endswith("  |Res|=1")
        assert lines[4:] == [f"  a={a}  failed: root_pattern" for a in range(25, 29)]

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

    def test_a_span_over_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "search", "--n", "12", "--t", "9", "--a-max", str(3 + MAX_A_SPAN))
        assert code == 2 and out == ""
        assert err.strip() == f"a_max - a_min must be less than {MAX_A_SPAN} (got {MAX_A_SPAN})"

    def test_help_states_a_span_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"less than {MAX_A_SPAN}" in text and " s " in text
        assert f"at most {MAX_A}" in text

    def test_a_over_bound_exits_2(self, capsys):
        a_min, a_max = str(MAX_A - 1), str(MAX_A + 2)
        code, out, err = run(capsys, "search", "--n", "92", "--t", "61", "--a-min", a_min, "--a-max", a_max)
        assert code == 2 and out == ""
        assert err == f"a_max must be at most {MAX_A} (got {MAX_A + 2})\n"


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

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_from_report_exponent_in_interval_exits_2(self, capsys, tmp_path, end):
        # Fraction("1e999999999") would build a 3.3-gigabit integer; only "p/q" and "p" are read
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "1", "--output", str(path))
        payload = json.loads(path.read_text())
        payload["certificates"][0]["beta_interval"][end] = "1e999999999"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "certify", "--from-report", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_resultant_past_the_integer_string_limit(self, capsys):
        # |Res(x^10000 - 1, S)| has more than 4300 digits: the message gives its bit size
        code, out, err = run(capsys, "certify", "23,-4,-6,1", "--n", "10000")
        assert code == 5 and out == ""
        assert len(err.splitlines()) == 1 and "-bit integer != 1" in err

    def test_poly_path_is_a_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "certify", str(tmp_path), "--n", "12")
        assert code == 2 and out == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["/dev/zero", "--n", "12"], ["--from-report", "/dev/zero"]])
    def test_device_path_exits_2(self, argv):
        # /dev/zero has no end: in a child capped at 400 MB of address space and 60 s, a
        # regression that reads it ends in a MemoryError or a timeout, not in a full host
        code = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20));"
            " from salemunits.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", code, "certify", *argv], capture_output=True, text=True, timeout=60, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "not a regular file: /dev/zero\n")

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

    def test_from_report_replay_error(self, capsys, tmp_path, monkeypatch):
        # a replay that raises fails its certificate with one line, not a traceback
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "1", "--output", str(path))

        def broken(cert):
            raise ArithmeticError("no replay")

        monkeypatch.setattr(cli, "verify_certificate", broken)
        code, out, err = run(capsys, "certify", "--from-report", str(path))
        assert code == 5 and err == ""
        assert out.splitlines() == ["FAIL n=12 t=9 a=3: replay error (no replay)"]

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


class TestGeneratorBounds:
    """Each generator is bounded: a value past its bound exits 2 at once, with one line on stderr."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("cheb", "--k", "30000"), f"k must be at most {MAX_N} (got 30000)"),
            (("ctrace", "--n", "3000"), f"n must be at most {2 * MAX_T} (got 3000)"),
            (("plan", "--n", "12", "--t", "1003"), f"t must be between 1 and {MAX_T} (got 1003)"),
            (("plan", "--n", "10004", "--t", "5005"), f"n must be between 1 and {MAX_N} (got 10004)"),
        ],
    )
    def test_over_bound_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == message + "\n"

    @pytest.mark.parametrize(
        "argv, bound", [(("cheb", "--k"), MAX_N), (("ctrace", "--n"), 2 * MAX_T), (("plan", "--n", "12", "--t"), MAX_T)]
    )
    def test_at_bound_runs(self, capsys, argv, bound):
        code, out, err = run(capsys, *argv, str(bound))
        assert code == 0 and out and err == ""

    @pytest.mark.parametrize("command, bound", [("cheb", MAX_N), ("ctrace", 2 * MAX_T), ("plan", MAX_T)])
    def test_help_states_bound_and_cost(self, capsys, command, bound):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"at most {bound}" in text and " s (" in text


class TestCertifyDegreeBound:
    def test_help_states_degree_bound(self, capsys):
        with pytest.raises(SystemExit):
            main(["certify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"degree at most {MAX_T}" in text and f"at most {2 * MAX_T}" in text and " s " in text

    @pytest.mark.parametrize(
        "coeffs, kind",
        [
            ([1] + [0] * MAX_T + [1], "trace"),  # x^(MAX_T + 1) + 1
            ([1] + [0] * (2 * MAX_T + 1) + [1], "min"),  # reciprocal, degree 2 MAX_T + 2
            ([1] + [0] * (2 * MAX_T + 1) + [1], "auto"),
        ],
    )
    def test_over_bound_exits_2(self, capsys, tmp_path, coeffs, kind):
        path = tmp_path / "poly.txt"
        path.write_text(",".join(map(str, coeffs)))
        code, out, err = run(capsys, "certify", str(path), "--n", "12", "--as", kind)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and f"degree at most {2 * MAX_T if kind != 'trace' else MAX_T}" in err

    def test_from_report_over_bound_fails_fast(self, capsys, tmp_path):
        # a (12, 401) candidate in a report: its Sturm chain alone takes seconds, and replay
        # refuses the degree first
        path = tmp_path / "report.json"
        run(capsys, "search", "--n", "12", "--t", "9", "--want", "1", "--output", str(path))
        payload = json.loads(path.read_text())
        entry = payload["certificates"][0]
        entry["t"] = 401
        entry["trace_poly"] = build_candidate(plan_construction(12, 401), 1000).to_text()
        path.write_text(json.dumps(payload))
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(2)
        try:
            code, out, err = run(capsys, "certify", "--from-report", str(path))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert code == 5 and err == ""
        assert out == "FAIL n=12 t=401 a=3: degree\n"

    def test_at_bound_reaches_certification(self, capsys, tmp_path):
        # x^MAX_T + 1 passes the bound and is rejected by a check, quickly
        trace = IntPoly([1] + [0] * (MAX_T - 1) + [1])
        path = tmp_path / "poly.txt"
        path.write_text(trace.to_text())
        code, _, err = run(capsys, "certify", str(path), "--n", "12", "--as", "trace")
        assert code == 5 and "rejected at check" in err


def _alarm(signum, frame):
    raise TimeoutError("a CLI call ran past its time limit")


def _cli_outcome(capsys, argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call, within 10 s; an exception escapes the test."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    return code, capsys.readouterr().err


_NUMBERS = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([10**4, 10**4 + 1, 4000, 4001, 10**40]),
    st.text("0123456789-+e_. x", max_size=6),
)
_POLY_TEXT = st.one_of(
    st.sampled_from(["", "0", "0,0", ",", " ", ".", "1,,2", "1;2", "x^2+1", "1e3,1", "9" * 5000, "23,-4,-6,1"]),
    st.lists(st.integers(-20, 20), max_size=14).map(lambda cs: ",".join(map(str, cs))),
    st.text("0123456789,-+ x^*e./\n", max_size=30),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8) | st.sampled_from(["1e999999999", "1/0", "3/2"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def report_text() -> str:
    return json.dumps(search(12, 9, want=1).to_json_dict())


@st.composite
def _corrupt_reports(draw, text: str) -> str:
    how = draw(st.sampled_from(["truncate", "flip", "field", "json"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if how == "flip":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(st.characters(codec="utf-8")) + text[i + 1 :]
    if how == "json":
        return json.dumps(draw(_JSON))
    payload = json.loads(text)
    cert = payload["certificates"][0]
    path = draw(st.sampled_from(sorted(cert) + ["beta_interval.lo", "beta_interval.hi", "root_pattern.in_0_1"]))
    node, *rest = path.split(".")
    target, key = (cert[node], rest[0]) if rest else (cert, node)
    target[key] = draw(_JSON | st.sampled_from([10**4, 4000, -1, 0, "1,2,3", "2/1", "1e999999999"]))
    return json.dumps(payload)


# capsys is read, and so reset, after every call; tmp_path holds one file, rewritten each time
_FIXTURE_CHECK = [HealthCheck.function_scoped_fixture]


class TestCliFuzz:
    """Any input ends in a documented exit code with a message, never a traceback or a hang."""

    EXIT_CODES = {0, 2, 3, 4, 5}

    @given(
        poly=_POLY_TEXT,
        n=st.sampled_from([2, 12]) | _NUMBERS,
        precision=st.none() | _NUMBERS,
        kind=st.sampled_from(["auto", "trace", "min"]),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=_FIXTURE_CHECK)
    def test_certify(self, capsys, poly, n, precision, kind):
        argv = ["certify", "--n", str(n), "--as", kind]
        if precision is not None:
            argv += ["--precision", str(precision)]
        code, err = _cli_outcome(capsys, argv + ["--", poly])
        assert code in self.EXIT_CODES and "Traceback" not in err

    @given(n=st.sampled_from([4, 12]) | _NUMBERS, t=st.integers(1, 15), precision=_NUMBERS, a_max=st.integers(3, 8))
    @settings(max_examples=60, deadline=None, suppress_health_check=_FIXTURE_CHECK)
    def test_search(self, capsys, n, t, precision, a_max):
        argv = ["search", "--n", str(n), "--t", str(t), "--precision", str(precision)]
        code, err = _cli_outcome(capsys, argv + ["--a-max", str(a_max), "--want", "1"])
        assert code in self.EXIT_CODES and "Traceback" not in err

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=_FIXTURE_CHECK)
    def test_corrupt_report(self, capsys, tmp_path, report_text, data):
        path = tmp_path / "report.json"
        path.write_text(data.draw(_corrupt_reports(report_text)), encoding="utf-8")
        code, err = _cli_outcome(capsys, ["certify", "--from-report", str(path)])
        assert code in self.EXIT_CODES and "Traceback" not in err


class TestDeepIndices:
    """Indices past the recursion limit of a recursive cheb build."""

    def test_plan_t_1001_exits_2(self, capsys):
        code, out, err = run(capsys, "plan", "--n", "12", "--t", "1001")
        assert code == 2 and out == ""
        assert err == f"t must be between 1 and {MAX_T} (got 1001)\n"

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
