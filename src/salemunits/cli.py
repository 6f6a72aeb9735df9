"""Command-line surface: generators, identity self-test, planning, search, certification.

Exit codes are a stable contract: 0 success, 1 a failed selftest assertion,
2 bad arguments (a path that is no regular file among them), 3 hypothesis
violation, 4 empty search, 5 certification failure.  All output is
deterministic given identical arguments and seed; configuration is flags only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import trigpolys
from .construct import MAX_A_SPAN, HypothesisError, SearchReport, plan_construction, search
from .intpoly import IntPoly, gcd_over_rationals, is_reciprocal, lift_trace
from .roots import sturm_count_open
from .salem import (
    DEFAULT_PRECISION,
    MAX_A,
    MAX_N,
    MAX_PRECISION,
    MAX_T,
    CertificationError,
    SalemCertificate,
    certify_min_poly,
    certify_trace,
    check_bounds,
    verify_certificate,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_EMPTY_SEARCH = 4
EXIT_CERTIFICATION = 5


def _int_at_least(low: int):
    """The argparse type of an integer that is at least ``low``."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if v < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {text!r}")
        return v

    return parse


def _read_poly(arg: str) -> IntPoly:
    """Inline ascending-coefficient string, or a path to a regular file holding one."""
    if os.path.exists(arg):
        if not os.path.isfile(arg):  # a device or a fifo would be read without a bound
            raise ValueError(f"not a regular file: {arg}")
        with open(arg, encoding="utf-8") as fh:
            arg = fh.read()
    return IntPoly.from_text(arg)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    """Print the one-line message on stderr and return the exit code."""
    print(message, file=sys.stderr)
    return code


def _alpha_digits(cert: SalemCertificate, digits: int) -> str:
    whole, _, frac = cert.alpha_decimal.partition(".")
    return f"{whole}.{frac[:digits]}"


# -- subcommands ---------------------------------------------------------------


def _cmd_cheb(args) -> int:
    if args.k > MAX_N:
        return _fail(f"k must be at most {MAX_N} (got {args.k})")
    print(trigpolys.cheb(args.k).to_text())
    return EXIT_OK


def _cmd_ctrace(args) -> int:
    if args.n > 2 * MAX_T:
        return _fail(f"n must be at most {2 * MAX_T} (got {args.n})")
    print(trigpolys.cyclo_trace(args.n).to_text())
    return EXIT_OK


def _cmd_plan(args) -> int:
    try:
        check_bounds(n=args.n, t=args.t)
        plan = plan_construction(args.n, args.t)
    except HypothesisError as err:
        return _fail(err.message, EXIT_HYPOTHESIS)
    except ValueError as err:
        return _fail(str(err))
    print(f"{plan.construction} k={plan.k}")
    print(f"l={plan.l} a-factor={plan.a_factor_shape}")
    for key, value in sorted(plan.parity_evidence.items()):
        print(f"{key}={value}")
    print("factors=" + "; ".join(f.to_text() for f in plan.factors))
    return EXIT_OK


def _search_csv(report: SearchReport) -> str:
    lines = ["a,verdict,detail"]
    rows = {a: ("failed", reason) for a, reason in report.failures}
    for cert in report.certificates:
        rows[cert.a] = ("certified", _alpha_digits(cert, 15))
    for a in sorted(rows):
        verdict, detail = rows[a]
        lines.append(f"{a},{verdict},{detail}")
    return "\n".join(lines) + "\n"


def _search_text(report: SearchReport) -> str:
    lines = [
        f"search n={report.n} t={report.t} a in [{report.a_min}, {report.a_max}]",
        f"plan {report.plan.construction} k={report.plan.k}",
        f"certificates: {len(report.certificates)} (distinct: {report.distinct_salem_count})",
    ]
    for cert in report.certificates:
        lines.append(f"  a={cert.a}  alpha={cert.alpha_decimal}  |Res|={abs(cert.resultant_value)}")
    for a, reason in report.failures:
        lines.append(f"  a={a}  failed: {reason}")
    return "\n".join(lines) + "\n"


def _cmd_search(args) -> int:
    try:
        report = search(
            args.n,
            args.t,
            a_min=args.a_min,
            a_max=args.a_max,
            want=args.want,
            precision_digits=args.precision,
        )
    except HypothesisError as err:
        return _fail(err.message, EXIT_HYPOTHESIS)
    except ValueError as err:
        return _fail(str(err))
    if args.format == "json":
        out = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        out = _search_csv(report)
    else:
        out = _search_text(report)
    _emit(out, args.output)
    return EXIT_OK if report.certificates else EXIT_EMPTY_SEARCH


def _certificate_text(cert: SalemCertificate) -> str:
    return "\n".join(
        [
            f"certified: degree {2 * cert.t} Salem number, alpha^{cert.n} - 1 is a unit",
            f"construction={cert.construction} a={cert.a}",
            f"trace_poly={cert.trace_poly.to_text()}",
            f"min_poly={cert.min_poly.to_text()}",
            f"resultant={cert.resultant_value}",
            f"alpha={cert.alpha_decimal}",
            f"irreducibility={cert.irreducibility.method}",
        ]
    )


def _cmd_certify(args) -> int:
    if args.from_report:
        if os.path.exists(args.from_report) and not os.path.isfile(args.from_report):
            return _fail(f"not a regular file: {args.from_report}")
        try:
            with open(args.from_report, encoding="utf-8") as fh:
                payload = json.load(fh)
            entries = payload.get("certificates", [payload] if "trace_poly" in payload else [])
            certs = [SalemCertificate.from_json_dict(entry) for entry in entries]
        except (OSError, ValueError, AttributeError, TypeError) as err:
            return _fail(f"malformed report {args.from_report}: {err}")
        if not certs:
            return _fail("report contains no certificates", EXIT_CERTIFICATION)
        bad = 0
        for cert in certs:
            try:
                failures = verify_certificate(cert)
            except Exception as err:  # a certificate that cannot be replayed fails
                failures = [f"replay error ({err})"]
            label = f"n={cert.n} t={cert.t} a={cert.a}"
            if failures:
                bad += 1
                print(f"FAIL {label}: {', '.join(failures)}")
            else:
                print(f"OK {label}")
        return EXIT_CERTIFICATION if bad else EXIT_OK

    if args.poly is None or args.n is None:
        return _fail("certify needs a polynomial and --n (or --from-report)")
    try:
        poly = _read_poly(args.poly)
        kind = args.kind
        if kind == "auto":
            even = not poly.is_zero and int(poly.degree) % 2 == 0
            kind = "min" if even and is_reciprocal(poly) else "trace"
        certify = certify_min_poly if kind == "min" else certify_trace
        cert = certify(poly, args.n, precision_digits=args.precision)
    except CertificationError as err:
        return _fail(f"rejected at check '{err.check}': {err.message}", EXIT_CERTIFICATION)
    except (OSError, ValueError) as err:  # the input, or a bound that the library checks first
        return _fail(str(err))
    if args.format == "json":
        _emit(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n", args.output)
    else:
        _emit(_certificate_text(cert) + "\n", args.output)
    return EXIT_OK


# -- self-test -----------------------------------------------------------------


def run_selftest(seed: int = 0, out=print) -> tuple[int, int]:
    """Run the identity, gcd-law, root-count and parity suites; return (passed, failed)."""
    passed = failed = 0

    def check(ok: bool, label: str) -> None:
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
            out(f"FAIL {label}")

    def suite(name: str, before: int) -> None:
        out(f"{name}: {passed + failed - before} assertions, {failed} failures so far")

    mark = 0
    for k in range(1, 41):
        check(
            trigpolys.cyclo_trace(4 * k) == trigpolys.cheb(k) * trigpolys.cyclo_trace(2 * k),
            f"product-identity quarter k={k}",
        )
    for k in range(1, 21):
        check(
            trigpolys.cyclo_trace(8 * k) == trigpolys.cheb(2 * k) * trigpolys.cyclo_trace(4 * k),
            f"product-identity eighth k={k}",
        )
    suite("product-identities", mark)

    mark = passed + failed
    import math

    for n in range(3, 37):
        for m in range(3, 37):
            coprime = gcd_over_rationals(trigpolys.cyclo_trace(n), trigpolys.cyclo_trace(m)).degree == 0
            check(coprime == (math.gcd(n, m) in (1, 2)), f"cyclo-coprimality n={n} m={m}")
    suite("cyclo-coprimality", mark)

    mark = passed + failed
    for k in range(1, 21):
        for n in range(3, 21):
            if n % 4 == 0:
                continue
            check(
                gcd_over_rationals(trigpolys.cheb(k), trigpolys.cyclo_trace(n)).degree == 0,
                f"cheb-cyclo-coprimality k={k} n={n}",
            )
    for k in range(1, 13):
        for n in (4, 12, 20, 28, 36, 44):
            check(
                gcd_over_rationals(trigpolys.cheb(2 * k), trigpolys.cyclo_trace(n)).degree == 0,
                f"even-cheb-coprimality k={k} n={n}",
            )
    suite("coprimality-laws", mark)

    mark = passed + failed
    for k in range(1, 101):
        check(
            trigpolys.cheb_roots_in_unit_interval(k) == sturm_count_open(trigpolys.cheb(k), 0, 1),
            f"unit-interval-count k={k}",
        )
    suite("root-count-closed-form", mark)

    mark = passed + failed
    for k in range(1, 31):
        p = trigpolys.cheb(k)
        mirrored = IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])
        check(mirrored == (p if k % 2 == 0 else -p), f"cheb-parity k={k}")
    for n in range(4, 41, 4):
        p = trigpolys.cyclo_trace(n)
        mirrored = IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])
        check(mirrored == -p and p(0) == 0, f"cyclo-odd-function n={n}")
        check(sturm_count_open(p, -2, 0) == n // 4 - 1, f"cyclo-negative-roots n={n}")
    suite("parity-laws", mark)

    mark = passed + failed
    rng = random.Random(seed)
    for i in range(20):
        t = rng.randint(1, 8)
        tr = IntPoly([rng.randint(-9, 9) for _ in range(t)] + [1])
        s_poly = lift_trace(tr, t)
        c = Fraction(rng.randint(1, 19), rng.randint(1, 19))
        check(s_poly(c) == c**t * tr(c + 1 / c), f"trace-lift-evaluation i={i}")
        check(is_reciprocal(s_poly), f"trace-lift-reciprocal i={i}")
    suite("trace-lift-spot-checks", mark)

    out(f"total: {passed + failed} assertions, {failed} failures")
    return passed, failed


def _cmd_selftest(args) -> int:
    _, failed = run_selftest(seed=args.seed)
    return EXIT_OK if failed == 0 else 1


# -- parser --------------------------------------------------------------------

PRECISION_HELP = (
    f"certified decimal digits of alpha, at most {MAX_PRECISION}; larger values exit 2."
    " A one-candidate run with 4000 digits takes about 0.15 s at t=9 and 0.35 s at t=31"
    " (2-core x86-64, Python 3.11)"
)

N_HELP = (
    f"the exponent n of alpha^n - 1, at most {MAX_N}; larger values exit 2. A lift that folds to"
    " +-x^k mod x^n - 1, as every constructed candidate does at its own n, is decided in microseconds."
    " For any other S the unit resultant grows with n and t: at n = 10000 it takes about 0.2 s at t=9"
    " and 190 s at t=61, and at t=301 0.05 s at n = 600, 5 s at n = 1200 and 60 s at n = 2400"
    " (2-core x86-64, Python 3.11)"
)


T_HELP = (
    f"the trace degree t, at most {MAX_T}; larger values exit 2."
    f" At t = {MAX_T} a candidate with the Salem root pattern takes 2-6 s, and one whose"
    " pattern is refuted without a Sturm chain 0.01-0.05 s (2-core x86-64, Python 3.11)"
)

A_MAX_HELP = (
    f"the last a of the sweep, at most {MAX_A}; a_max - a_min must be less than {MAX_A_SPAN}, or the"
    " run exits 2. 200 candidates take about 0.15 s at (n, t) = (12, 9) and 0.4 s at (92, 61); at"
    f" a_max = {MAX_A} four candidates take 0.1-0.15 s at (92, 61) and (124, 71) and about 2 s at"
    " (596, 301) (2-core x86-64, Python 3.11)"
)


K_HELP = (
    f"the degree k, at most {MAX_N}; larger values exit 2. At k = {MAX_N} the polynomial prints"
    " 7.5 MB in about 0.35 s (2-core x86-64, Python 3.11)"
)

CTRACE_N_HELP = (
    f"the index n, at most {2 * MAX_T}, as n <= 2t - 6 in every plan; larger values exit 2."
    f" At n = {2 * MAX_T} it takes under 1 ms, and the command about 0.1 s (2-core x86-64, Python 3.11)"
)

PLAN_HELP = (
    f"n is at most {MAX_N} and t at most {MAX_T}; larger values exit 2. A plan with t <= {MAX_T},"
    " every count read from a closed form, takes under 1 ms, and the command about 0.1 s (2-core"
    " x86-64, Python 3.11)"
)

POLY_HELP = (
    f"inline coefficients c0,c1,... or a file path: a trace of degree at most {MAX_T}, or a minimal"
    f" polynomial of degree at most {2 * MAX_T}; larger ones exit 2. The cost grows with the degree"
    f" and with the size of the coefficients: a constructed degree-{MAX_T} trace takes 2-8 s, a"
    " random monic degree-61 trace with 300-digit coefficients 33 s, and a degree-401 Sturm chain"
    " alone 11 s. A minimal polynomial is checked first by its unit resultant: a random reciprocal one"
    " of degree 600 spent 208 s there at --n 300 (2-core x86-64, Python 3.11)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salemunits",
        description="Construct and certify Salem numbers whose n-th power is an exceptional unit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cheb", help="print the monic Chebyshev-style polynomial of degree k")
    p.add_argument("--k", type=_int_at_least(0), required=True, help=K_HELP)
    p.set_defaults(func=_cmd_cheb)

    p = sub.add_parser("ctrace", help="print the cyclotomic trace polynomial for index n")
    p.add_argument("--n", type=_int_at_least(1), required=True, help=CTRACE_N_HELP)
    p.set_defaults(func=_cmd_ctrace)

    p = sub.add_parser("plan", help="select the construction for (n, t)", description=PLAN_HELP)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--t", type=_int_at_least(1), required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("search", help="sweep the parameter a and certify candidates")
    p.add_argument("--n", type=_int_at_least(1), required=True, help=N_HELP)
    p.add_argument("--t", type=_int_at_least(1), required=True, help=T_HELP)
    p.add_argument("--a-min", type=_int_at_least(1), default=3)
    p.add_argument("--a-max", type=_int_at_least(1), default=200, help=A_MAX_HELP)
    p.add_argument("--want", type=_int_at_least(1), default=5)
    p.add_argument("--precision", type=_int_at_least(1), default=DEFAULT_PRECISION, help=PRECISION_HELP)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("certify", help="certify a trace or reciprocal minimal polynomial")
    p.add_argument("poly", nargs="?", default=None, help=POLY_HELP)
    p.add_argument("--n", type=_int_at_least(1), default=None, help=N_HELP)
    p.add_argument("--as", dest="kind", choices=("auto", "trace", "min"), default="auto")
    p.add_argument("--precision", type=_int_at_least(1), default=DEFAULT_PRECISION, help=PRECISION_HELP)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--output", default=None)
    p.add_argument("--from-report", default=None, help="re-validate every certificate in a search report")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("selftest", help="run the identity and root-count suites")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
