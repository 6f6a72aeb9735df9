"""Certification that a trace polynomial yields a Salem number alpha with alpha^n - 1 a unit.

A certificate is an evidence bundle: the trace polynomial T, its reciprocal
lift S, the exact root pattern, an irreducibility witness, the resultant of
x^n - 1 and S (absolute value 1 for a unit), and a certified decimal
approximation of alpha.  Verification is a separate code path from
construction so a certificate is evidence, not trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .factor import IrreducibilityWitness, is_irreducible, verify_witness
from .intpoly import ONE, X, IntPoly, is_reciprocal, lift_trace, pseudo_rem, resultant
# is_separable and isolate_roots stay bound here: the benchmark tracer times stages by these names
from .roots import (  # noqa: F401
    IsolatingInterval,
    RootPattern,
    _sign_at,
    cauchy_bound,
    is_separable,
    isolate_roots,
    refine,
    root_pattern,
)
from .trigpolys import extract_trace

DEFAULT_PRECISION = 30
# decimal digits of alpha; past about 4,290 the digit string exceeds
# Python's default integer-to-string limit
MAX_PRECISION = 4000
# the exponent n in alpha^n - 1; unit_check's cost grows with n, see the
# measured cost in the CLI help
MAX_N = 10_000
# the trace degree t of a search; one candidate's Sturm chain grows fast with
# t, see the measured cost in the CLI help
MAX_T = 301


class CertificationError(Exception):
    """Structured rejection naming the first failed certification check.

    Checks run in fixed order: monic, degree, separability, root_pattern,
    irreducibility, lift, resultant (cheap exact gates before the expensive
    irreducibility decision).
    """

    def __init__(self, check: str, message: str, data: Optional[dict] = None):
        super().__init__(f"{check}: {message}")
        self.check = check
        self.message = message
        self.data = data or {}


@dataclass(frozen=True)
class SalemCertificate:
    """Full evidence that trace_poly certifies a Salem number of degree 2t with alpha^n - 1 a unit."""

    n: int
    t: int
    a: Optional[int]
    construction: str
    trace_poly: IntPoly
    min_poly: IntPoly
    root_pattern: RootPattern
    beta_interval: IsolatingInterval
    alpha_decimal: str
    alpha_precision: int
    irreducibility: IrreducibilityWitness
    resultant_value: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "a": self.a,
            "construction": self.construction,
            "trace_poly": self.trace_poly.to_text(),
            "min_poly": self.min_poly.to_text(),
            "resultant": self.resultant_value,
            "alpha": self.alpha_decimal,
            "alpha_precision": self.alpha_precision,
            "beta_interval": {
                "lo": _frac_text(self.beta_interval.lo),
                "hi": _frac_text(self.beta_interval.hi),
            },
            "irreducibility": self.irreducibility.to_json_dict(),
            "root_pattern": self.root_pattern.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SalemCertificate":
        """Decode report JSON; raises ValueError on a missing field or a field of the wrong type."""
        try:
            ints = [d["n"], d["t"], d["alpha_precision"], d["resultant"]]
            if any(type(v) is not int for v in ints) or type(d.get("a", 0)) not in (int, type(None)):
                raise TypeError("n, t, a, alpha_precision and resultant must be integers")
            if type(d["construction"]) is not str:
                raise TypeError("construction must be a string")
            rp = d["root_pattern"]
            # "p/q" or "p" only: Fraction("1e999999999") would build a 3.3-gigabit integer
            lo, hi = (Fraction(*map(int, d["beta_interval"][end].split("/"))) for end in ("lo", "hi"))
            return cls(
                n=d["n"],
                t=d["t"],
                a=d.get("a"),
                construction=d["construction"],
                trace_poly=IntPoly.from_text(d["trace_poly"]),
                min_poly=IntPoly.from_text(d["min_poly"]),
                root_pattern=RootPattern(**{f.name: rp[f.name] for f in fields(RootPattern)}),
                beta_interval=IsolatingInterval(lo, hi, exact_root=lo if lo == hi else None),
                alpha_decimal=d["alpha"],
                alpha_precision=d["alpha_precision"],
                irreducibility=IrreducibilityWitness.from_json_dict(d["irreducibility"]),
                resultant_value=d["resultant"],
            )
        except KeyError as err:
            raise ValueError(f"certificate field {err} is missing") from None
        except (TypeError, AttributeError, ArithmeticError) as err:
            raise ValueError(f"certificate field of the wrong type: {err}") from None


def _frac_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def unit_check(s_poly: IntPoly, n: int) -> int:
    """Exact resultant of x^n - 1 and S; absolute value 1 certifies alpha^n - 1 a unit.

    Always recomputed from scratch, never assumed from the construction.  With
    r = x^n mod S, found by square-and-multiply, Res(x^n - 1, S) equals
    Res(r - 1, S) because S is monic: both are the product of rho^n - 1 over
    the roots rho of S.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not s_poly.is_monic:
        raise ValueError("minimal polynomial must be monic")
    r = ONE
    for bit in bin(n)[2:]:
        r = r * r
        if bit == "1":
            r = r * X
        if r.degree >= s_poly.degree:
            r = pseudo_rem(r, s_poly)  # the exact remainder, as S is monic
    r = r - 1
    return 0 if r.is_zero else resultant(r, s_poly)


def _resultant_error(n: int, res: int) -> CertificationError:
    try:
        text = str(abs(res))
    except ValueError:  # past Python's limit on integer-to-string conversion
        text = f"a {abs(res).bit_length()}-bit integer"
    return CertificationError("resultant", f"|Res(x^{n} - 1, S)| = {text} != 1", {"value": res})


def check_n(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_N."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N} (got {n})")


def check_t(t: int) -> None:
    """Raise ValueError unless 1 <= t <= MAX_T."""
    if not 1 <= t <= MAX_T:
        raise ValueError(f"t must be between 1 and {MAX_T} (got {t})")


def check_precision(digits: int) -> None:
    """Raise ValueError unless 1 <= digits <= MAX_PRECISION."""
    if not 1 <= digits <= MAX_PRECISION:
        raise ValueError(f"precision must be between 1 and {MAX_PRECISION} digits (got {digits})")


def _sqrt_enclosure(y: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """[lo, hi] with lo <= sqrt(y) <= hi and hi - lo <= 10^-digits."""
    if y < 0:
        raise ValueError("negative radicand")
    scale = 10**digits
    n = (y.numerator * scale * scale) // y.denominator
    r = math.isqrt(n)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _decimal_string(x: Fraction, digits: int) -> str:
    scaled = (x.numerator * 10**digits) // x.denominator
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{str(frac).zfill(digits)}" if digits else f"{sign}{whole}"


def alpha_from_beta(
    beta_iv: IsolatingInterval,
    precision_digits: int = DEFAULT_PRECISION,
    poly: Optional[IntPoly] = None,
) -> tuple[str, IsolatingInterval]:
    """Certified decimal of alpha = (beta + sqrt(beta^2 - 4))/2 from a beta interval.

    Returns (decimal string with ``precision_digits`` certified digits, the
    alpha enclosure).  ``poly`` is needed to refine the beta interval when the
    input is wider than the target precision requires.
    """
    check_precision(precision_digits)
    if beta_iv.exact_root is not None and beta_iv.exact_root <= 2:
        raise ValueError("beta must exceed 2")
    if beta_iv.exact_root is None and beta_iv.lo < 2:
        raise ValueError("beta interval must lie entirely above 2")

    if beta_iv.exact_root is not None:
        b = beta_iv.exact_root
        disc = b * b - 4
        root_num = math.isqrt(disc.numerator)
        root_den = math.isqrt(disc.denominator)
        if root_num * root_num == disc.numerator and root_den * root_den == disc.denominator:
            alpha = (b + Fraction(root_num, root_den)) / 2
            iv = IsolatingInterval(alpha, alpha, exact_root=alpha)
            return _decimal_string(alpha, precision_digits), iv

    work = precision_digits + 4
    while True:
        if beta_iv.exact_root is not None:
            bl = bh = beta_iv.exact_root
        else:
            target = Fraction(1, 10**work)
            if beta_iv.width > target:
                if poly is None:
                    raise ValueError("beta interval too wide; pass the polynomial to refine")
                beta_iv = refine(beta_iv, poly, target)
                if beta_iv.exact_root is not None:
                    return alpha_from_beta(beta_iv, precision_digits, poly)
            bl, bh = beta_iv.lo, beta_iv.hi
        sl, _ = _sqrt_enclosure(bl * bl - 4, work)
        _, sh = _sqrt_enclosure(bh * bh - 4, work)
        al, ah = (bl + sl) / 2, (bh + sh) / 2
        scale = 10**precision_digits
        fl = (al.numerator * scale) // al.denominator
        fh = (ah.numerator * scale) // ah.denominator
        if fl == fh:
            return _decimal_string(al, precision_digits), IsolatingInterval(al, ah)
        # alpha may sit exactly on a digit boundary (rational alpha whose beta
        # the dyadic bisection never hits); test the unique candidate exactly
        if fh - fl == 1 and poly is not None:
            cand = Fraction(fh, scale)
            if cand > 1:
                beta_cand = cand + 1 / cand
                if beta_iv.lo < beta_cand <= beta_iv.hi and poly(beta_cand) == 0:
                    iv = IsolatingInterval(cand, cand, exact_root=cand)
                    return _decimal_string(cand, precision_digits), iv
        work += max(8, work // 2)


def certify_trace(
    trace: IntPoly,
    n: int,
    *,
    construction: str = "external",
    a: Optional[int] = None,
    precision_digits: int = DEFAULT_PRECISION,
) -> SalemCertificate:
    """Certify a candidate trace polynomial, or raise CertificationError at the first failed check.

    Check order: monic/degree gates, separability, root pattern,
    irreducibility, reciprocal lift, unit resultant.  All arithmetic is exact.
    The pattern of a constructed candidate, and with it separability, is
    proved by interlacing sign changes, with no Sturm chain.
    """
    from .construct import interlacing_points  # construct imports this module

    check_n(n)
    check_precision(precision_digits)
    if trace.is_zero or not trace.is_monic:
        raise CertificationError("monic", "trace polynomial must be monic", {"poly": trace.to_text()})
    t = int(trace.degree)
    if t < 2:
        raise CertificationError(
            "degree", f"trace degree {t} < 2; a Salem minimal polynomial has degree 2t >= 4"
        )

    pattern = root_pattern(trace, interlacing_points(construction, n, t, a))
    if not pattern.separable:
        raise CertificationError("separability", "trace polynomial has a repeated root")
    if not pattern.is_salem(t):
        raise CertificationError(
            "root_pattern",
            f"expected 1 root above 2 and {t - 1} in (-2,2); got {pattern}",
            {"pattern": pattern.to_json_dict()},
        )

    witness = is_irreducible(trace)
    if witness.verdict != "irreducible":
        raise CertificationError(
            "irreducibility",
            "trace polynomial is reducible",
            {"factor": witness.factor.to_text() if witness.factor else None},
        )

    s_poly = lift_trace(trace, t)
    if not is_reciprocal(s_poly) or int(s_poly.degree) != 2 * t:
        raise CertificationError("lift", "lifted polynomial is not reciprocal of degree 2t")

    res = unit_check(s_poly, n)
    if abs(res) != 1:
        raise _resultant_error(n, res)

    # the pattern puts exactly one root in (2, bound], and T(2) < 0 < T(bound)
    beta_iv = IsolatingInterval(Fraction(2), cauchy_bound(trace) + 1)
    beta_iv = refine(beta_iv, trace, Fraction(1, 10 ** (precision_digits + 4)))
    alpha_dec, _ = alpha_from_beta(beta_iv, precision_digits, trace)

    return SalemCertificate(
        n=n,
        t=t,
        a=a,
        construction=construction,
        trace_poly=trace,
        min_poly=s_poly,
        root_pattern=pattern,
        beta_interval=beta_iv,
        alpha_decimal=alpha_dec,
        alpha_precision=precision_digits,
        irreducibility=witness,
        resultant_value=res,
    )


def certify_min_poly(
    s_poly: IntPoly,
    n: int,
    *,
    construction: str = "external",
    a: Optional[int] = None,
    precision_digits: int = DEFAULT_PRECISION,
) -> SalemCertificate:
    """Certify a reciprocal degree-2t polynomial given as the minimal polynomial.

    The unit resultant is checked on the polynomial as given, before trace
    extraction, so a failed unit property is reported even when the trace
    would be rejected on degree grounds.
    """
    check_n(n)
    check_precision(precision_digits)
    if s_poly.is_zero or not s_poly.is_monic:
        raise CertificationError("monic", "minimal polynomial must be monic")
    if int(s_poly.degree) % 2 != 0 or not is_reciprocal(s_poly):
        raise CertificationError("reciprocal", "not reciprocal")
    res = unit_check(s_poly, n)
    if abs(res) != 1:
        raise _resultant_error(n, res)
    trace = extract_trace(s_poly)
    return certify_trace(
        trace, n, construction=construction, a=a, precision_digits=precision_digits
    )


def verify_certificate(cert: SalemCertificate) -> list[str]:
    """Independently replay a certificate; returns the names of failed checks (empty if valid).

    Pattern, lift and resultant are recomputed from the stored trace
    polynomial; the irreducibility witness is replayed from its detail; the
    beta interval is checked to bracket the one root above 2, by a sign change
    of T, and to lie in (a-1, a), by one there, when a is recorded.  A
    constructed candidate's pattern is proved at points recomputed from its
    construction, n, t and a; they are hints, so a forged field can only send
    the replay to the Sturm chain, as an external trace goes.
    """
    from .construct import interlacing_points  # construct imports this module

    failures: list[str] = []
    trace, n, t = cert.trace_poly, cert.n, cert.t
    if trace.is_zero or not trace.is_monic or int(trace.degree) != t or t < 2:
        return ["degree"]
    if lift_trace(trace, t) != cert.min_poly or not is_reciprocal(cert.min_poly):
        failures.append("lift")
    pattern = root_pattern(trace, interlacing_points(cert.construction, n, t, cert.a))
    if pattern != cert.root_pattern or not pattern.is_salem(t):
        failures.append("root_pattern")
    if cert.irreducibility.verdict != "irreducible" or not verify_witness(trace, cert.irreducibility):
        failures.append("irreducibility")
    # unit_check is defined for a monic S only, and bounded to 1 <= n <= MAX_N
    if (
        not 1 <= n <= MAX_N
        or not cert.min_poly.is_monic
        or unit_check(cert.min_poly, n) != cert.resultant_value
        or abs(cert.resultant_value) != 1
    ):
        failures.append("resultant")
    iv = cert.beta_interval
    if iv.exact_root is not None:
        failures.append("beta_interval")  # beta is irrational for an irreducible trace
    else:
        # with the Salem pattern T has one root above 2 and T(2) != 0, so a
        # strict sign change on [lo, hi] with 2 <= lo < hi brackets that root
        if (
            not pattern.is_salem(t)
            or not 2 <= iv.lo < iv.hi
            or _sign_at(trace.coeffs, iv.lo) * _sign_at(trace.coeffs, iv.hi) >= 0
        ):
            failures.append("beta_interval")
        else:
            try:
                check_precision(cert.alpha_precision)
            except ValueError:
                failures.append("alpha")
            else:
                alpha_dec, _ = alpha_from_beta(iv, cert.alpha_precision, trace)
                if alpha_dec != cert.alpha_decimal:
                    failures.append("alpha")
        # with the pattern, a root in (a-1, a), a - 1 >= 2, is the one above 2
        a, f = cert.a, trace.coeffs
        if a is not None and (a < 3 or _sign_at(f, Fraction(a - 1)) * _sign_at(f, Fraction(a)) >= 0):
            failures.append("beta_location")
    return failures
