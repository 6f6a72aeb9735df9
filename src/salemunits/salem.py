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
from .intpoly import ONE, X, IntPoly, _sign_at, is_reciprocal, lift_trace, pseudo_rem, resultant
# is_separable and isolate_roots stay bound here: the benchmark tracer times stages by these names
from .roots import (  # noqa: F401
    IsolatingInterval,
    RootPattern,
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
# the trace degree t of a search and of a replayed certificate; a Sturm chain
# grows fast with t, see the measured cost in the CLI help
MAX_T = 301
# the last a of a search; coefficients grow with a, see the measured cost in the CLI help
MAX_A = 10**9


class CertificationError(Exception):
    """Structured rejection naming the first failed certification check.

    Checks run in fixed order: monic, degree, separability, root_pattern,
    irreducibility, resultant (cheap exact gates before the expensive
    irreducibility decision); the lift of a monic trace needs no check.
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
                beta_interval=IsolatingInterval(lo, hi),
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

    Recomputed from S and n alone, never assumed from the construction.  Adding
    coefficient i of S into slot i mod n gives S mod x^n - 1, and Res(S, x^n - 1),
    the product of S(zeta) over the n-th roots of unity, depends on it alone.  For
    a residue c x^k, c = +-1, that product is c^n (-1)^((n+1)k), and
    Res(x^n - 1, S) = (-1)^(n deg S) Res(S, x^n - 1).  Every constructed candidate
    has such a residue at its own n: C_n (x^2 - 4) divides T + 1 = F A_a, so its
    lift (x^n - 1)(x^2 - 1) divides S + x^t, the lift of T + 1, and S folds to
    -x^(t mod n).  Any other S takes r = x^n mod S, by square-and-multiply, and
    Res(x^n - 1, S) = Res(r - 1, S), both the product of rho^n - 1 over the
    roots rho of the monic S.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not s_poly.is_monic:
        raise ValueError("minimal polynomial must be monic")
    fold = [0] * n
    for i, c in enumerate(s_poly.coeffs):
        fold[i % n] += c
    k = next((i for i, c in enumerate(fold) if c), 0)
    if abs(fold[k]) == 1 and not any(fold[k + 1 :]):
        return fold[k] ** n * (-1) ** (n * int(s_poly.degree) + (n + 1) * k)
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


def check_bounds(
    *,
    n: Optional[int] = None,
    t: Optional[int] = None,
    digits: Optional[int] = None,
    a: Optional[int] = None,
    poly: Optional[IntPoly] = None,
    kind: str = "trace",
) -> None:
    """Raise ValueError, with a one-line message, at the first given value past its bound.

    n, t and digits (of alpha) lie in [1, MAX_N], [1, MAX_T] and [1,
    MAX_PRECISION], and a, the last of a search, is at most MAX_A; a trace
    poly has degree at most MAX_T, and a "min" one at most 2 MAX_T.  Every
    entry point calls this once, before any Sturm chain, gcd or resultant;
    ``verify_certificate`` reads the same constants, as it records failures
    instead of raising.
    """
    if n is not None and not 1 <= n <= MAX_N:
        raise ValueError(f"n must be between 1 and {MAX_N} (got {n})")
    if t is not None and not 1 <= t <= MAX_T:
        raise ValueError(f"t must be between 1 and {MAX_T} (got {t})")
    if digits is not None and not 1 <= digits <= MAX_PRECISION:
        raise ValueError(f"precision must be between 1 and {MAX_PRECISION} digits (got {digits})")
    if a is not None and a > MAX_A:
        raise ValueError(f"a_max must be at most {MAX_A} (got {a})")
    limit = MAX_T if kind == "trace" else 2 * MAX_T
    if poly is not None and poly.degree > limit:
        raise ValueError(f"a {kind} polynomial must have degree at most {limit} (got {int(poly.degree)})")


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


def alpha_from_beta(beta_iv: IsolatingInterval, precision_digits: int, poly: IntPoly) -> tuple[str, IsolatingInterval]:
    """Certified decimal of alpha = (beta + sqrt(beta^2 - 4))/2, beta > 2 a root of the monic poly in beta_iv.

    Returns (decimal string with ``precision_digits`` certified digits, the
    alpha enclosure); the beta interval is refined on poly as those digits need.
    beta is an algebraic integer, so a rational alpha would be an integer, and
    so would 1/alpha = beta - alpha: then alpha = 1 and beta = 2.  So alpha is
    irrational, never on a digit boundary, and the loop below ends.
    """
    check_bounds(digits=precision_digits)
    if not poly.is_monic:
        raise ValueError("beta must be a root of a monic polynomial")
    if beta_iv.lo < 2 or beta_iv.hi <= 2:
        raise ValueError("beta interval must lie above 2")
    if beta_iv.lo == beta_iv.hi and _sign_at(poly.coeffs, beta_iv.lo) != 0:
        raise ValueError("the exact beta is not a root of the polynomial")
    work = precision_digits + 4
    scale = 10**precision_digits
    while True:
        target = Fraction(1, 10**work)
        if beta_iv.width > target:
            beta_iv = refine(beta_iv, poly, target)
        # lo = hi for an exact root
        bl, bh = beta_iv.lo, beta_iv.hi
        sl, _ = _sqrt_enclosure(bl * bl - 4, work)
        _, sh = _sqrt_enclosure(bh * bh - 4, work)
        al, ah = (bl + sl) / 2, (bh + sh) / 2
        if (al.numerator * scale) // al.denominator == (ah.numerator * scale) // ah.denominator:
            return _decimal_string(al, precision_digits), IsolatingInterval(al, ah)
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
    irreducibility, unit resultant of the lift.  All arithmetic is exact.
    n, the precision and deg T <= MAX_T are bounded first, by ValueError.
    A constructed candidate's pattern, and with it separability, is decided
    from the closed-form roots of its P by ``root_pattern``, with no Sturm
    chain as a rule; an external trace's by one chain.  A candidate refuted
    there raises ``root_pattern`` with no pattern in its data.  The
    irreducibility check reads the pattern.
    """
    check_bounds(n=n, digits=precision_digits, poly=trace)
    return _certify_trace(trace, n, construction, a, precision_digits, None)


def _certify_trace(
    trace: IntPoly, n: int, construction: str, a: Optional[int], precision_digits: int, res: Optional[int]
) -> SalemCertificate:
    """``certify_trace`` past its bounds; ``res`` is Res(x^n - 1, S) for the lift S of trace, or None."""
    from .construct import product_roots  # construct imports this module

    if trace.is_zero or not trace.is_monic:
        raise CertificationError("monic", "trace polynomial must be monic", {"poly": trace.to_text()})
    t = int(trace.degree)
    if t < 2:
        raise CertificationError(
            "degree", f"trace degree {t} < 2; a Salem minimal polynomial has degree 2t >= 4"
        )

    # None: separable, with a non-real root
    hints = product_roots(construction, n, t, a)
    pattern = root_pattern(trace, hints)
    if pattern is not None and not pattern.separable:
        raise CertificationError("separability", "trace polynomial has a repeated root")
    if pattern is None or not pattern.is_salem(t):
        raise CertificationError(
            "root_pattern",
            f"expected 1 root above 2 and {t - 1} in (-2,2); got {pattern or 'a non-real root'}",
            {} if pattern is None else {"pattern": pattern.to_json_dict()},
        )

    witness = is_irreducible(trace, pattern)
    if witness.verdict != "irreducible":
        raise CertificationError(
            "irreducibility",
            "trace polynomial is reducible",
            {"factor": witness.factor.to_text() if witness.factor else None},
        )

    s_poly = lift_trace(trace, t)  # monic and reciprocal of degree 2t, as trace is monic of degree t
    res = unit_check(s_poly, n) if res is None else res
    if abs(res) != 1:
        raise _resultant_error(n, res)

    # the pattern puts exactly one root in (2, bound], and T(2) < 0 < T(bound); P's largest root is near it
    beta_iv = IsolatingInterval(Fraction(2), cauchy_bound(trace) + 1)
    near = None if hints is None else Fraction(hints[0][-1], hints[1])
    beta_iv = refine(beta_iv, trace, Fraction(1, 10 ** (precision_digits + 4)), near)
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
    would be rejected on degree grounds, and only there: the other checks are
    ``certify_trace``'s on the extracted trace, whose lift is this polynomial.
    n, the precision and deg S <= 2 MAX_T are bounded first, by ValueError.
    """
    check_bounds(n=n, digits=precision_digits, poly=s_poly, kind="min")
    if s_poly.is_zero or not s_poly.is_monic:
        raise CertificationError("monic", "minimal polynomial must be monic")
    if int(s_poly.degree) % 2 != 0 or not is_reciprocal(s_poly):
        raise CertificationError("reciprocal", "not reciprocal")
    res = unit_check(s_poly, n)
    if abs(res) != 1:
        raise _resultant_error(n, res)
    # extract_trace is exact, so the lift of its trace is s_poly, whose resultant is known
    return _certify_trace(extract_trace(s_poly), n, construction, a, precision_digits, res)


def verify_certificate(cert: SalemCertificate) -> list[str]:
    """Independently replay a certificate; returns the names of failed checks (empty if valid).

    The lift S of the stored trace polynomial T is rebuilt and compared with
    ``min_poly``.  The pattern, the digits of alpha and the resultant are
    recomputed; the resultant only on S, and only when S is the stored
    polynomial, 1 <= n <= MAX_N and the stored value is +-1, so a forged
    ``min_poly``, n or value fails at once.  The beta interval is checked to
    bracket the one root above 2, by a sign change of T, and to lie in
    (a-1, a), by one there, when a is recorded and a - 1 is below T's Cauchy
    bound.  The irreducibility witness is replayed from its detail on the
    pattern proved here: a ``kronecker-cyclotomic`` one by recomputing its
    gcds, a ``modular-degree-filter`` one by recomputing each stored degree
    multiset mod its prime, then its subset sums.  A constructed candidate's
    pattern is decided from the roots of P, taken from ``plan_construction(n,
    t)`` when that plan names its construction, and a <= MAX_A; they are hints,
    and F's values (``fixed_values``) serve only a T that is the plan's for a,
    so a forged field can only send the replay to Horner or the Sturm chain, as
    an external trace goes.  A pattern refuted there (None) fails as a non-Salem one does.
    """
    from .construct import product_roots  # construct imports this module

    failures: list[str] = []
    trace, n, t = cert.trace_poly, cert.n, cert.t
    # the degree is bounded before any chain is built: a chain's cost grows fast with t
    if trace.is_zero or not trace.is_monic or int(trace.degree) != t or not 2 <= t <= MAX_T:
        return ["degree"]
    s_poly = lift_trace(trace, t)  # monic and reciprocal of degree 2t
    lifted = s_poly == cert.min_poly
    if not lifted:
        failures.append("lift")
    pattern = root_pattern(trace, product_roots(cert.construction, n, t, cert.a))
    salem = pattern is not None and pattern.is_salem(t)
    if not salem or pattern != cert.root_pattern:
        failures.append("root_pattern")
    # the witness is replayed against the pattern proved here, never the stored one
    if cert.irreducibility.verdict != "irreducible" or not verify_witness(trace, cert.irreducibility, pattern):
        failures.append("irreducibility")
    # unit_check sees only the rebuilt S, of degree 2t <= 2 MAX_T, and last: a forged min_poly,
    # n past its bound or value other than +-1 fails without it.  A constructed S folds to
    # -x^(t mod n) at its own n, so a forged n or sign fails by the fold's value or the PRS's
    res = cert.resultant_value
    if not (lifted and 1 <= n <= MAX_N and abs(res) == 1 and unit_check(s_poly, n) == res):
        failures.append("resultant")
    # with the Salem pattern T has one root above 2 and T(2) != 0, so a strict sign
    # change on [lo, hi] with 2 <= lo < hi brackets that root; an exact beta (lo = hi)
    # fails, as beta is irrational for an irreducible trace
    iv, f = cert.beta_interval, trace.coeffs
    if not salem or not 2 <= iv.lo < iv.hi or _sign_at(f, iv.lo) * _sign_at(f, iv.hi) >= 0:
        failures.append("beta_interval")
    elif (
        not 1 <= cert.alpha_precision <= MAX_PRECISION
        or alpha_from_beta(iv, cert.alpha_precision, trace)[0] != cert.alpha_decimal
    ):
        failures.append("alpha")
    # with the pattern, a root in (a-1, a), a - 1 >= 2, is the one above 2; T has no root past
    # its Cauchy bound, so an a with a - 1 at or past it fails with no evaluation of T
    a = cert.a
    if a is not None and (
        a < 3 or a - 1 >= cauchy_bound(trace) or _sign_at(f, Fraction(a - 1)) * _sign_at(f, Fraction(a)) >= 0
    ):
        failures.append("beta_location")
    return failures
