"""Candidate trace-polynomial construction and the parity-driven dispatcher.

For n = 4 mod 8, n != 0 mod 5 and odd t >= (n+6)/2 every candidate has the
shape (fixed factor list) * (a-dependent factor) - 1, where the factor list
and the a-factor shape are selected from exact parity evidence: root counts of
the Chebyshev-style and cyclotomic-trace factors in (0, 1).  The selection
never trusts the closed-form count alone; formula and Sturm count must agree
or the run aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional

from .factor import separable_mod_prime
from .intpoly import IntPoly, gcd_over_rationals
from .roots import _laguerre_fails, _value_at, is_separable, root_pattern, sturm_count_open
from .salem import (
    DEFAULT_PRECISION,
    CertificationError,
    SalemCertificate,
    certify_trace,
    check_n,
    check_precision,
    check_t,
)
from .trigpolys import (
    cheb,
    cheb_roots_dyadic,
    cheb_roots_in_unit_interval,
    cyclo_trace,
    cyclo_trace_roots_dyadic,
    cyclo_trace_roots_in_unit_interval,
)

# Construction identifiers (also the stable strings in report/certificate JSON).
QUAD_UNIT = "quad-unit"  # a-factor x^2 - a x + 1, even-index Chebyshev factor
QUAD_SHIFT = "quad-shift"  # a-factor x^2 - a x + (a-2)
QUAD_SHIFT_GOLDEN = "quad-shift-golden"  # extra factor x^2 + x - 1
QUAD_SHIFT_GOLDEN_MIRROR = "quad-shift-golden-mirror"  # extra factor x^2 - x - 1
LINEAR = "linear"  # a-factor x - a, user-supplied inner factor

SHAPE_QUAD_UNIT = "x^2-a*x+1"
SHAPE_QUAD_SHIFT = "x^2-a*x+(a-2)"

_GOLDEN = IntPoly([-1, 1, 1])  # x^2 + x - 1, roots (-1 +/- sqrt(5))/2
_GOLDEN_MIRROR = IntPoly([-1, -1, 1])  # x^2 - x - 1, its mirror image
_XX_MINUS_4 = IntPoly([-4, 0, 1])
# construction -> (the parity of l = (2t - n - 6)/4 that selects it, its extra fixed factors)
_L_PARITY_AND_EXTRA = {QUAD_UNIT: (0, ()), QUAD_SHIFT: (1, ()), QUAD_SHIFT_GOLDEN: (1, (_GOLDEN,))}
_L_PARITY_AND_EXTRA[QUAD_SHIFT_GOLDEN_MIRROR] = (1, (_GOLDEN_MIRROR,))

# The root-pattern pre-check of ``search``: roots of P approximated on the grid
# 2^-_PROBE_BITS; _PROBE_ARCHES positive arches of P probed (the one at the
# a-factor's small root, then the narrowest), each by _PROBE_STEPS bisections
# on the sign of T' towards its peak.
_PROBE_BITS = 32
_PROBE_ARCHES = 8
_PROBE_STEPS = 6


class HypothesisError(Exception):
    """A construction hypothesis on (n, t) or on the user factor is violated."""

    def __init__(self, violation: str, message: str):
        super().__init__(message)
        self.violation = violation
        self.message = message


@dataclass(frozen=True)
class ConstructionPlan:
    """Which construction applies to (n, t), with its fixed factor list.

    ``factors`` multiplied by the a-dependent factor of ``a_factor_shape``
    (minus 1) give the degree-t candidate; ``parity_evidence`` records every
    exactly-computed count the selection used.
    """

    construction: str
    n: int
    t: int
    k: int
    l: int
    factors: tuple[IntPoly, ...]
    a_factor_shape: str
    parity_evidence: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction,
            "n": self.n,
            "t": self.t,
            "k": self.k,
            "l": self.l,
            "factors": [f.to_text() for f in self.factors],
            "a_factor_shape": self.a_factor_shape,
            "parity_evidence": dict(self.parity_evidence),
        }


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an a-sweep for one (n, t): certificates plus explained failures."""

    n: int
    t: int
    plan: ConstructionPlan
    a_min: int
    a_max: int
    certificates: tuple[SalemCertificate, ...]
    failures: tuple[tuple[int, str], ...]

    @property
    def distinct_salem_count(self) -> int:
        return len({c.min_poly.coeffs for c in self.certificates})

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "plan": self.plan.to_json_dict(),
            "a_range": [self.a_min, self.a_max],
            "certificates": [c.to_json_dict() for c in self.certificates],
            "failures": [[a, reason] for a, reason in self.failures],
            "distinct_salem_count": self.distinct_salem_count,
        }


def _checked_unit_count(k: int) -> int:
    """Closed-form (0,1) root count of cheb(k), cross-checked against Sturm."""
    formula = cheb_roots_in_unit_interval(k)
    by_sturm = sturm_count_open(cheb(k), 0, 1)
    if formula != by_sturm:
        raise RuntimeError(f"root-count formula and Sturm disagree at k={k}: {formula} vs {by_sturm}")
    return formula


def plan_construction(n: int, t: int) -> ConstructionPlan:
    """Select the construction for (n, t), rejecting hypothesis violations precisely.

    Requires n = 4 mod 8, n != 0 mod 5, t odd, t >= (n+6)/2.  Writing
    t = 3 + n/2 + 2l: even l picks the quad-unit shape directly; odd l picks
    among the three shifted-quadratic shapes by the parities of the exact
    (0,1) root counts.
    """
    if n < 1 or t < 1:
        raise HypothesisError("positivity", "n and t must be positive integers")
    if n % 8 != 4:
        raise HypothesisError("n_mod_8", f"n must be congruent to 4 mod 8 (got n={n}, n mod 8 = {n % 8})")
    if n % 5 == 0:
        raise HypothesisError("n_mod_5", f"n must not be divisible by 5 (got n={n})")
    if t % 2 == 0:
        raise HypothesisError("t_parity", f"t must be odd (got t={t})")
    t_min = (n + 6) // 2
    if t < t_min:
        raise HypothesisError("t_lower_bound", f"t must be at least (n+6)/2 = {t_min} (got t={t})")

    l = (t - 3 - n // 2) // 2
    cn = cyclo_trace(n)

    if l % 2 == 0:
        k = l // 2
        return ConstructionPlan(
            construction=QUAD_UNIT,
            n=n,
            t=t,
            k=k,
            l=l,
            factors=(cn, _XX_MINUS_4, cheb(4 * k)),
            a_factor_shape=SHAPE_QUAD_UNIT,
            parity_evidence={"l": l, "k": k},
        )

    k = (l - 1) // 2
    r_shift = _checked_unit_count(2 + 4 * k)
    r_even = _checked_unit_count(4 * k)
    cn01 = cyclo_trace_roots_in_unit_interval(n)
    product01 = sturm_count_open(cn * cheb(2 + 4 * k), 0, 1)
    if product01 != cn01 + r_shift:
        raise RuntimeError(
            f"(0,1) root counts are not additive at n={n}, k={k}: {product01} vs {cn01}+{r_shift}"
        )
    evidence = {
        "l": l,
        "k": k,
        "roots01_cheb_shift": r_shift,
        "roots01_cheb_even": r_even,
        "roots01_cyclo": cn01,
        "roots01_product": product01,
    }
    if product01 % 2 == 0:
        return ConstructionPlan(
            construction=QUAD_SHIFT,
            n=n,
            t=t,
            k=k,
            l=l,
            factors=(cn, _XX_MINUS_4, cheb(2 + 4 * k)),
            a_factor_shape=SHAPE_QUAD_SHIFT,
            parity_evidence=evidence,
        )
    if r_shift % 2 == 1 or (r_shift % 2 == 0 and r_even % 2 == 0):
        construction = QUAD_SHIFT_GOLDEN
        extra = _GOLDEN
    else:
        construction = QUAD_SHIFT_GOLDEN_MIRROR
        extra = _GOLDEN_MIRROR
    return ConstructionPlan(
        construction=construction,
        n=n,
        t=t,
        k=k,
        l=l,
        factors=(cn, _XX_MINUS_4, extra, cheb(4 * k)),
        a_factor_shape=SHAPE_QUAD_SHIFT,
        parity_evidence=evidence,
    )


def _a_factor(shape: str, a: int) -> IntPoly:
    if shape == SHAPE_QUAD_UNIT:
        return IntPoly([1, -a, 1])
    if shape == SHAPE_QUAD_SHIFT:
        return IntPoly([a - 2, -a, 1])
    raise ValueError(f"unknown a-factor shape {shape!r}")


def build_candidate(plan: ConstructionPlan, a: int) -> IntPoly:
    """The degree-t candidate trace polynomial: product of plan factors times the a-factor, minus 1."""
    if a < 3:
        raise ValueError(f"a must be at least 3 (got {a})")
    prod = IntPoly([1])
    for f in plan.factors:
        prod = prod * f
    r = prod * _a_factor(plan.a_factor_shape, a) - 1
    if r.degree != plan.t or not r.is_monic:
        raise RuntimeError(f"degree bookkeeping failed: built degree {r.degree}, expected {plan.t}")
    return r


def build_linear_family(n: int, t: int, d_factor: IntPoly, a: int) -> IntPoly:
    """Candidate with a linear a-factor and a user-supplied monic inner factor D.

    For odd n the shape is C(x)(x-2)D(x)(x-a) - 1 with t >= (n+3)/2 and
    deg D = t - (n+3)/2; for even n it is C(x)(x^2-4)D(x)(x-a) - 1 with t odd,
    t >= (n+4)/2 and deg D = t - (n+4)/2, where C is the cyclotomic trace
    factor.  The roots of D (if any) must be distinct, lie in (-2, 2) and
    avoid the roots of C; every hypothesis is checked exactly.
    """
    if n < 1:
        raise HypothesisError("positivity", "n must be positive")
    if n % 2 == 1:
        t_min = (n + 3) // 2
        d_expected = t - t_min
        base = IntPoly([-2, 1])
    else:
        if t % 2 == 0:
            raise HypothesisError("t_parity", f"t must be odd for even n (got t={t})")
        t_min = (n + 4) // 2
        d_expected = t - t_min
        base = _XX_MINUS_4
    if t < t_min:
        raise HypothesisError("t_lower_bound", f"t must be at least {t_min} (got t={t})")
    if not d_factor.is_monic:
        raise HypothesisError("d_monic", "the inner factor D must be monic")
    if d_factor.degree != d_expected:
        raise HypothesisError(
            "d_degree", f"the inner factor D must have degree {d_expected} (got {d_factor.degree})"
        )
    cn = cyclo_trace(n)
    if d_expected >= 1:
        if not is_separable(d_factor):
            raise HypothesisError("d_separable", "the roots of D must be distinct")
        pattern = root_pattern(d_factor)
        if pattern.in_neg2_2 != d_expected:
            raise HypothesisError("d_roots_range", "every root of D must be real and lie in (-2, 2)")
        if cn.degree >= 1 and gcd_over_rationals(d_factor, cn).degree != 0:
            raise HypothesisError("d_coprime", "D must share no root with the cyclotomic trace factor")
    if a < 3:
        raise ValueError(f"a must be at least 3 (got {a})")
    r = cn * base * d_factor * IntPoly([-a, 1]) - 1
    if r.degree != t or not r.is_monic:
        raise RuntimeError(f"degree bookkeeping failed: built degree {r.degree}, expected {t}")
    return r


def _quadratic_roots(f: IntPoly, bits: int) -> list[int]:
    """Numerators over 2^bits of the real roots of a monic quadratic, each within 2^-bits."""
    c, b, _ = f.coeffs
    s = isqrt((b * b - 4 * c) << 2 * bits)
    return [((-b << bits) - s) >> 1, ((-b << bits) + s) >> 1]


def _fixed_roots(construction: str, n: int, t: int) -> Optional[list[int]]:
    """Numerators over 2^_PROBE_BITS of the roots of the plan's fixed factors, from their closed forms.

    None, before any root is computed, when (n, t) fails the plan's hypotheses
    or t = 3 + n/2 + 2l with l of the wrong parity for the construction.
    """
    l = (2 * t - n - 6) // 4
    parity, extra = _L_PARITY_AND_EXTRA.get(construction, (None, ()))
    if n < 1 or n % 8 != 4 or n % 5 == 0 or t % 2 == 0 or l < 0 or l % 2 != parity:
        return None
    roots = cyclo_trace_roots_dyadic(n, _PROBE_BITS) + cheb_roots_dyadic(2 * l - 2 * len(extra), _PROBE_BITS)
    for f in (_XX_MINUS_4, *extra):
        roots += _quadratic_roots(f, _PROBE_BITS)
    return roots


def interlacing_points(construction: str, n: int, t: int, a: Optional[int]) -> Optional[tuple[list[int], int]]:
    """(numerators, denominator) of points meant to separate the t roots of the candidate T = P - 1, or None.

    They are the midpoints of consecutive closed-form roots of P = F A_a, and
    one point past each end: T has a root on each side of an arch of P that
    peaks above 1.  They are hints; ``root_pattern`` proves what they show.
    """
    fixed = None if a is None or a < 3 else _fixed_roots(construction, n, t)
    if fixed is None:
        return None
    shape = SHAPE_QUAD_UNIT if construction == QUAD_UNIT else SHAPE_QUAD_SHIFT
    r = sorted(fixed + _quadratic_roots(_a_factor(shape, a), _PROBE_BITS))  # t roots, by the factors' degrees
    one = 2 << _PROBE_BITS
    return [2 * r[0] - one, *(x + y for x, y in zip(r, r[1:])), 2 * r[-1] + one], one


def _laguerre_point(trace: IntPoly, roots: list[int], moving: int) -> Optional[Fraction]:
    """A point where Laguerre's inequality fails for T = P - 1, or None.

    ``roots`` approximate the roots of P, ascending, and ``moving`` is the
    index of the small root of the a-factor among them.  Where an arch of P
    (an interval between consecutive roots, with P > 0) peaks below 1, T has
    a negative local maximum, and the inequality fails near it.  The arch at
    the moving root and the narrowest arches are the likeliest to be that low.
    """
    f, t, shift = trace.coeffs, len(roots), _PROBE_STEPS
    den = 1 << (_PROBE_BITS + shift)
    # P > 0 between roots i and i + 1 when an even number of roots lie above them
    first = moving - (t - 1 - moving) % 2  # the positive arch that starts or ends at the moving root
    arches = sorted(range((t - 1) % 2, t - 1, 2), key=lambda i: (i != first, roots[i + 1] - roots[i]))
    d1 = d2 = None
    for i in arches[:_PROBE_ARCHES]:
        lo, hi = roots[i] << shift, roots[i + 1] << shift
        mid = (lo + hi) >> 1
        if _value_at(f, mid, den) >= 0:
            continue  # P >= 1 at the midpoint: the arch holds two roots of T
        if d1 is None:
            dp = trace.derivative()
            d1, d2 = dp.coeffs, dp.derivative().coeffs
        for _ in range(_PROBE_STEPS):
            if _value_at(d1, mid, den) > 0:  # T' = P' > 0 left of the peak
                lo = mid
            else:
                hi = mid
            mid = (lo + hi) >> 1
        if _laguerre_fails(f, d1, d2, mid, den):
            return Fraction(mid, den)
    return None


def _pattern_rejection(trace: IntPoly, roots: list[int], moving: int) -> Optional[tuple[Fraction, int]]:
    """A proof that ``certify_trace`` rejects the monic trace at ``root_pattern``, or None.

    The proof is (x, q): Laguerre's inequality fails at x, so T is not
    real-rooted and has no Salem pattern, and gcd(T mod q, T' mod q) = 1, so
    T is separable and passes the check before it.
    """
    x = _laguerre_point(trace, roots, moving)
    if x is None:
        return None
    q = separable_mod_prime(trace)
    return None if q is None else (x, q)


def search(
    n: int,
    t: int,
    a_min: int = 3,
    a_max: int = 200,
    want: int = 5,
    precision_digits: int = DEFAULT_PRECISION,
) -> SearchReport:
    """Sweep a over [a_min, a_max], certifying each candidate, until ``want`` certificates.

    Every failure is recorded with its first failed check.  Most candidates
    that fail the root pattern are rejected by a one-point proof
    (``_pattern_rejection``) without a Sturm chain; the rest go through
    ``certify_trace``, with the same verdict either way.  Deterministic:
    identical inputs produce the identical report.  An empty result is a
    report, not an error.
    """
    if a_min < 3:
        raise ValueError("a_min must be at least 3")
    if a_max < a_min:
        raise ValueError("a_max must be at least a_min")
    check_n(n)
    check_t(t)
    check_precision(precision_digits)
    plan = plan_construction(n, t)
    fixed_roots = _fixed_roots(plan.construction, n, t)
    certificates: list[SalemCertificate] = []
    failures: list[tuple[int, str]] = []
    for a in range(a_min, a_max + 1):
        if len(certificates) >= want:
            break
        candidate = build_candidate(plan, a)
        small, large = _quadratic_roots(_a_factor(plan.a_factor_shape, a), _PROBE_BITS)
        roots = sorted(fixed_roots + [small, large])
        if _pattern_rejection(candidate, roots, roots.index(small)) is not None:
            failures.append((a, "root_pattern"))
            continue
        try:
            cert = certify_trace(
                candidate, n, construction=plan.construction, a=a, precision_digits=precision_digits
            )
        except CertificationError as err:
            failures.append((a, err.check))
            continue
        # certified candidates must have their single root above 2 inside (a-1, a), a - 1 >= 2
        if _value_at(candidate.coeffs, a - 1, 1) * _value_at(candidate.coeffs, a, 1) >= 0:
            raise RuntimeError(f"certified candidate for a={a} has its large root outside (a-1, a)")
        certificates.append(cert)
    return SearchReport(
        n=n,
        t=t,
        plan=plan,
        a_min=a_min,
        a_max=a_max,
        certificates=tuple(certificates),
        failures=tuple(failures),
    )
