"""Candidate trace-polynomial construction and the parity-driven dispatcher.

For n = 4 mod 8, n != 0 mod 5 and odd t >= (n+6)/2 every candidate has the
shape (fixed factor list) * (a-dependent factor) - 1, where the construction
is selected from exact parity evidence: root counts of the Chebyshev-style and
cyclotomic-trace factors in (0, 1), each read from its closed form in
``trigpolys``.  ``_CONSTRUCTIONS`` gives each construction's a-factor shape and
extra factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt, prod
from types import MappingProxyType
from typing import Callable, Mapping, Optional

from .intpoly import IntPoly, _value_at
# sturm_count_open is unused here but stays bound: the benchmark tracer looks up construct.sturm_count_open
from .roots import sturm_count_open  # noqa: F401
from .salem import (
    DEFAULT_PRECISION,
    MAX_A,
    CertificationError,
    SalemCertificate,
    certify_trace,
    check_bounds,
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

SHAPE_QUAD_UNIT = "x^2-a*x+1"
SHAPE_QUAD_SHIFT = "x^2-a*x+(a-2)"
# a-factor shape -> its a-factor A_a
_A_FACTORS = {SHAPE_QUAD_UNIT: lambda a: IntPoly([1, -a, 1]), SHAPE_QUAD_SHIFT: lambda a: IntPoly([a - 2, -a, 1])}

_XX_MINUS_4 = IntPoly([-4, 0, 1])
# construction -> (its a-factor shape, its extra fixed factors).  A plan's fixed factors are C_n,
# x^2 - 4, the extras and cheb(2l - 2 len(extras)); only ``plan_construction`` picks the construction.
_CONSTRUCTIONS = MappingProxyType({
    QUAD_UNIT: (SHAPE_QUAD_UNIT, ()),
    QUAD_SHIFT: (SHAPE_QUAD_SHIFT, ()),
    QUAD_SHIFT_GOLDEN: (SHAPE_QUAD_SHIFT, (IntPoly([-1, 1, 1]),)),  # x^2 + x - 1, roots (-1 +/- sqrt(5))/2
    QUAD_SHIFT_GOLDEN_MIRROR: (SHAPE_QUAD_SHIFT, (IntPoly([-1, -1, 1]),)),  # x^2 - x - 1, its mirror image
})

# the closed-form roots of a candidate's P are numerators over 2^_PROBE_BITS, each within 2^-_PROBE_BITS
_PROBE_BITS = 32
# a search sweeps fewer than this many values of a; each costs a candidate, see the CLI help
MAX_A_SPAN = 10_000
# plans kept by plan_construction: a plan keeps its fixed_values, about 0.2 MB at t near 300
_PLAN_CACHE = 32


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
    (minus 1) give the degree-t candidate; ``parity_evidence``, read-only as
    plans are cached, records every closed-form count the selection used.
    F, its roots and its values between them are made on first use, not here.
    """

    construction: str
    n: int
    t: int
    k: int
    l: int
    factors: tuple[IntPoly, ...]
    a_factor_shape: str
    parity_evidence: Mapping[str, int]

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

    @cached_property
    def fixed_product(self) -> IntPoly:
        """F, the product of ``factors``, made once per plan; not part of the JSON."""
        return prod(self.factors, start=IntPoly([1]))

    @cached_property
    def fixed_roots(self) -> tuple[int, ...]:
        """Numerators over 2^_PROBE_BITS of F's roots, from the closed forms of ``factors``; made on first use."""
        _, *quadratics, last = self.factors  # C_n, x^2 - 4 and the extras, cheb(2l - 2 len(extras))
        roots = cyclo_trace_roots_dyadic(self.n, _PROBE_BITS) + cheb_roots_dyadic(int(last.degree), _PROBE_BITS)
        for f in quadratics:
            roots += _quadratic_roots(f, _PROBE_BITS)
        return tuple(roots)

    @cached_property
    def fixed_values(self) -> Mapping[int, int]:
        """D^(t-2) F(m/D) by m, for each midpoint m/D of consecutive ``fixed_roots``, D = 2^(_PROBE_BITS+1).

        Each value is ``_value_at``'s, the one exact evaluator, so replay trusts no other Horner loop.
        """
        r, f = sorted(self.fixed_roots), self.fixed_product.coeffs
        return MappingProxyType({m: _value_at(f, m, 2 << _PROBE_BITS) for m in map(sum, zip(r, r[1:]))})


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


@lru_cache(maxsize=_PLAN_CACHE)
def plan_construction(n: int, t: int) -> ConstructionPlan:
    """Select the construction for (n, t), rejecting hypothesis violations precisely.

    Requires n = 4 mod 8, n != 0 mod 5, t odd, t >= (n+6)/2.  Writing
    t = 3 + n/2 + 2l: even l picks the quad-unit shape directly; odd l picks
    among the three shifted-quadratic shapes by the parities of the exact
    (0,1) root counts, each from its closed form.  The factors follow from
    ``_CONSTRUCTIONS``.  The last _PLAN_CACHE plans are kept and shared.

    roots01_product is roots01_cyclo + roots01_cheb_shift.  With n = 4n' and
    2 + 4k = 2m', n' and m' odd, a root 2cos(i pi / 2n') of C_n equal to a root
    2cos((2j+1) pi / 4m') of cheb(2 + 4k) would need 2i m' = (2j+1) n', even
    on the left and odd on the right.  So the two share no root, and the
    (0,1) count of their product is the sum of their counts.
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
    k = l // 2
    if l % 2 == 0:
        construction, evidence = QUAD_UNIT, {"l": l, "k": k}
    else:
        r_shift = cheb_roots_in_unit_interval(2 + 4 * k)
        r_even = cheb_roots_in_unit_interval(4 * k)
        cn01 = cyclo_trace_roots_in_unit_interval(n)
        product01 = cn01 + r_shift
        evidence = dict(
            l=l, k=k, roots01_cheb_shift=r_shift, roots01_cheb_even=r_even, roots01_cyclo=cn01,
            roots01_product=product01,
        )
        if product01 % 2 == 0:
            construction = QUAD_SHIFT
        elif r_shift % 2 == 1 or r_even % 2 == 0:
            construction = QUAD_SHIFT_GOLDEN
        else:
            construction = QUAD_SHIFT_GOLDEN_MIRROR
    shape, extra = _CONSTRUCTIONS[construction]
    return ConstructionPlan(
        construction=construction,
        n=n,
        t=t,
        k=k,
        l=l,
        factors=(cyclo_trace(n), _XX_MINUS_4, *extra, cheb(2 * l - 2 * len(extra))),
        a_factor_shape=shape,
        parity_evidence=MappingProxyType(evidence),
    )


def _candidate_coeffs(plan: ConstructionPlan, a: int) -> tuple[int, ...]:
    """The coefficients of F A_a - 1, for A_a = x^2 + b x + c: three shifted, scaled copies of F's, no multiply."""
    c, b, _ = _A_FACTORS[plan.a_factor_shape](a).coeffs
    f = plan.fixed_product.coeffs
    return tuple(u + b * v + c * w for u, v, w in zip((-1, 0, *f), (0, *f, 0), (*f, 0, 0)))  # -1 in x^2 F's empty x^0


def build_candidate(plan: ConstructionPlan, a: int) -> IntPoly:
    """The degree-t candidate F A_a - 1, checked; ``product_roots`` checks a trace by ``_candidate_coeffs`` alone."""
    if a < 3:
        raise ValueError(f"a must be at least 3 (got {a})")
    r = IntPoly(_candidate_coeffs(plan, a))
    if r.degree != plan.t or not r.is_monic:
        raise RuntimeError(f"degree bookkeeping failed: built degree {r.degree}, expected {plan.t}")
    return r


def _quadratic_roots(f: IntPoly, bits: int) -> list[int]:
    """Numerators over 2^bits of the real roots of a monic quadratic, each within 2^-bits."""
    c, b, _ = f.coeffs
    s = isqrt((b * b - 4 * c) << 2 * bits)
    return [((-b << bits) - s) >> 1, ((-b << bits) + s) >> 1]


def product_roots(construction: str, n: int, t: int, a: Optional[int]) -> Optional[tuple[list[int], int, Callable]]:
    """The closed-form roots of P = F A_a, for the candidate T = P - 1, as (ascending numerators, 2^_PROBE_BITS, known).

    None unless 3 <= a <= MAX_A, as a search's a is, and ``plan_construction(n,
    t)`` picks ``construction``, whose plan gives F's roots.  They are the hints
    of ``root_pattern``, which decides T's pattern from them.  An (n, t) that
    fails the hypotheses raises in planning, so no rejected key is cached.
    ``root_pattern`` calls ``known(p)``: None, with no table read, unless p's
    coefficients are ``_candidate_coeffs(plan, a)``, which builds no IntPoly;
    else a lookup that gives D^t p(m/D) = Fv (m^2 + b m D + c D^2) - D^t, one
    product, at each midpoint m/D of F's roots, from the plan's
    ``fixed_values`` Fv and A_a = x^2 + b x + c, and None at other points.
    """
    if a is None or not 3 <= a <= MAX_A or construction not in _CONSTRUCTIONS:
        return None
    try:
        plan = plan_construction(n, t)
    except HypothesisError:
        return None
    if plan.construction != construction:
        return None
    a_factor = _A_FACTORS[plan.a_factor_shape](a)
    (c, b, _), s = a_factor.coeffs, _PROBE_BITS + 1  # A_a = x^2 + b x + c, D = 2^s
    cdd, dt = c << 2 * s, 1 << s * t

    def known(p: IntPoly) -> Optional[Callable[[int], Optional[int]]]:
        if p.coeffs != _candidate_coeffs(plan, a):
            return None
        table = plan.fixed_values
        return lambda m: None if (v := table.get(m)) is None else v * (m * m + (b * m << s) + cdd) - dt

    quadratic = _quadratic_roots(a_factor, _PROBE_BITS)
    return sorted((*plan.fixed_roots, *quadratic)), 1 << _PROBE_BITS, known  # t roots, by the factors' degrees


def search(
    n: int,
    t: int,
    a_min: int = 3,
    a_max: int = 200,
    want: int = 5,
    precision_digits: int = DEFAULT_PRECISION,
) -> SearchReport:
    """Sweep a over [a_min, a_max], certifying each candidate, until ``want`` certificates.

    Each candidate goes through ``certify_trace``, and every failure is
    recorded with its first failed check.  Deterministic: identical inputs
    produce the identical report.  An empty result is a report, not an error.
    """
    if a_min < 3:
        raise ValueError("a_min must be at least 3")
    if a_max < a_min:
        raise ValueError("a_max must be at least a_min")
    if a_max - a_min >= MAX_A_SPAN:
        raise ValueError(f"a_max - a_min must be less than {MAX_A_SPAN} (got {a_max - a_min})")
    check_bounds(n=n, t=t, digits=precision_digits, a=a_max)
    plan = plan_construction(n, t)
    certificates: list[SalemCertificate] = []
    failures: list[tuple[int, str]] = []
    for a in range(a_min, a_max + 1):
        if len(certificates) >= want:
            break
        candidate = build_candidate(plan, a)
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
