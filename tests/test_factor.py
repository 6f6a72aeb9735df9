"""Irreducibility verdicts, witness replay, and agreement with an independent oracle."""

import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemunits.construct import build_candidate, plan_construction
from salemunits.factor import (
    KRONECKER,
    IrreducibilityWitness,
    _good_primes,
    _graeffe_trace,
    _is_prime,
    _zassenhaus,
    is_irreducible,
    verify_witness,
)
from salemunits.intpoly import IntPoly, resultant
from salemunits.roots import is_separable, root_pattern
from salemunits.trigpolys import extract_trace

_x = sympy.Symbol("x")


def _sympy_expr(p: IntPoly):
    return sum(c * _x**i for i, c in enumerate(p.coeffs))


def sympy_is_irreducible(p: IntPoly) -> bool:
    """Independent computer-algebra oracle."""
    return sympy.Poly(_sympy_expr(p), _x).is_irreducible


def psi(m: int) -> IntPoly:
    """The cyclotomic trace psi_m, minimal polynomial of 2cos(2 pi/m), from sympy's Phi_m."""
    return extract_trace(IntPoly(sympy.Poly(sympy.cyclotomic_poly(m, _x), _x).all_coeffs()[::-1]))


# m >= 3 with phi(m)/2 <= 12: the 51 psi_m of degree 1 to 12 (phi(m) > 24 for m > 90)
PLANTED = [m for m in range(3, 91) if sympy.totient(m) <= 24]
# plans with a <= 60: every candidate with the Salem pattern is checked
SWEEP_PLANS = [(12, 9), (28, 23), (36, 25), (44, 31)]


def salem_pattern_candidates():
    for n, t in SWEEP_PLANS:
        plan = plan_construction(n, t)
        for a in range(3, 61):
            p = build_candidate(plan, a)
            if is_separable(p) and root_pattern(p).is_salem(t):
                yield p


class TestVerdicts:
    def test_quadratic_unit_factor(self):
        w = is_irreducible(IntPoly([1, -5, 1]))
        assert w.verdict == "irreducible"

    def test_cyclo12_reducible(self):
        p = IntPoly([1, -5, 1]) * psi(12)
        w = is_irreducible(p)
        assert w.verdict == "reducible" and w.method == KRONECKER
        assert w.factor == psi(12)

    def test_degree_one(self):
        assert is_irreducible(IntPoly([7, 1])).verdict == "irreducible"

    def test_zero_constant_coefficient(self):
        # psi_4 = x: gcd(p(x), p(-x)) finds it
        w = is_irreducible(IntPoly([0, 1, -5, 1]))
        assert w.verdict == "reducible" and w.factor == IntPoly([0, 1])

    def test_filter_inconclusive_case(self):
        # the (12,9), a=18 trace splits modulo every filter prime yet is irreducible
        p = build_candidate(plan_construction(12, 9), 18)
        w = is_irreducible(p)
        assert w.verdict == "irreducible"
        assert w.method == KRONECKER
        assert sympy_is_irreducible(p)


class TestKronecker:
    def test_graeffe_identity(self):
        p = build_candidate(plan_construction(12, 9), 3)
        lhs = sympy.Poly(_sympy_expr(_graeffe_trace(p)).subs(_x, _x**2 - 2), _x)
        rhs = -sympy.Poly(_sympy_expr(p) * _sympy_expr(p).subs(_x, -_x), _x)
        assert lhs == rhs

    @pytest.mark.parametrize("m", PLANTED)
    def test_planted_psi_small_trace(self, m):
        p = build_candidate(plan_construction(12, 9), 3) * psi(m)
        w = _zassenhaus(p)
        assert w.verdict == "reducible" and w.method == KRONECKER
        assert w.factor == psi(m)
        assert verify_witness(p, w)

    @pytest.mark.parametrize("m", [16, 24])
    def test_planted_psi_four_divides_m(self, m):
        # 4 | m: psi_m(-x) = +-psi_m(x), found only by gcd(p(x), p(-x))
        p = build_candidate(plan_construction(92, 61), 111) * psi(m)
        w = _zassenhaus(p)
        assert w.verdict == "reducible"
        assert w.factor == psi(m)
        assert verify_witness(p, w)

    def test_fallback_needs_salem_pattern(self):
        # x^4 + 1 splits modulo every prime and has no real root
        with pytest.raises(ValueError, match="Kronecker"):
            is_irreducible(IntPoly([1, 0, 0, 0, 1]))


class TestPreconditions:
    def test_non_monic(self):
        with pytest.raises(ValueError):
            is_irreducible(IntPoly([1, 2]))

    def test_non_squarefree(self):
        with pytest.raises(ValueError):
            is_irreducible(IntPoly([1, -2, 1]))

    def test_constant(self):
        with pytest.raises(ValueError):
            is_irreducible(IntPoly([5]))
        with pytest.raises(ValueError):
            is_irreducible(IntPoly())


class TestOracleAgreement:
    def test_filter_and_factorization_agree(self):
        # on every candidate of the plan sweep with the Salem pattern, the
        # filter verdict, the Kronecker test and sympy coincide
        checked = 0
        for p in salem_pattern_candidates():
            expected = sympy_is_irreducible(p)
            assert (_zassenhaus(p).verdict == "irreducible") == expected, p
            assert (is_irreducible(p).verdict == "irreducible") == expected, p
            checked += 1
        assert checked >= 150

    def test_reducible_factors_divide(self):
        # a Salem trace times 1-3 distinct random psi_m: reducible, and the
        # factor divides the product
        rng = random.Random(123)
        base = build_candidate(plan_construction(12, 9), 3)
        for _ in range(30):
            p = base
            for m in rng.sample(PLANTED, rng.randint(1, 3)):
                p = p * psi(m)
            w = is_irreducible(p)
            assert w.verdict == "reducible"
            p.exact_div(w.factor)

    def test_pipeline_degree_35_forced_factorization(self):
        t35 = build_candidate(plan_construction(44, 35), 117)
        w = _zassenhaus(t35)
        assert w == IrreducibilityWitness(verdict="irreducible", method=KRONECKER)
        assert verify_witness(t35, w)


class TestWitnessReplay:
    def test_reducible_replay(self):
        p = IntPoly([1, -5, 1]) * IntPoly([-1, 1])
        w = is_irreducible(p)
        assert w.factor == IntPoly([-1, 1])
        assert verify_witness(p, w)
        bad = IrreducibilityWitness(verdict="reducible", method=KRONECKER, factor=IntPoly([1, 1, 1]))
        assert not verify_witness(p, bad)

    def test_filter_replay_without_rerun(self):
        p = IntPoly([1, -5, 1])
        w = is_irreducible(p)
        assert w.method == "modular-degree-filter"
        assert verify_witness(p, w)
        # corrupt one stored multiset: replay must fail
        corrupted = IrreducibilityWitness(
            verdict=w.verdict,
            method=w.method,
            primes=w.primes,
            degree_multisets=((1, 1),) * len(w.primes),
        )
        assert not verify_witness(p, corrupted)

    def test_kronecker_replay(self):
        p = build_candidate(plan_construction(12, 9), 18)
        for method in (KRONECKER, "exact-factorization"):
            assert verify_witness(p, IrreducibilityWitness(verdict="irreducible", method=method))
        # a forged irreducible verdict on a reducible trace with the Salem pattern
        reducible = IntPoly([1, -5, 1]) * IntPoly([-1, 1])
        for method in (KRONECKER, "exact-factorization"):
            assert not verify_witness(reducible, IrreducibilityWitness(verdict="irreducible", method=method))
        # two roots above 2 and no psi_m factor: without the pattern the gcds prove nothing
        two_large = IntPoly([1, -5, 1]) * IntPoly([1, -7, 1])
        assert not verify_witness(two_large, IrreducibilityWitness("irreducible", KRONECKER))
        assert not verify_witness(p, IrreducibilityWitness("irreducible", "no-such-method"))
        assert not verify_witness(p, IrreducibilityWitness("no-such-verdict", KRONECKER))

    def test_json_roundtrip(self):
        for poly in (
            IntPoly([1, -5, 1]),
            IntPoly([1, -5, 1]) * IntPoly([-1, 1]),
            build_candidate(plan_construction(12, 9), 18),
        ):
            w = is_irreducible(poly)
            back = IrreducibilityWitness.from_json_dict(w.to_json_dict())
            assert back == w
        assert is_irreducible(poly).to_json_dict() == {"verdict": "irreducible", "method": KRONECKER}

    def test_legacy_json_parses(self):
        # reports written by the removed Hensel fallback carry its data
        legacy = {
            "verdict": "irreducible",
            "method": "exact-factorization",
            "primes": [3],
            "degree_multisets": [[2, 7]],
            "prime": 3,
            "modulus_exponent": 41,
            "coeff_bound": 123456,
        }
        w = IrreducibilityWitness.from_json_dict(legacy)
        assert (w.verdict, w.method, w.primes, w.degree_multisets) == ("irreducible", "exact-factorization", (3,), ((2, 7),))
        assert verify_witness(build_candidate(plan_construction(12, 9), 18), w)


def test_is_prime_matches_sympy():
    assert [n for n in range(2000) if _is_prime(n) != sympy.isprime(n)] == []


def _old_good_primes(p: IntPoly, count: int) -> list[int]:
    """The discriminant rule: the smallest odd primes not dividing Res(p, p')."""
    disc = resultant(p, p.derivative())
    return [q for q in range(3, 400, 2) if _is_prime(q) and disc % q != 0][:count]


class TestGoodPrimes:
    @given(
        st.lists(st.integers(-20, 20), min_size=0, max_size=7),
        st.sampled_from([1, 3, 5, 7, 11]),
        st.integers(-5, 5),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_discriminant_rule(self, low, q, r, m):
        # (x - r)(x - r - q*m) puts q into disc(p) whenever q > 1
        p = IntPoly(low + [1]) * IntPoly([-r, 1]) * IntPoly([-(r + q * m), 1])
        assume(resultant(p, p.derivative()) != 0)
        expected = _old_good_primes(p, 5)
        assume(len(expected) == 5)
        assert _good_primes(p, 5) == expected
