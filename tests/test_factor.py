"""Irreducibility verdicts, witness replay, and agreement with an independent oracle."""

import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemunits.factor import (
    InconclusiveFactorization,
    IrreducibilityWitness,
    _zassenhaus,
    _good_primes,
    _is_prime,
    is_irreducible,
    verify_witness,
)
from salemunits.intpoly import IntPoly, resultant
from salemunits.roots import is_separable
from salemunits.trigpolys import cyclo_trace

_x = sympy.Symbol("x")


def sympy_is_irreducible(p: IntPoly) -> bool:
    """Independent computer-algebra oracle."""
    expr = sum(c * _x**i for i, c in enumerate(p.coeffs))
    return sympy.Poly(expr, _x).is_irreducible


def random_monic_squarefree(rng: random.Random, max_degree: int) -> IntPoly:
    while True:
        deg = rng.randint(1, max_degree)
        p = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if p.degree >= 1 and (p.degree == 1 or is_separable(p)):
            return p


class TestVerdicts:
    def test_quadratic_unit_factor(self):
        w = is_irreducible(IntPoly([1, -5, 1]))
        assert w.verdict == "irreducible"

    def test_x2_minus_1(self):
        p = IntPoly([-1, 0, 1])
        w = is_irreducible(p)
        assert w.verdict == "reducible"
        assert p.exact_div(w.factor) * w.factor == p

    def test_cyclo12_reducible(self):
        w = is_irreducible(cyclo_trace(12))
        assert w.verdict == "reducible"
        assert cyclo_trace(12).exact_div(w.factor) is not None

    def test_product_of_irreducible_quadratics(self):
        rng = random.Random(1)
        for _ in range(20):
            a, b = rng.randint(3, 40), rng.randint(3, 40)
            p = IntPoly([1, -a, 1]) * IntPoly([1, -b, 1])
            if not is_separable(p):
                continue
            w = is_irreducible(p)
            assert w.verdict == "reducible"
            assert verify_witness(p, w)

    def test_product_of_irreducible_cubics(self):
        # x^3 - q for prime q has no rational root, hence is irreducible
        for q1, q2 in [(2, 3), (5, 7), (11, 13)]:
            p = IntPoly([-q1, 0, 0, 1]) * IntPoly([-q2, 0, 0, 1])
            w = is_irreducible(p)
            assert w.verdict == "reducible"
            assert int(w.factor.degree) in (3,)
            assert verify_witness(p, w)

    def test_degree_one(self):
        assert is_irreducible(IntPoly([7, 1])).verdict == "irreducible"

    def test_zero_constant_coefficient(self):
        w = is_irreducible(IntPoly([0, 4, 0, 1]))
        assert w.verdict == "reducible" and w.factor == IntPoly([0, 1])

    def test_filter_inconclusive_case(self):
        # x^4 + 1 splits modulo every prime yet is irreducible over Q
        w = is_irreducible(IntPoly([1, 0, 0, 0, 1]))
        assert w.verdict == "irreducible"
        assert w.method == "exact-factorization"

    def test_swinnerton_dyer_like(self):
        # minimal polynomial of sqrt(2) + sqrt(3): x^4 - 10x^2 + 1, also
        # reducible modulo every prime
        w = is_irreducible(IntPoly([1, 0, -10, 0, 1]))
        assert w.verdict == "irreducible"
        assert w.method == "exact-factorization"


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

    def test_subset_cap(self):
        with pytest.raises(InconclusiveFactorization):
            is_irreducible(IntPoly([1, 0, 0, 0, 1]), subset_cap=1)


class TestOracleAgreement:
    def test_filter_and_factorization_agree(self):
        # filter verdicts, exact-factorization verdicts and the independent
        # oracle coincide on 200 random monic squarefree polynomials
        rng = random.Random(99)
        for _ in range(200):
            p = random_monic_squarefree(rng, 10)
            w = is_irreducible(p)
            assert (w.verdict == "irreducible") == sympy_is_irreducible(p), p
            if w.method == "modular-degree-filter":
                zw = _zassenhaus(p, _good_primes(p, 1)[0], 1 << 24)
                assert zw.verdict == w.verdict == "irreducible", p

    def test_reducible_factors_divide(self):
        rng = random.Random(123)
        found = 0
        while found < 30:
            p = random_monic_squarefree(rng, 4) * random_monic_squarefree(rng, 4)
            if not is_separable(p):
                continue
            w = is_irreducible(p)
            assert w.verdict == "reducible"
            p.exact_div(w.factor)
            found += 1

    def test_wider_structured_products(self):
        # products of larger monic factors exercise the lifting and
        # recombination path well past the degree-10 grid
        rng = random.Random(555)
        checked = 0
        while checked < 10:
            prod = IntPoly([1])
            for _ in range(rng.randint(2, 3)):
                d = rng.randint(3, 8)
                prod = prod * IntPoly([rng.randint(-50, 50) for _ in range(d)] + [1])
            if prod.degree < 2 or not is_separable(prod):
                continue
            w = is_irreducible(prod)
            assert (w.verdict == "irreducible") == sympy_is_irreducible(prod), prod
            if w.verdict == "reducible":
                prod.exact_div(w.factor)
            checked += 1

    def test_pipeline_degree_35_forced_factorization(self):
        from salemunits.construct import build_candidate, plan_construction

        t35 = build_candidate(plan_construction(44, 35), 117)
        w = _zassenhaus(t35, _good_primes(t35, 1)[0], 1 << 24)
        assert w.verdict == "irreducible"
        assert w.coeff_bound is not None and w.modulus_exponent is not None


class TestWitnessReplay:
    def test_reducible_replay(self):
        p = IntPoly([-1, 0, 1])
        w = is_irreducible(p)
        assert verify_witness(p, w)
        bad = IrreducibilityWitness(verdict="reducible", method="exact-factorization", factor=IntPoly([1, 1, 1]))
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

    def test_json_roundtrip(self):
        for poly in (IntPoly([1, -5, 1]), IntPoly([-1, 0, 1]), IntPoly([1, 0, 0, 0, 1])):
            w = is_irreducible(poly)
            back = IrreducibilityWitness.from_json_dict(w.to_json_dict())
            assert back == w


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
