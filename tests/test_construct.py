"""Dispatcher table, builders against independent expansion, and the search sweep."""

from fractions import Fraction

import pytest
import sympy

from salemunits import construct
from salemunits.construct import (
    LINEAR,
    QUAD_SHIFT,
    QUAD_SHIFT_GOLDEN,
    QUAD_SHIFT_GOLDEN_MIRROR,
    QUAD_UNIT,
    HypothesisError,
    build_candidate,
    build_linear_family,
    plan_construction,
    search,
)
from salemunits.intpoly import ONE, IntPoly, resultant, lift_trace
from salemunits import roots
from salemunits.factor import SEPARABILITY_PRIMES
from salemunits.roots import laguerre_fails, sturm_count, sturm_count_open
from salemunits.salem import MAX_N, MAX_PRECISION, MAX_T, CertificationError, certify_trace
from salemunits.trigpolys import cyclo_trace

_x = sympy.Symbol("x")


def sympy_expand(factors, a_poly) -> IntPoly:
    """Independent expansion oracle for candidate construction."""
    expr = sympy.Integer(1)
    for f in list(factors) + [a_poly]:
        expr *= sum(c * _x**i for i, c in enumerate(f.coeffs))
    expr = sympy.expand(expr - 1)
    poly = sympy.Poly(expr, _x)
    return IntPoly(poly.all_coeffs()[::-1])


class TestDispatch:
    def test_table(self):
        plan = plan_construction(12, 9)
        assert (plan.construction, plan.k) == (QUAD_UNIT, 0)
        plan = plan_construction(12, 11)
        assert (plan.construction, plan.k) == (QUAD_SHIFT, 0)
        plan = plan_construction(12, 15)
        assert (plan.construction, plan.k) == (QUAD_SHIFT_GOLDEN, 1)
        plan = plan_construction(44, 35)
        assert (plan.construction, plan.k) == (QUAD_SHIFT_GOLDEN_MIRROR, 2)

    def test_rejections(self):
        with pytest.raises(HypothesisError) as err:
            plan_construction(20, 15)
        assert err.value.violation == "n_mod_5"
        with pytest.raises(HypothesisError) as err:
            plan_construction(12, 10)
        assert err.value.violation == "t_parity"
        with pytest.raises(HypothesisError) as err:
            plan_construction(8, 9)
        assert err.value.violation == "n_mod_8"
        with pytest.raises(HypothesisError) as err:
            plan_construction(12, 7)
        assert err.value.violation == "t_lower_bound"

    def test_totality_small_n(self):
        # every admissible (n, t) with n <= 100 gets a plan; the parity case
        # split leaves no gap
        for n in range(4, 101, 8):
            if n % 5 == 0:
                continue
            for t in range((n + 6) // 2, (n + 6) // 2 + 16, 2):
                plan = plan_construction(n, t)
                assert plan.t == t
                degree = sum(int(f.degree) for f in plan.factors) + 2
                assert degree == t

    def test_parity_evidence_recorded(self):
        plan = plan_construction(44, 35)
        ev = plan.parity_evidence
        assert ev["roots01_cyclo"] == 3
        assert ev["roots01_cheb_shift"] == 2
        assert ev["roots01_cheb_even"] == 1
        assert ev["roots01_product"] == 5

    def test_factor_lists_pairwise_coprime(self):
        from itertools import combinations

        from salemunits.intpoly import gcd_over_rationals

        for n, t in [(12, 9), (12, 11), (12, 15), (44, 35), (28, 23)]:
            plan = plan_construction(n, t)
            nontrivial = [f for f in plan.factors if f.degree >= 1]
            for f, g in combinations(nontrivial, 2):
                assert gcd_over_rationals(f, g) == ONE, (n, t)
            for a in (3, 8):
                quad = IntPoly([1, -a, 1]) if plan.construction == QUAD_UNIT else IntPoly([a - 2, -a, 1])
                for f in nontrivial:
                    assert gcd_over_rationals(f, quad) == ONE, (n, t, a)

    def test_golden_mirror_share_roots_iff_multiple_of_10(self):
        from salemunits.intpoly import gcd_over_rationals

        mirror = IntPoly([-1, -1, 1])  # roots 2cos(pi/5), 2cos(3 pi/5)
        for n in range(3, 61):
            if cyclo_trace(n).degree < 1:
                continue
            shares = gcd_over_rationals(cyclo_trace(n), mirror).degree >= 1
            assert shares == (n % 10 == 0), n
            if n % 4 == 0:
                # with symmetric roots this is the mod-5 criterion the
                # dispatcher's hypotheses rely on
                assert shares == (n % 5 == 0), n


class TestBuildCandidate:
    def test_expected_shape_12_9(self):
        plan = plan_construction(12, 9)
        r = build_candidate(plan, 5)
        expected = sympy_expand(plan.factors, IntPoly([1, -5, 1]))
        assert r == expected
        assert r.degree == 9 and r.coeffs[0] == -1

    def test_expected_shape_12_11(self):
        plan = plan_construction(12, 11)
        r = build_candidate(plan, 5)
        expected = sympy_expand(plan.factors, IntPoly([3, -5, 1]))
        assert r == expected
        assert r.degree == 11

    def test_value_at_two(self):
        # the x^2 - 4 factor vanishes at 2, so every candidate has R(2) = -1
        for n, t in [(12, 9), (12, 11), (12, 15), (44, 35)]:
            plan = plan_construction(n, t)
            for a in (3, 17):
                assert build_candidate(plan, a)(2) == -1

    def test_degree_law(self):
        for n, t in [(12, 9), (12, 11), (12, 15), (44, 35), (28, 23), (36, 27)]:
            plan = plan_construction(n, t)
            for a in (3, 9, 100):
                r = build_candidate(plan, a)
                assert r.degree == t and r.is_monic

    def test_a_floor(self):
        with pytest.raises(ValueError):
            build_candidate(plan_construction(12, 9), 2)


class TestLinearFamily:
    def test_even_example(self):
        r = build_linear_family(2, 3, ONE, 6)
        assert r == IntPoly([23, -4, -6, 1])

    def test_odd_example(self):
        r = build_linear_family(1, 2, ONE, 5)
        assert r == IntPoly([9, -7, 1])

    def test_d_hypotheses(self):
        with pytest.raises(HypothesisError) as err:
            build_linear_family(2, 5, IntPoly([-3, 1]) * IntPoly([0, 1]), 6)
        assert err.value.violation == "d_roots_range"
        with pytest.raises(HypothesisError) as err:
            build_linear_family(2, 5, IntPoly([0, 0, 2]), 6)
        assert err.value.violation == "d_monic"
        with pytest.raises(HypothesisError) as err:
            build_linear_family(2, 5, ONE, 6)
        assert err.value.violation == "d_degree"
        with pytest.raises(HypothesisError) as err:
            build_linear_family(2, 5, IntPoly([1, -2, 1]), 6)
        assert err.value.violation == "d_separable"
        with pytest.raises(HypothesisError) as err:
            build_linear_family(5, 6, cyclo_trace(5), 7)
        assert err.value.violation == "d_coprime"
        with pytest.raises(HypothesisError) as err:
            build_linear_family(2, 4, IntPoly([0, 1]), 6)
        assert err.value.violation == "t_parity"

    def test_certifiable(self):
        r = build_linear_family(2, 3, ONE, 6)
        cert = certify_trace(r, 2, construction=LINEAR, a=6)
        assert abs(cert.resultant_value) == 1
        assert cert.min_poly.degree == 6


class TestSearch:
    def test_basic_12_9(self):
        report = search(12, 9, 3, 200, 5)
        assert len(report.certificates) == 5
        assert report.distinct_salem_count == 5
        # minimal working a frozen from the recorded sweep
        assert report.certificates[0].a == 3
        assert report.failures == ()

    def test_failures_explained(self):
        # (12, 15) needs a = 27; below that every a fails at the root pattern
        report = search(12, 15, 3, 10, 5)
        assert report.certificates == ()
        assert len(report.failures) == 8
        assert all(reason == "root_pattern" for _, reason in report.failures)

    def test_deterministic(self):
        a = search(12, 9, 3, 50, 2)
        b = search(12, 9, 3, 50, 2)
        assert a.to_json_dict() == b.to_json_dict()

    def test_beta_location(self):
        report = search(12, 9, 3, 200, 4)
        for cert in report.certificates:
            assert sturm_count_open(cert.trace_poly, cert.a - 1, cert.a) == 1
            assert cert.a - 1 <= cert.beta_interval.lo and cert.beta_interval.hi <= cert.a

    def test_root_of_unity_law(self):
        report = search(12, 9, 3, 200, 2)
        for cert in report.certificates:
            s = lift_trace(cert.trace_poly, cert.t)
            xn1 = IntPoly([-1] + [0] * 11 + [1])
            assert abs(resultant(xn1, s)) == 1

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            search(12, 9, 2, 10, 1)
        with pytest.raises(HypothesisError):
            search(20, 15)

    def test_precision_bound(self):
        # refused before planning: (20, 15) would raise HypothesisError
        for digits in (0, MAX_PRECISION + 1):
            with pytest.raises(ValueError, match="precision"):
                search(20, 15, precision_digits=digits)

    def test_n_bound(self):
        # refused before planning; MAX_N + 4 is 4 mod 8 and not a multiple of 5
        assert (MAX_N + 4) % 8 == 4 and (MAX_N + 4) % 5 != 0
        for n in (MAX_N + 4, 10**30 + 4):
            with pytest.raises(ValueError, match="n must be between"):
                search(n, n // 2 + 3)

    def test_t_bound(self):
        # refused before planning; MAX_T + 2 is odd, and t = 10**30 + 1 has no feasible plan to build
        assert MAX_T % 2 == 1
        for t in (MAX_T + 2, 10**30 + 1):
            with pytest.raises(ValueError, match="t must be between"):
                search(12, t)
        assert plan_construction(12, MAX_T + 2).t == MAX_T + 2

    def test_degree_one_cyclo_factor_family(self):
        # n = 4 has the degree-1 cyclotomic trace factor; the pipeline still
        # certifies degree-10 minimal polynomials
        report = search(4, 5, 3, 50, 2)
        assert [c.a for c in report.certificates] == [3, 4]
        for cert in report.certificates:
            assert int(cert.min_poly.degree) == 10
            assert abs(cert.resultant_value) == 1

    def test_concurrent_certification_matches_sequential(self):
        from concurrent.futures import ThreadPoolExecutor

        plan = plan_construction(12, 9)
        a_values = list(range(3, 9))
        seq = [certify_trace(build_candidate(plan, a), 12, a=a) for a in a_values]
        with ThreadPoolExecutor(max_workers=6) as pool:
            par = list(pool.map(lambda a: certify_trace(build_candidate(plan, a), 12, a=a), a_values))
        assert [c.to_json_dict() for c in seq] == [c.to_json_dict() for c in par]


class TestPatternPrecheck:
    """search rejects most root-pattern failures by a Laguerre point and a prime, with the same report."""

    @pytest.mark.parametrize("n,t", [(12, 9), (28, 23), (36, 25), (44, 31), (44, 35)])
    def test_reports_byte_identical(self, n, t, monkeypatch):
        with_check = search(n, t, want=5).to_json_dict()
        monkeypatch.setattr(construct, "_pattern_rejection", lambda *args: None)
        without = search(n, t, want=5).to_json_dict()
        assert with_check == without

    def test_plans_span_every_construction(self):
        kinds = {plan_construction(n, t).construction for n, t in [(12, 9), (28, 23), (36, 25), (44, 31), (44, 35)]}
        assert kinds == {QUAD_UNIT, QUAD_SHIFT, QUAD_SHIFT_GOLDEN, QUAD_SHIFT_GOLDEN_MIRROR}

    def test_few_sturm_chains(self, monkeypatch):
        built = []
        init = roots.SturmChain.__init__

        def counting(self, p):
            built.append(p)
            init(self, p)

        monkeypatch.setattr(roots.SturmChain, "__init__", counting)
        report = search(92, 61, 3, 110, 5)
        assert len(report.failures) == 108 and not report.certificates
        assert len(built) <= 108 // 10

    def test_every_proof_checks(self):
        # each rejection the pre-check makes is a Laguerre point and a prime, and certify_trace agrees
        plan = plan_construction(44, 31)
        fixed = construct._fixed_roots(plan.construction, plan.n, plan.t)
        proved = 0
        for a in range(3, 40):
            trace = build_candidate(plan, a)
            small, large = construct._quadratic_roots(construct._a_factor(plan.a_factor_shape, a), construct._PROBE_BITS)
            approx = sorted(fixed + [small, large])
            proof = construct._pattern_rejection(trace, approx, approx.index(small))
            if proof is None:
                continue
            proved += 1
            x, q = proof
            assert laguerre_fails(trace, x) and q in SEPARABILITY_PRIMES
            with pytest.raises(CertificationError) as err:
                certify_trace(build_candidate(plan, a), 44)
            assert err.value.check == "root_pattern"
        assert proved == 26  # every a below 29

    def test_fixed_roots_match_factors(self):
        for n, t in [(4, 7), (12, 9), (28, 23), (36, 25), (44, 31), (44, 35), (92, 61), (124, 71)]:
            plan = plan_construction(n, t)
            fixed = sorted(construct._fixed_roots(plan.construction, n, t))
            den = 1 << construct._PROBE_BITS
            product = ONE
            for f in plan.factors:
                product = product * f
            # each approximation is within 2^-bits of a root of the product, and they are distinct
            assert len(set(fixed)) == len(fixed) == product.degree
            for x in fixed:
                assert sturm_count(product, Fraction(x - 1, den), Fraction(x + 1, den)) >= 1
