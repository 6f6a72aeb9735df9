"""Dispatcher table, builders against independent expansion, and the search sweep."""

import gc
import hashlib
import json
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from salemunits import construct
from salemunits.construct import (
    MAX_A_SPAN,
    QUAD_SHIFT,
    QUAD_SHIFT_GOLDEN,
    QUAD_SHIFT_GOLDEN_MIRROR,
    QUAD_UNIT,
    HypothesisError,
    build_candidate,
    plan_construction,
    search,
)
from salemunits.intpoly import ONE, IntPoly, resultant, lift_trace
from salemunits import roots
from salemunits.factor import SEPARABILITY_PRIMES
from salemunits.roots import sturm_count, sturm_count_open
from salemunits.salem import (
    MAX_A,
    MAX_N,
    MAX_PRECISION,
    MAX_T,
    CertificationError,
    SalemCertificate,
    certify_trace,
    verify_certificate,
)
from salemunits import trigpolys
from salemunits.trigpolys import cheb, cyclo_trace

_x = sympy.Symbol("x")


def sympy_expand(factors, a_poly) -> IntPoly:
    """Independent expansion oracle for candidate construction."""
    expr = sympy.Integer(1)
    for f in list(factors) + [a_poly]:
        expr *= sum(c * _x**i for i, c in enumerate(f.coeffs))
    expr = sympy.expand(expr - 1)
    poly = sympy.Poly(expr, _x)
    return IntPoly(poly.all_coeffs()[::-1])


# every (n, t) that check_bounds and the hypotheses admit: n = 4 mod 8, 5 not dividing n, odd t in
# [(n+6)/2, MAX_T]; the sha256 of json.dumps of their to_json_dict() list, sort_keys=True
ADMITTED_PLANS = [(n, t) for n in range(4, 597, 8) if n % 5 for t in range((n + 6) // 2, MAX_T + 1, 2)]
ADMITTED_PLANS_DIGEST = "920bd2cde3d8a7bce0500db9ba63d712f5d9e995bcd4e6210bcf2ff931ed7539"


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
        # the product count is the sum of its factors' counts, checked by Sturm on every odd-l plan
        for n, t in [(n, t) for n, t in ADMITTED_PLANS if t <= 101]:
            ev = plan_construction(n, t).parity_evidence
            if ev["l"] % 2:
                product = cyclo_trace(n) * cheb(2 + 4 * ev["k"])
                assert ev["roots01_product"] == sturm_count_open(product, 0, 1), (n, t)

    def test_plan_made_once_and_read_only(self):
        plan = plan_construction(44, 35)
        assert plan_construction(44, 35) is plan
        with pytest.raises(TypeError):
            plan.parity_evidence["roots01_product"] = 4
        assert plan.to_json_dict()["parity_evidence"]["roots01_product"] == 5

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


# every plan with n = 4 mod 8, 5 not dividing n, n <= 124 and odd t in [(n+6)/2, 79]
TABLE_PLANS = [(n, t) for n in range(4, 125, 8) if n % 5 for t in range((n + 6) // 2, 80) if t % 2]
# sha256 of json.dumps of their to_json_dict() list, sort_keys=True: reports embed the plan, so its bytes are fixed
TABLE_PLANS_DIGEST = "b6df90494e00e3e6eef15207d1541cdabd7dd2ad9ac84d9e099ae8fafe297cbb"


class TestConstructionTable:
    def test_plans_unchanged(self):
        plans = [plan_construction(n, t) for n, t in TABLE_PLANS]
        assert len(plans) == 296
        kinds = {plan.construction for plan in plans}
        assert kinds == {QUAD_UNIT, QUAD_SHIFT, QUAD_SHIFT_GOLDEN, QUAD_SHIFT_GOLDEN_MIRROR}
        data = json.dumps([plan.to_json_dict() for plan in plans], sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == TABLE_PLANS_DIGEST

    def test_every_admitted_plan_unchanged(self):
        plans = [plan_construction.__wrapped__(n, t) for n, t in ADMITTED_PLANS]
        assert len(plans) == 4500
        data = json.dumps([plan.to_json_dict() for plan in plans], sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == ADMITTED_PLANS_DIGEST

    def test_plans_build_no_sturm_chain_and_extract_no_trace(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a plan built a Sturm chain or extracted a trace")

        monkeypatch.setattr(roots.SturmChain, "__init__", refuse)
        monkeypatch.setattr(trigpolys, "extract_trace", refuse)
        for n, t in ADMITTED_PLANS:
            plan_construction.__wrapped__(n, t)

    def test_fixed_roots_isolate_the_roots_of_f(self):
        # deg F numerators x over 2^32, F changing sign strictly across [x - 2, x + 2], these
        # intervals disjoint: each holds exactly one root of F
        den = 1 << construct._PROBE_BITS
        for n, t in TABLE_PLANS:
            plan = plan_construction(n, t)
            f = plan.fixed_product.coeffs
            fixed = sorted(plan.fixed_roots)
            assert len(fixed) == plan.fixed_product.degree == t - 2, (n, t)
            assert all(y - x > 4 for x, y in zip(fixed, fixed[1:])), (n, t)
            for x in fixed:
                assert roots._value_at(f, x - 2, den) * roots._value_at(f, x + 2, den) < 0, (n, t, x)


def shifted_fixed_values(plan) -> dict[int, int]:
    """The pre-shifted Horner loop that once made ``fixed_values``, kept as a reference."""
    r, (*low, top) = sorted(plan.fixed_roots), plan.fixed_product.coeffs
    shifted = [c << (construct._PROBE_BITS + 1) * k for k, c in enumerate(reversed(low), 1)]
    values = {}
    for m in map(sum, zip(r, r[1:])):
        acc = top
        for c in shifted:
            acc = acc * m + c
        values[m] = acc
    return values


class TestProductRoots:
    """The hints come from the plan that ``plan_construction`` picks, and from nothing else."""

    def test_fixed_values_match_the_shifted_loop(self):
        for n, t in [(12, 9), (44, 31), (92, 61), (124, 71), (596, 301)]:
            plan = plan_construction(n, t)
            assert plan.fixed_values == shifted_fixed_values(plan) and len(plan.fixed_values) == t - 3, (n, t)

    def test_fixed_roots_made_on_first_use(self):
        plan = plan_construction.__wrapped__(124, 71)  # a plan of its own, not the shared one
        assert "fixed_roots" not in vars(plan)
        assert len(plan.fixed_roots) == 69 and "fixed_roots" in vars(plan)

    def test_fixed_values_made_on_first_use(self, monkeypatch):
        # neither the plan nor its hints make F's values; the first candidate's pattern does
        monkeypatch.setattr(construct, "plan_construction", lru_cache(plan_construction.__wrapped__))
        plan = construct.plan_construction(92, 61)
        assert "fixed_values" not in vars(plan)
        hints = construct.product_roots(plan.construction, 92, 61, 111)
        assert "fixed_values" not in vars(plan)
        assert roots.root_pattern(build_candidate(plan, 111), hints).is_salem(61)
        assert len(vars(plan)["fixed_values"]) == 58

    def test_rejected_keys_are_not_kept(self):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1000):
                assert construct.product_roots("x" * 10_000 + str(i), 44, 31, 29) is None
            for n in range(4, 8004, 8):  # n <= 56 are plans, most others fail t >= (n + 6)/2
                construct.product_roots(QUAD_SHIFT, n, 31, 29)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_plan_cache_is_bounded(self):
        # a kept plan keeps F, its roots and, once a candidate or a replay reads them, F's values at
        # their midpoints, about 0.2 MB at t >= 251.  The cache keeps the last _PLAN_CACHE plans:
        # kept without a bound, F and its roots alone would hold about 3 MB over these 100 plans
        keys = [(n, t) for t in range(251, MAX_T + 1, 2) for n in (4, 12, 28, 36)][:100]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for n, t in keys:
                plan = plan_construction(n, t)
                plan.fixed_product, plan.fixed_roots
            del plan
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plan_construction.cache_info().currsize <= construct._PLAN_CACHE < len(set(keys)) == 100
        assert retained < 2 << 20

    def test_relabelled_certificate_replays_by_the_chain(self, monkeypatch):
        # (124, 71) is a quad-shift-golden plan, so the certificate relabelled quad-shift gets no
        # hints, and its pattern is the chain's
        assert plan_construction(124, 71).construction == QUAD_SHIFT_GOLDEN
        cert = search(124, 71, 158, 158, 1).certificates[0]
        data = cert.to_json_dict()
        data["construction"] = QUAD_SHIFT
        relabelled = SalemCertificate.from_json_dict(data)
        built = []
        init = roots.SturmChain.__init__
        monkeypatch.setattr(roots.SturmChain, "__init__", lambda self, p: built.append(p) or init(self, p))
        assert verify_certificate(relabelled) == []
        assert built == [cert.trace_poly]
        assert verify_certificate(cert) == [] and len(built) == 1

    def test_one_build_per_candidate(self, monkeypatch):
        # the hints check a trace by the kernel alone: search builds each candidate once, and
        # replay builds none
        built = []
        build = construct.build_candidate
        monkeypatch.setattr(construct, "build_candidate", lambda plan, a: built.append(a) or build(plan, a))
        report = search(92, 61, 111, 115, 5)
        assert built == [111, 112, 113, 114, 115] and len(report.certificates) == 5
        built.clear()
        for cert in report.certificates:
            assert verify_certificate(SalemCertificate.from_json_dict(cert.to_json_dict())) == []
        assert built == []


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

    @pytest.mark.parametrize(
        "n, t, construction",
        [(12, 9, QUAD_UNIT), (12, 11, QUAD_SHIFT), (12, 15, QUAD_SHIFT_GOLDEN), (44, 35, QUAD_SHIFT_GOLDEN_MIRROR)],
    )
    def test_shifted_copies_equal_the_product(self, n, t, construction):
        # the a-factor written out here: x^2 - a x + 1 for quad-unit, x^2 - a x + (a - 2) otherwise
        plan = plan_construction(n, t)
        assert plan.construction == construction
        for a in (3, 4, 17, 200, 10**12 + 1):
            a_factor = IntPoly([1 if construction == QUAD_UNIT else a - 2, -a, 1])
            assert build_candidate(plan, a) == plan.fixed_product * a_factor - 1, (n, t, a)


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

    def test_a_span_bound(self):
        # refused before planning or building any candidate
        with pytest.raises(ValueError, match=f"less than {MAX_A_SPAN}"):
            search(12, 9, 3, 3 + MAX_A_SPAN)
        with pytest.raises(ValueError, match="less than"):
            search(20, 15, 3, 10**30)  # 5 | n: planning would raise HypothesisError
        report = search(12, 9, 3, 3 + MAX_A_SPAN - 1, want=1)
        assert [c.a for c in report.certificates] == [3]

    def test_a_bound(self):
        # refused before planning or building any candidate: the span is fine, a itself is not
        with pytest.raises(ValueError, match=f"a_max must be at most {MAX_A}"):
            search(92, 61, 10**50, 10**50 + 3, 1)
        with pytest.raises(ValueError, match="a_max must be at most"):
            search(20, 15, MAX_A - 2, MAX_A + 1)  # 5 | n: planning would raise HypothesisError
        report = search(92, 61, MAX_A, MAX_A, 1)
        assert [c.a for c in report.certificates] == [MAX_A]

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
    """certify_trace rejects most root-pattern failures by a Laguerre point and a prime, with the same report."""

    @pytest.mark.parametrize("n,t", [(12, 9), (28, 23), (36, 25), (44, 31), (44, 35)])
    def test_reports_byte_identical(self, n, t, monkeypatch):
        with_check = search(n, t, want=5).to_json_dict()
        # without the Laguerre step every rejection is the Sturm chain's
        monkeypatch.setattr(roots, "_laguerre_fails", lambda *args: False)
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
        # each refutation the hints give is a Laguerre point and a prime, and the chain's verdict agrees
        plan = plan_construction(44, 31)
        proved = 0
        for a in range(3, 40):
            trace = build_candidate(plan, a)
            _, proof = roots._hinted_pattern(trace, *construct.product_roots(plan.construction, 44, 31, a))
            if proof is None:
                continue
            proved += 1
            (x, q), d1 = proof, trace.derivative()
            assert roots._laguerre_fails(trace.coeffs, d1.coeffs, d1.derivative().coeffs, x.numerator, x.denominator)
            assert q in SEPARABILITY_PRIMES
            with pytest.raises(CertificationError) as err:
                certify_trace(build_candidate(plan, a), 44)  # an external trace: the chain decides
            assert err.value.check == "root_pattern"
        assert proved == 26  # every a below 29

    def test_search_certifies_every_candidate(self, monkeypatch):
        # search makes no decision of its own: each a goes through certify_trace once
        seen = []
        certify = construct.certify_trace

        def counting(trace, n, **kwargs):
            seen.append(kwargs["a"])
            return certify(trace, n, **kwargs)

        monkeypatch.setattr(construct, "certify_trace", counting)
        report = search(92, 61, 3, 110, 5)
        assert seen == list(range(3, 111))
        assert report.failures == tuple((a, "root_pattern") for a in range(3, 111))

    def test_fixed_roots_match_factors(self):
        for n, t in [(4, 7), (12, 9), (28, 23), (36, 25), (44, 31), (44, 35), (92, 61), (124, 71)]:
            plan = plan_construction(n, t)
            fixed = sorted(plan.fixed_roots)
            den = 1 << construct._PROBE_BITS
            product = ONE
            for f in plan.factors:
                product = product * f
            # each approximation is within 2^-bits of a root of the product, and they are distinct
            assert len(set(fixed)) == len(fixed) == product.degree
            for x in fixed:
                assert sturm_count(product, Fraction(x - 1, den), Fraction(x + 1, den)) >= 1
