"""Sturm counting, isolation and refinement against examples and a floating oracle."""

import dataclasses
import gc
import json
import math
import random
import signal
import sys
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from salemunits import roots
from salemunits.construct import build_candidate, plan_construction, product_roots, search
from salemunits.factor import SEPARABILITY_PRIMES
from salemunits.intpoly import IntPoly, lift_trace, pseudo_rem
from salemunits.roots import (
    IsolatingInterval,
    RootPattern,
    SturmChain,
    cauchy_bound,
    is_separable,
    isolate_roots,
    refine,
    root_pattern,
    sturm_count,
    sturm_count_open,
)
from salemunits.salem import (
    MAX_A,
    CertificationError,
    SalemCertificate,
    alpha_from_beta,
    certify_trace,
    verify_certificate,
)
from salemunits.trigpolys import cheb, cyclo_trace


class TestSturmCount:
    def test_examples(self):
        assert sturm_count(IntPoly([-4, 0, 1]), -3, 3) == 2
        assert sturm_count_open(cyclo_trace(12), 0, 1) == 0
        assert sturm_count_open(cheb(4), 0, 1) == 1

    def test_half_open_convention(self):
        p = IntPoly([-4, 0, 1])  # roots -2, 2
        assert sturm_count(p, -2, 2) == 1  # -2 excluded, 2 included
        assert sturm_count(p, -3, 2) == 2
        assert sturm_count(p, 2, 3) == 0
        assert sturm_count_open(p, -3, 2) == 1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(IntPoly(), 0, 1)

    def test_nonsquarefree_counts_distinct(self):
        p = IntPoly([-1, 1]) ** 3 * IntPoly([-2, 1])
        assert sturm_count(p, 0, 3) == 2

    def test_companion_matrix_oracle(self):
        # 100 random separable polynomials, degree <= 12; near-boundary
        # disagreements resolve in favor of the exact count
        rng = random.Random(2024)
        checked = 0
        while checked < 100:
            deg = rng.randint(2, 12)
            p = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, -1, 2])])
            if p.degree < 2 or not is_separable(p):
                continue
            roots = np.roots(list(p.coeffs)[::-1])
            real = [z.real for z in roots if abs(z.imag) < 1e-9]
            lo, hi = Fraction(-3), Fraction(2)
            if any(abs(r - float(lo)) < 1e-6 or abs(r - float(hi)) < 1e-6 for r in real):
                continue  # boundary too close for the float oracle; Sturm is authoritative
            expected = sum(1 for r in real if float(lo) < r <= float(hi))
            assert sturm_count(p, lo, hi) == expected, p
            checked += 1


class TestSeparable:
    def test_examples(self):
        assert is_separable(IntPoly([-4, 0, 1]))
        assert not is_separable(IntPoly([1, -2, 1]))
        # product of pairwise-coprime separable factors stays separable
        p = cyclo_trace(12) * IntPoly([-4, 0, 1]) * IntPoly([1, -5, 1])
        assert is_separable(p)


class TestIsolate:
    def test_sqrt2(self):
        p = IntPoly([-2, 0, 1])
        ivs = isolate_roots(p, -3, 3)
        assert len(ivs) == 2
        assert ivs[0].hi <= ivs[1].lo
        for iv in ivs:
            assert sturm_count(p, iv.lo - Fraction(1, 1000), iv.hi) == 1

    def test_cyclo12_exact_roots(self):
        ivs = isolate_roots(cyclo_trace(12), -2, 2)
        assert len(ivs) == 5
        exact = [iv.lo for iv in ivs if iv.lo == iv.hi]
        assert exact == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_cheb6_unit_interval(self):
        ivs = isolate_roots(cheb(6), 0, 1)
        # r_6 = 1; the root 2cos(5 pi/12) = 0.5176... is irrational
        assert len(ivs) == 1 and ivs[0].lo < ivs[0].hi

    def test_counts_and_disjointness(self):
        # a constant has no root, and its bound is 1
        assert cauchy_bound(IntPoly([-7])) == cauchy_bound(IntPoly()) == 1
        rng = random.Random(5)
        for _ in range(25):
            deg = rng.randint(2, 9)
            p = IntPoly([rng.randint(-8, 8) for _ in range(deg)] + [1])
            if not is_separable(p):
                continue
            b = cauchy_bound(p) + 1
            ivs = isolate_roots(p, -b, b)
            assert len(ivs) == sturm_count(p, -b, b)
            for a, c in zip(ivs, ivs[1:]):
                assert a.hi <= c.lo
            chain = SturmChain(p)
            for iv in ivs:
                if iv.lo < iv.hi:
                    assert chain.count(iv.lo, iv.hi) == 1

    def test_nonseparable_rejected(self):
        with pytest.raises(ValueError):
            isolate_roots(IntPoly([1, -2, 1]), -3, 3)


class TestRefine:
    def test_golden_trace_root(self):
        p = IntPoly([1, -3, 1])
        iv = isolate_roots(p, 2, 4)[0]
        out = refine(iv, p, Fraction(1, 10**10))
        assert out.width <= Fraction(1, 10**10)
        # (3 + sqrt(5))/2 = 2.6180339887...
        assert out.lo < Fraction("2.6180339888") and out.hi > Fraction("2.6180339887")

    def test_monotone_and_sign_preserving(self):
        p = IntPoly([-2, 0, 1])
        iv = isolate_roots(p, 0, 2)[0]
        prev = iv
        for digits in (2, 6, 12):
            cur = refine(prev, p, Fraction(1, 10**digits))
            assert cur.width <= prev.width
            assert cur.lo >= prev.lo and cur.hi <= prev.hi
            assert p(cur.lo) * p(cur.hi) < 0
            prev = cur

    def test_exact_root_detected(self):
        p = IntPoly([-4, 0, 1])
        iv = IsolatingInterval(Fraction(0), Fraction(4))
        out = refine(iv, p, Fraction(1, 100))
        assert out.lo == out.hi == 2
        assert refine(out, p, Fraction(1, 100)) == out

    def test_nonpositive_width_rejected(self):
        p = IntPoly([-2, 0, 1])
        iv = isolate_roots(p, 0, 2)[0]
        for width in (0, -1):
            with pytest.raises(ValueError):
                refine(iv, p, width)


def _alarm(signum, frame):
    raise TimeoutError("no answer within the time limit")


class TestRefineWithoutRoot:
    """An interval that does not isolate one root raises instead of bisecting forever."""

    @pytest.fixture(autouse=True)
    def time_limit(self):
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(10)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_no_root(self):
        # (x - 3)(x^2 - 1): 0 at 3, no root in (3, 4]
        p = IntPoly([-3, 1]) * IntPoly([-1, 0, 1])
        iv = IsolatingInterval(Fraction(3), Fraction(4))
        with pytest.raises(ValueError):
            refine(iv, p, Fraction(1, 10**5))
        with pytest.raises(ValueError):
            alpha_from_beta(iv, 30, p)
        with pytest.raises(ValueError):  # a point that is not a root
            refine(IsolatingInterval(Fraction(4), Fraction(4)), p, Fraction(1, 10**5))

    def test_two_roots_without_sign_change(self):
        p = IntPoly([-5, 1]) * IntPoly([-7, 1])
        with pytest.raises(ValueError):
            refine(IsolatingInterval(Fraction(4), Fraction(8)), p, Fraction(1, 10**5))

    def test_double_root_refined_on_squarefree_part(self):
        # (x^2 - 2)^2 (x - 3) keeps its sign across sqrt(2); its squarefree part changes sign there
        p = IntPoly([-2, 0, 1]) ** 2 * IntPoly([-3, 1])
        out = refine(IsolatingInterval(Fraction(1), Fraction(2)), p, Fraction(1, 10**6))
        assert out.width <= Fraction(1, 10**6) and out.lo < Fraction("1.4142136") and out.hi > Fraction("1.4142135")

    def test_one_root_without_sign_change_still_refined(self):
        # x (x^2 - 2)(x - 3): the root at lo = 0 is outside (0, 2]; sqrt(2) is found
        p = IntPoly([0, 1]) * IntPoly([-2, 0, 1]) * IntPoly([-3, 1])
        out = refine(IsolatingInterval(Fraction(0), Fraction(2)), p, Fraction(1, 10**6))
        assert out.width <= Fraction(1, 10**6) and out.lo < Fraction("1.4142136") and out.hi > Fraction("1.4142135")
        # the root is hi itself, with p 0 there: x^2 - 4 on (0, 2]; or the first midpoint of
        # the Sturm bisection: x (x - 2) on (0, 4], 0 at lo
        two = IsolatingInterval(Fraction(2), Fraction(2))
        assert refine(IsolatingInterval(Fraction(0), Fraction(2)), IntPoly([-4, 0, 1]), Fraction(1, 10**6)) == two
        assert refine(IsolatingInterval(Fraction(0), Fraction(4)), IntPoly([0, -2, 1]), Fraction(1, 10**6)) == two


def _bisection_refine(iv: IsolatingInterval, p: IntPoly, width) -> IsolatingInterval:
    """The plain bisection that quadratic refinement replaced, kept as an oracle."""
    width = Fraction(width)
    if iv.lo == iv.hi:
        return iv
    chain = SturmChain(p)
    f, lo, hi = IntPoly(chain.squarefree), iv.lo, iv.hi
    if f(hi) == 0:
        return IsolatingInterval(hi, hi)
    while f(lo) * f(hi) >= 0:
        mid = (lo + hi) / 2
        if f(mid) == 0:
            return IsolatingInterval(mid, mid)
        if chain.count(lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return IsolatingInterval(mid, mid)
        if fmid * f(hi) < 0:
            lo = mid
        else:
            hi = mid
    return IsolatingInterval(lo, hi)


def _bisection_cell(iv: IsolatingInterval, p: IntPoly, width, out: IsolatingInterval) -> bool:
    """out is where bisection of iv, which holds one root of p, ends: a cell of the first
    level of iv's halving grid at most width wide, with a strict sign change of p."""
    w, m = iv.hi - iv.lo, 0
    while w / 2**m > width:
        m += 1
    j = (out.lo - iv.lo) * 2**m / w
    return j.denominator == 1 and out.hi - out.lo == w / 2**m and p(out.lo) * p(out.hi) < 0


def _counting(fn, calls: Counter):
    def wrapper(*args):
        calls[fn.__name__] += 1
        return fn(*args)

    return wrapper


class TestQuadraticRefinement:
    """Quadratic interval refinement returns exactly the interval bisection returns."""

    @given(
        st.lists(st.tuples(st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 5, 8, 12, 64, 1024])), max_size=3),
        st.lists(st.integers(-9, 9), max_size=4),
        st.integers(0, 40),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(0, 80),
        st.integers(-2, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection(self, rational_roots, low, digits, num, den, bits, offset):
        # rational roots r/q with dyadic and non-dyadic q, times a random monic factor; the hint is
        # the root rounded to bits binary places and moved by offset units, so it falls in the
        # cell that holds the root, in a neighbour, past both, or on an end
        p = IntPoly(low + [1])
        for r, q in rational_roots:
            p = p * IntPoly([-r, q])
        assume(p.degree >= 1 and is_separable(p))
        width = Fraction(num, den * 10**digits)
        bound = cauchy_bound(p) + 1
        for iv in isolate_roots(p, -bound, bound):
            out = _bisection_refine(iv, p, width)
            near = Fraction(math.floor((out.lo + out.hi) / 2 * 2**bits) + offset, 2**bits)
            assert refine(iv, p, width) == refine(iv, p, width, near) == out

    def test_roots_on_deep_grid_points(self):
        # one real root lo + j (hi - lo) / 2^k, k up to 130, inside a non-dyadic
        # interval; the cofactor (x^2 + c) q^2 + 1 has no real root and bends the
        # polynomial so that the secant often misses
        rng = random.Random(7)
        for _ in range(100):
            lo = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            w = Fraction(rng.randint(1, 40), rng.randint(1, 30))
            k = rng.randint(1, 130)
            root = lo + rng.randrange(1, 2**k) * w / 2**k
            q = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(0, 4))] + [1])
            cofactor = IntPoly([rng.randint(1, 5), 0, 1]) * q * q + 1
            p = IntPoly([-root.numerator, root.denominator]) * cofactor
            iv = IsolatingInterval(lo, lo + w)
            width = w / 2 ** rng.randint(max(0, k - 3), k + 5)
            out = _bisection_refine(iv, p, width)
            assert refine(iv, p, width) == out
            # a hint on the root, on the grid or below it, and one a unit of its denominator off
            for near in (root, root + Fraction(1, root.denominator), root - Fraction(1, root.denominator)):
                assert refine(iv, p, width, near) == out
        # the secant misses (2x - 1)((x + 1)^4 + 1) on (0, 1), and the bisection after the miss
        # lands on the root
        p, iv = IntPoly([-1, 2]) * (IntPoly([1, 1]) ** 4 + 1), IsolatingInterval(Fraction(0), Fraction(1))
        half = IsolatingInterval(Fraction(1, 2), Fraction(1, 2))
        assert refine(iv, p, Fraction(1, 16)) == _bisection_refine(iv, p, Fraction(1, 16)) == half

    def test_benchmark_betas(self):
        # beta from (2, B], as certify_trace refines it, with and without the hint it passes: P's
        # large root; bisection takes 20-30 s at (124, 71) and 304 digits and at (596, 301), so
        # there the result is checked against the one cell bisection ends on
        for (n, t, a), digits in (
            ((12, 9, 3), 60),
            ((44, 31, 29), 40),
            ((92, 61, 111), 34),
            ((124, 71, 158), 34),
            ((124, 71, 158), 304),
            ((596, 301, 85), 34),
            ((596, 301, 85), 304),
        ):
            plan = plan_construction(n, t)
            p = build_candidate(plan, a)
            nums, den, _ = product_roots(plan.construction, n, t, a)
            iv = IsolatingInterval(Fraction(2), cauchy_bound(p) + 1)
            width = Fraction(1, 10 ** (digits + 4))
            out = refine(iv, p, width)
            assert refine(iv, p, width, Fraction(nums[-1], den)) == out
            if t < 100 and digits < 100:
                assert out == _bisection_refine(iv, p, width)
            assert _bisection_cell(iv, p, width, out)

    def test_forged_hints(self):
        # a hint only picks where the walk starts: a wrong one gives the interval no hint gives
        p = build_candidate(plan_construction(92, 61), 111)
        bound = cauchy_bound(p) + 1
        iv, width = IsolatingInterval(Fraction(2), bound), Fraction(1, 10**38)
        out = refine(iv, p, width)
        deep = refine(iv, p, Fraction(1, 10**700))
        for near in (
            Fraction(1),  # below lo
            bound + 1,  # past hi
            bound,  # on hi
            Fraction(2),  # on lo
            Fraction(50),  # a cell, and neighbours, that hold no root
            Fraction(50 * 2**32 + 1, 2**32),
            Fraction(111),
            (deep.lo + deep.hi) / 2,  # a denominator past 2^2300: the start is the last level
        ):
            assert refine(iv, p, width, near) == out
        assert out == _bisection_refine(iv, p, width)

    def test_sign_evaluation_count(self, monkeypatch):
        # every exact evaluation, signs for Sturm counts included, goes through
        # _value_at; bisection takes 6,687 here
        p = build_candidate(plan_construction(12, 9), 3)
        iv = isolate_roots(p, 2, cauchy_bound(p) + 1)[0]
        calls = Counter()
        monkeypatch.setattr(roots, "_value_at", _counting(roots._value_at, calls))
        out = refine(iv, p, Fraction(1, 10**1004))
        assert out.width <= Fraction(1, 10**1004) and p(out.lo) * p(out.hi) < 0
        assert 0 < calls["_value_at"] <= 300

    def test_hinted_evaluation_count(self, monkeypatch):
        # (92, 61) a = 111 at 34 digits: the walk from (2, B] evaluates p 40 times, each end once;
        # from the cell of P's large root, 2^-32 close to beta, at most 14 times
        plan = plan_construction(92, 61)
        p = build_candidate(plan, 111)
        nums, den, _ = product_roots(plan.construction, 92, 61, 111)
        iv = IsolatingInterval(Fraction(2), cauchy_bound(p) + 1)
        calls = Counter()
        monkeypatch.setattr(roots, "_value_at", _counting(roots._value_at, calls))
        counts = []
        for near in (None, Fraction(nums[-1], den)):
            calls.clear()
            refine(iv, p, Fraction(1, 10**38), near)
            counts.append(calls["_value_at"])
        assert counts[0] <= 40 and 0 < counts[1] <= 14


class TestValueAt:
    """_value_at is den^deg p(num/den): by shifts for den = 2^s, by powers of den otherwise."""

    @given(
        st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=14),
        st.one_of(st.sampled_from([0, 1, -1, -2, 2]), st.integers(-(2**90), 2**90)),
        st.one_of(st.integers(0, 70).map(lambda s: 1 << s), st.integers(3, 10**9).filter(lambda d: d & (d - 1))),
    )
    @example([7], 0, 1)  # a constant
    @example([-5], -3, 1 << 70)
    @example([4, 0, -1], 1, 1)
    @example([4, 0, -1], -1, 1 << 33)
    @example([4, 0, -1, 0, 0], 0, 6)  # zero top coefficients keep their power of den
    @example([1, -3, 0, 2], 1, 12)
    @example([3, 1, 4, 1, 5, 9], -7, 3**40)
    @example([2, -1, 0, 5], -(2**39) + 1, 1 << 39)
    @example([], 3, 7)  # the zero polynomial: its sign is 0, and _value_at is not called
    @settings(max_examples=300, deadline=None)
    def test_homogenized_value(self, coeffs, num, den):
        value = sum(c * Fraction(num, den) ** i for i, c in enumerate(coeffs))
        assert roots._sign_at(tuple(coeffs), Fraction(num, den)) == (value > 0) - (value < 0)
        if coeffs:
            assert roots._value_at(tuple(coeffs), num, den) == den ** (len(coeffs) - 1) * value


class TestRootPattern:
    def test_boundary_roots(self):
        rp = root_pattern(IntPoly([-4, 0, 1]))
        assert rp.at_neg2 == 1 and rp.at_pos2 == 1
        assert rp.below_neg2 == rp.in_neg2_2 == rp.above_pos2 == 0
        for hints in (None, ([0], 1)):
            with pytest.raises(ValueError, match="zero polynomial"):
                root_pattern(IntPoly(), hints)

    def test_certified_trace_shape(self):
        # degree-9 candidate: one root above 2, the rest inside (-2, 2)
        r = cyclo_trace(12) * IntPoly([-4, 0, 1]) * IntPoly([1, -5, 1]) - 1
        rp = root_pattern(r)
        assert rp.above_pos2 == 1
        assert rp.in_neg2_2 == 8
        assert rp.at_neg2 == rp.at_pos2 == rp.below_neg2 == 0
        assert rp.separable

    def test_unit_interval_field(self):
        assert root_pattern(cyclo_trace(28)).in_0_1 == 2


def laguerre_fails(p: IntPoly, x) -> bool:
    """roots._laguerre_fails for p, of degree >= 2, at the rational x, with the derivatives it takes."""
    x, d1 = Fraction(x), p.derivative()
    return roots._laguerre_fails(p.coeffs, d1.coeffs, d1.derivative().coeffs, x.numerator, x.denominator)


class TestLaguerre:
    def test_fires_off_the_real_line(self):
        assert laguerre_fails(IntPoly([1, 0, 1]), 0)  # x^2 + 1
        # (x^2 - 4)(x^2 - 1) - 10 has a negative local maximum at 0
        assert laguerre_fails(IntPoly([-4, 0, 1]) * IntPoly([-1, 0, 1]) - 10, 0)
        assert not laguerre_fails(IntPoly([-4, 0, 1]) * IntPoly([-1, 0, 1]) - 1, 0)

    @given(
        st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 6)), min_size=2, max_size=9),
        st.integers(-5, 5),
        st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=1000), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_fires_on_real_rooted(self, factors, scale, points):
        # products of linear factors (d x - c), repeated roots allowed, times a nonzero integer
        assume(scale != 0)
        p = IntPoly([scale])
        for c, d in factors:
            p = p * IntPoly([-c, d])
        for x in points + [Fraction(c, d) for c, d in factors]:
            assert not laguerre_fails(p, x)


class TestChainSharing:
    """Each query builds at most one Sturm chain, and certification needs no gcd."""

    @pytest.fixture(scope="class")
    def plan(self):
        return plan_construction(44, 31)

    @pytest.fixture
    def counts(self, monkeypatch):
        """Counts of Sturm chains built and rational gcds taken; a test clears it once its inputs exist."""
        counts = Counter()
        init = SturmChain.__init__

        def counting_init(self, p):
            counts["chains"] += 1
            init(self, p)

        monkeypatch.setattr(SturmChain, "__init__", counting_init)
        gcd = sys.modules["salemunits.intpoly"].gcd_over_rationals

        def counting_gcd(p, q):
            counts["gcds"] += 1
            return gcd(p, q)

        for name, module in list(sys.modules.items()):
            if name.startswith("salemunits") and getattr(module, "gcd_over_rationals", None) is gcd:
                monkeypatch.setattr(module, "gcd_over_rationals", counting_gcd)
        return counts

    def test_rejected_candidate(self, plan, counts):
        # refuted by a Laguerre point and a prime, inside root_pattern
        candidate = build_candidate(plan, 5)
        counts.clear()
        with pytest.raises(CertificationError) as err:
            certify_trace(candidate, 44, construction=plan.construction, a=5)
        assert err.value.check == "root_pattern"
        assert not counts

    @pytest.mark.parametrize("n,t,a_values", [(44, 31, range(3, 29)), (92, 61, range(3, 110, 2))])
    def test_sweep_rejections_build_no_chain(self, n, t, a_values, counts):
        # every root-pattern rejection of the benchmark's sweep
        plan = plan_construction(n, t)
        for a in a_values:
            candidate = build_candidate(plan, a)
            counts.clear()
            with pytest.raises(CertificationError) as err:
                certify_trace(candidate, n, construction=plan.construction, a=a)
            assert err.value.check == "root_pattern" and err.value.data == {}, a
            assert not counts, a

    def test_swapped_trace_fails_replay_without_chain(self, plan, counts):
        # a certificate for a = 29 carrying the trace and lift of a = 5: the hints refute its pattern
        cert = certify_trace(build_candidate(plan, 29), 44, construction=plan.construction, a=29)
        trace = build_candidate(plan, 5)
        forged = dataclasses.replace(cert, trace_poly=trace, min_poly=lift_trace(trace, 31))
        counts.clear()
        failures = verify_certificate(forged)
        assert "root_pattern" in failures and "lift" not in failures
        assert not counts

    def test_certified_candidate(self, plan, counts):
        # the pattern is proved by interlacing sign changes, and beta refined from (2, B]
        candidate = build_candidate(plan, 29)
        counts.clear()
        cert = certify_trace(candidate, 44, construction=plan.construction, a=29)
        assert cert.root_pattern.above_pos2 == 1
        assert not counts

    def test_replay_of_decoded_certificate(self, plan, counts):
        cert = certify_trace(build_candidate(plan, 29), 44, construction=plan.construction, a=29)
        data = json.dumps(cert.to_json_dict())
        counts.clear()
        assert verify_certificate(SalemCertificate.from_json_dict(json.loads(data))) == []
        assert not counts

    def test_certify_workload_builds_no_chain(self, monkeypatch):
        # the benchmark's certify calls: planning, search and replay need no chain
        calls = [(92, 61, a) for a in range(111, 116)] + [(124, 71, a) for a in range(158, 161)]
        plan_construction.cache_clear()

        def no_chain(self, p):
            raise AssertionError("a Sturm chain was built")

        monkeypatch.setattr(SturmChain, "__init__", no_chain)
        for n, t, a in calls:
            report = search(n, t, a, a, 1)
            assert [c.a for c in report.certificates] == [a]
            data = json.dumps(report.to_json_dict())
            for entry in json.loads(data)["certificates"]:
                assert verify_certificate(SalemCertificate.from_json_dict(entry)) == []

    def test_refine_with_sign_change_builds_no_chain(self, counts):
        p = IntPoly([-2, 0, 1]) * IntPoly([-3, 1])
        counts.clear()
        iv = refine(IsolatingInterval(Fraction(1), Fraction(2)), p, Fraction(1, 10**20))
        assert iv.lo < Fraction("1.41421356237309504880168872") < iv.hi
        assert not counts
        # without a strict sign change the chain decides
        refine(IsolatingInterval(Fraction(0), Fraction(2)), p * IntPoly([0, 1]), Fraction(1, 10**6))
        assert counts == {"chains": 1}

    def test_equal_polynomial_builds_its_own_chain(self, plan, counts):
        # nothing is kept on a polynomial: each query on p or an equal q builds its own chain
        p, q = build_candidate(plan, 5), build_candidate(plan, 5)
        assert p == q and p is not q
        counts.clear()
        assert root_pattern(p) == root_pattern(p)
        assert counts == {"chains": 2}
        assert root_pattern(q) == root_pattern(p)
        assert counts == {"chains": 4}
        assert not [name for name in vars(p) if "chain" in name]

    def test_external_trace_builds_one_chain_each(self, plan, counts):
        # no construction to prove the pattern from: one chain certifies, one replays
        candidate = build_candidate(plan, 29)
        counts.clear()
        cert = certify_trace(candidate, 44)
        assert counts == {"chains": 1}
        counts.clear()
        assert verify_certificate(SalemCertificate.from_json_dict(cert.to_json_dict())) == []
        assert counts == {"chains": 1}

    def test_polynomial_freed_without_cycle_collector(self, plan):
        p = build_candidate(plan, 5)
        ref = weakref.ref(p)
        gc.disable()
        try:
            root_pattern(p)
            del p
            assert ref() is None
        finally:
            gc.enable()

    def test_nonseparable_rejected_at_separability(self):
        x = IntPoly([0, 1])
        t = (x - 2) ** 2 * (x + 1) * (x - 5) ** 3 * IntPoly([-1, -1, 1])
        with pytest.raises(CertificationError) as err:
            certify_trace(t, 12)
        assert err.value.check == "separability"
        expected = RootPattern(0, 0, 3, 1, 1, 0, False)  # as before chains were shared
        assert root_pattern(t) == expected
        squarefree = (x - 2) * (x + 1) * (x - 5) * IntPoly([-1, -1, 1])
        assert root_pattern(squarefree) == dataclasses.replace(expected, separable=True)


def _reference_sturm_chain(p: IntPoly) -> tuple[list[IntPoly], bool]:
    """The primitive-part Sturm chain that the subresultant chain replaced, kept as a reference.

    Returns the chain of the squarefree part and whether p is separable.
    """

    def sequence(f: IntPoly) -> list[IntPoly]:
        chain = [f]
        d = f.derivative()
        if not d.is_zero:
            chain.append(d.primitive())
        while len(chain) >= 2 and chain[-1].degree > 0:
            a, b = chain[-2], chain[-1]
            r = pseudo_rem(a, b)
            if r.is_zero:
                break
            nxt = r if b.lc < 0 and (a.degree - b.degree) % 2 == 0 else -r
            chain.append(nxt.primitive())
        return chain

    chain = sequence(p.primitive())
    separable = chain[-1].degree == 0
    if not separable:
        g = chain[-1]
        chain = sequence(chain[0].exact_div(-g if g.lc < 0 else g))
    return chain, separable


def _reference_variations(chain: list[IntPoly], x: Fraction) -> int:
    signs = [v > 0 for v in (c(x) for c in chain) if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@st.composite
def _chain_inputs(draw) -> IntPoly:
    """Polynomials of degree 1..30: dense, sparse, non-squarefree, with either sign of lc."""
    lead = draw(st.integers(-4, 4).filter(bool))
    shape = draw(st.sampled_from(("dense", "sparse", "power")))
    if shape == "dense":
        return IntPoly(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=30)) + [lead])
    if shape == "sparse":
        # lead x^d + low terms of degree < d/2: the first remainder drops far
        # below deg f' - 1, so the next step has delta >= 2
        d = draw(st.integers(2, 30))
        low = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=(d + 1) // 2))
        return IntPoly(low + [0] * (d - len(low)) + [lead])
    # a product with repeated factors
    q = IntPoly(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4)) + [lead])
    r = IntPoly(draw(st.lists(st.integers(-5, 5), max_size=6)) + [1])
    p = q ** draw(st.integers(2, 4)) * r
    assume(p.degree <= 30)
    return p


class TestSubresultantChain:
    """The subresultant Sturm chain against the primitive-part chain it replaced."""

    @given(_chain_inputs(), st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=40), max_size=5))
    @example(IntPoly([1, 0, 0, 0, 1]), [])
    @example(IntPoly([1, 1, 0, 0, 0, 1]), [Fraction(-3, 4)])
    @example(-(IntPoly([-1, 1]) ** 3) * IntPoly([2, 0, 1]), [Fraction(1)])
    @settings(max_examples=300, deadline=None)
    def test_matches_primitive_chain(self, p, points):
        assume(p.degree >= 1)
        chain = SturmChain(p)
        reference, separable = _reference_sturm_chain(p)
        # each element a positive rational multiple of the reference element:
        # the reference is primitive, and primitive() keeps the sign
        assert [IntPoly(c).primitive() for c in chain.chain] == reference
        assert chain.separable == separable
        for x in [Fraction(m) for m in (-2, 0, 1, 2)] + points:
            assert chain.variations(x) == _reference_variations(reference, x)
        bound = cauchy_bound(p) + 1
        assert chain.variations_at_infinity(1) == _reference_variations(reference, bound)
        assert chain.variations_at_infinity(-1) == _reference_variations(reference, -bound)

    def test_sparse_chain_has_a_gap(self):
        # x^5 + x + 1: rem(f, f') has degree 1, so the next step has delta = 3
        p = IntPoly([1, 1, 0, 0, 0, 1])
        assert [len(c) - 1 for c in SturmChain(p).chain] == [5, 4, 1, 0]
        assert [c.degree for c in _reference_sturm_chain(p)[0]] == [5, 4, 1, 0]


def _real_roots(pattern: RootPattern) -> int:
    """The distinct real roots a pattern counts."""
    return pattern.below_neg2 + pattern.at_neg2 + pattern.in_neg2_2 + pattern.at_pos2 + pattern.above_pos2


def _over_one_denominator(xs: list[Fraction]) -> tuple[list[int], int]:
    """Hints (numerators, denominator) for the rationals xs."""
    den = math.lcm(*(x.denominator for x in xs)) if xs else 1
    return [x.numerator * (den // x.denominator) for x in xs], den


def _pattern_runs(runs: list[tuple[int, int, int]]) -> list[dict]:
    """Expand runs of (count, in_neg2_2, in_0_1); every other field is the same on these plans."""
    out = []
    for count, inside, in01 in runs:
        row = dict(below_neg2=0, at_neg2=0, in_neg2_2=inside, at_pos2=0, above_pos2=1, in_0_1=in01, separable=True)
        out += [row] * count
    return out


class TestRootPatternGuard:
    """root_pattern on the benchmark plans, pinned to values recorded with the primitive-part chain."""

    EXPECTED = {
        (44, 31, 40): _pattern_runs([(1, 22, 4), (1, 24, 4), (3, 22, 2), (5, 24, 2), (7, 26, 4), (9, 28, 6), (12, 30, 6)]),
        (92, 61, 115): _pattern_runs(
            [(1, 44, 8), (1, 50, 8), (7, 50, 6), (91, 52, 8), (1, 54, 8), (5, 56, 8), (2, 58, 8), (5, 60, 10)]
        ),
    }

    def test_patterns_and_integer_marks(self, monkeypatch):
        value_at = roots._value_at
        points = []

        def recording(coeffs, num, den):
            points.append((num, den))
            return value_at(coeffs, num, den)

        monkeypatch.setattr(roots, "_value_at", recording)
        for (n, t, a_max), expected in self.EXPECTED.items():
            plan = plan_construction(n, t)
            candidates = [build_candidate(plan, a) for a in range(3, a_max + 1)]
            points.clear()
            got = [root_pattern(p).to_json_dict() for p in candidates]
            assert [list(d.items()) for d in got] == [list(d.items()) for d in expected]
            # only integer marks: no evaluation at the Cauchy bound
            assert points and all(den == 1 and abs(num) <= 2 for num, den in points)


class TestInterlacingPattern:
    """The root pattern proved by interlacing sign changes agrees with the Sturm chain."""

    # (n, t, a range); (44, 35) is the golden-mirror plan, whose first Salem candidate is a = 117
    PLANS = [
        (12, 9, range(3, 71)),
        (28, 23, range(3, 71)),
        (36, 25, range(3, 71)),
        (44, 31, range(3, 71)),
        (52, 31, range(3, 71)),
        (44, 35, range(3, 131)),
        (92, 61, range(3, 116)),
        (124, 71, range(150, 161)),
    ]
    # Salem candidates whose midpoints miss an arch of P that peaks above 1 off its midpoint
    MISSED = {(28, 23, 32)}

    def test_agrees_with_chain(self):
        # a proved pattern is the chain's, and a refuted one is separable and not real-rooted
        constructions, missed, proved, refuted = set(), set(), 0, 0
        for n, t, a_range in self.PLANS:
            plan = plan_construction(n, t)
            constructions.add(plan.construction)
            for a in a_range:
                trace = build_candidate(plan, a)
                hints = product_roots(plan.construction, n, t, a)
                assert hints is not None and len(hints[0]) == t
                by_hints, refutation = roots._hinted_pattern(trace, *hints)
                by_chain = root_pattern(trace)
                if by_hints is not None:
                    assert by_hints == by_chain, (n, t, a)
                    proved += 1
                elif refutation is not None:
                    assert by_chain.separable and _real_roots(by_chain) < t, (n, t, a)
                    refuted += 1
                elif by_chain.is_salem(t):
                    missed.add((n, t, a))
        assert missed == self.MISSED
        assert proved == 264 and len(constructions) == 4
        assert refuted > 0

    def test_plan_values_agree_with_horner(self):
        # every value the plan gives is Horner's, and the pattern, or the refutation (x, q), is the same
        cases = [
            (12, 9, range(3, 201)),
            (28, 23, range(3, 201)),
            (44, 31, range(3, 201)),
            (92, 61, range(3, 141)),
            (124, 71, range(158, 161)),
        ]
        decided = 0
        for n, t, a_range in cases:
            plan = plan_construction(n, t)
            for a in a_range:
                trace = build_candidate(plan, a)
                nums, den, known = product_roots(plan.construction, n, t, a)
                at = known(trace)
                assert len(plan.fixed_values) == t - 3 and at(1) is None
                assert all(at(m) == roots._value_at(trace.coeffs, m, 2 * den) for m in plan.fixed_values), (n, t, a)
                by_plan = roots._hinted_pattern(trace, nums, den, known)
                assert by_plan == roots._hinted_pattern(trace, nums, den), (n, t, a)
                decided += by_plan != (None, None)
        assert decided > 700

    def test_root_pattern_reads_points_first(self, monkeypatch):
        plan = plan_construction(44, 31)
        trace, rejected = build_candidate(plan, 29), build_candidate(plan, 5)
        built = []
        init = SturmChain.__init__
        monkeypatch.setattr(SturmChain, "__init__", lambda self, p: built.append(p) or init(self, p))
        pattern = root_pattern(trace, product_roots(plan.construction, 44, 31, 29))
        assert pattern.is_salem(31) and built == []
        nums, den, _ = product_roots(plan.construction, 44, 31, 5)
        assert root_pattern(rejected, (nums, den)) is None and built == []
        # hints that decide nothing, here one too few, leave the decision to the chain
        by_hints = root_pattern(rejected, (nums[1:], den))
        assert built == [rejected]
        assert by_hints == root_pattern(rejected)

    @pytest.mark.parametrize(
        "construction, n, t, a",
        [
            ("linear", 44, 31, 29),
            ("external", 44, 31, 29),
            ("no-such", 44, 31, 29),
            ("quad-unit", 44, 31, 29),  # l = 3 is odd: not a quad-unit plan
            ("quad-shift", 124, 71, 158),  # a quad-shift-golden plan, of the same parity of l
            ("quad-shift", 44, 31, None),
            ("quad-shift", 44, 31, 2),
            ("quad-shift", 44, 31, MAX_A + 1),  # no search makes it: it replays by the chain
            ("quad-shift", 40, 31, 29),  # 5 | n
            ("quad-shift", 42, 31, 29),  # n = 2 mod 8
            ("quad-shift", 44, 30, 29),  # t even
            ("quad-shift", 64, 31, 29),  # 2t < n + 6
            ("quad-shift", -4, 31, 29),
        ],
    )
    def test_no_points_outside_the_plans(self, construction, n, t, a):
        assert product_roots(construction, n, t, a) is None

    @given(
        st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 5)), min_size=1, max_size=9),
        st.sampled_from([-3, -1, 1, 2]),
        st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=64), max_size=12),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sound_for_any_points(self, factors, scale, extra, separating):
        # products of linear factors (d x - c), repeated roots allowed; the hints are either
        # p's own roots, whose midpoints separate them, or arbitrary, and a proof must match the chain
        p = IntPoly([scale])
        for c, d in factors:
            p = p * IntPoly([-c, d])
        hints = sorted(Fraction(c, d) for c, d in factors) if separating else extra[: len(factors)]
        pattern, refutation = roots._hinted_pattern(p, *_over_one_denominator(hints))
        assert refutation is None  # p is real-rooted
        if pattern is not None:
            assert pattern == root_pattern(p)
        roots_p = set(hints)
        if separating and len(roots_p) == len(factors) and not roots_p & {Fraction(m) for m in (-2, 0, 1, 2)}:
            assert pattern == root_pattern(p)  # simple roots off the points, each in its own gap

    @given(
        st.lists(st.integers(-3, 3), min_size=2, max_size=8),
        st.sampled_from([1, 1, 1, -1, 2]),
        st.integers(-1, 3),
        st.one_of(st.none(), st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=16), max_size=9)),
    )
    @example([-1, 0, 1], 1, 1, None)  # x^3 - x - 1: its arch peaks below 1, refuted
    @example([-1, 0, 1], 2, 1, None)  # non-monic: no refutation, the hints still decide or defer
    @example([1, 1, -1, 2], 1, 0, None)  # a repeated root
    @settings(max_examples=300, deadline=None)
    def test_hinted_decision_is_sound(self, zeros, lc, shift, other):
        # p = lc P - shift for P = prod (x - z); the hints are P's roots or arbitrary
        p = IntPoly([lc])
        for z in zeros:
            p = p * IntPoly([-z, 1])
        p = p - shift
        t = int(p.degree)
        hints = _over_one_denominator([Fraction(z) for z in zeros] if other is None else other[: len(zeros)])
        pattern, refutation = roots._hinted_pattern(p, *hints)
        by_chain = root_pattern(p)
        if pattern is not None:
            assert refutation is None and pattern == by_chain
        if refutation is not None:
            x, q = refutation
            assert p.is_monic and laguerre_fails(p, x) and q in SEPARABILITY_PRIMES
            assert by_chain.separable and _real_roots(by_chain) < t
        assert root_pattern(p, hints) == (None if refutation is not None else by_chain)
