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

from salemunits import construct, roots
from salemunits.construct import build_candidate, interlacing_points, plan_construction, search
from salemunits.intpoly import IntPoly, pseudo_rem
from salemunits.roots import (
    IsolatingInterval,
    RootPattern,
    SturmChain,
    cauchy_bound,
    is_separable,
    isolate_roots,
    laguerre_fails,
    refine,
    root_pattern,
    sturm_count,
    sturm_count_open,
)
from salemunits.salem import CertificationError, SalemCertificate, alpha_from_beta, certify_trace, verify_certificate
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
        assert ivs[0].hi <= ivs[1].lo or ivs[0].exact_root is not None
        for iv in ivs:
            assert sturm_count(p, iv.lo - Fraction(1, 1000), iv.hi) == 1

    def test_cyclo12_exact_roots(self):
        ivs = isolate_roots(cyclo_trace(12), -2, 2)
        assert len(ivs) == 5
        exact = [iv.exact_root for iv in ivs if iv.exact_root is not None]
        assert exact == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_cheb6_unit_interval(self):
        ivs = isolate_roots(cheb(6), 0, 1)
        # r_6 = 1; the root 2cos(5 pi/12) = 0.5176... is irrational
        assert len(ivs) == 1 and ivs[0].exact_root is None

    def test_counts_and_disjointness(self):
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
                assert a.hi <= c.lo or (a.exact_root is not None and a.exact_root <= c.lo)
            chain = SturmChain(p)
            for iv in ivs:
                if iv.exact_root is None:
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
        assert out.exact_root == 2

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


def _bisection_refine(iv: IsolatingInterval, p: IntPoly, width) -> IsolatingInterval:
    """The plain bisection that quadratic refinement replaced, kept as an oracle."""
    width = Fraction(width)
    if iv.exact_root is not None:
        return iv
    chain = SturmChain(p)
    f, lo, hi = IntPoly(chain.squarefree), iv.lo, iv.hi
    if f(hi) == 0:
        return IsolatingInterval(hi, hi, exact_root=hi)
    while f(lo) * f(hi) >= 0:
        mid = (lo + hi) / 2
        if f(mid) == 0:
            return IsolatingInterval(mid, mid, exact_root=mid)
        if chain.count(lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = f(mid)
        if fmid == 0:
            return IsolatingInterval(mid, mid, exact_root=mid)
        if fmid * f(hi) < 0:
            lo = mid
        else:
            hi = mid
    return IsolatingInterval(lo, hi)


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
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection(self, rational_roots, low, digits, num, den):
        # rational roots r/q with dyadic and non-dyadic q, times a random monic factor
        p = IntPoly(low + [1])
        for r, q in rational_roots:
            p = p * IntPoly([-r, q])
        assume(p.degree >= 1 and is_separable(p))
        width = Fraction(num, den * 10**digits)
        bound = cauchy_bound(p) + 1
        for iv in isolate_roots(p, -bound, bound):
            assert refine(iv, p, width) == _bisection_refine(iv, p, width)

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
            assert refine(iv, p, width) == _bisection_refine(iv, p, width)

    def test_benchmark_betas(self):
        for (n, t, a), digits in (((12, 9, 3), 60), ((44, 31, 29), 40), ((92, 61, 111), 34)):
            p = build_candidate(plan_construction(n, t), a)
            iv = isolate_roots(p, 2, cauchy_bound(p) + 1)[0]
            width = Fraction(1, 10 ** (digits + 4))
            assert refine(iv, p, width) == _bisection_refine(iv, p, width)

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


class TestRootPattern:
    def test_boundary_roots(self):
        rp = root_pattern(IntPoly([-4, 0, 1]))
        assert rp.at_neg2 == 1 and rp.at_pos2 == 1
        assert rp.below_neg2 == rp.in_neg2_2 == rp.above_pos2 == 0

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


class TestLaguerre:
    def test_fires_off_the_real_line(self):
        assert laguerre_fails(IntPoly([1, 0, 1]), 0)  # x^2 + 1
        # (x^2 - 4)(x^2 - 1) - 10 has a negative local maximum at 0
        assert laguerre_fails(IntPoly([-4, 0, 1]) * IntPoly([-1, 0, 1]) - 10, 0)
        assert not laguerre_fails(IntPoly([-4, 0, 1]) * IntPoly([-1, 0, 1]) - 1, 0)

    def test_low_degree_never_fires(self):
        for p in (IntPoly(), IntPoly([5]), IntPoly([3, -7])):
            assert not laguerre_fails(p, Fraction(1, 3))

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
    """Each polynomial object builds one Sturm chain, and certification needs no gcd."""

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
        candidate = build_candidate(plan, 5)
        counts.clear()
        with pytest.raises(CertificationError) as err:
            certify_trace(candidate, 44, construction=plan.construction, a=5)
        assert err.value.check == "root_pattern"
        assert counts == {"chains": 1}

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
        # the benchmark's certify calls: search and replay need no chain.  Planning (124, 71)
        # cross-checks its parity counts by Sturm chains, so the plans are made first, as in
        # the benchmark's setup, and search is handed them
        calls = [(92, 61, a) for a in range(111, 116)] + [(124, 71, a) for a in range(158, 161)]
        plans = {(n, t): plan_construction(n, t) for n, t, _ in calls}

        def no_chain(self, p):
            raise AssertionError("a Sturm chain was built")

        monkeypatch.setattr(construct, "plan_construction", lambda n, t: plans[n, t])
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
        p, q = build_candidate(plan, 5), build_candidate(plan, 5)
        assert p == q and p is not q
        counts.clear()
        assert root_pattern(p) == root_pattern(p)
        assert counts == {"chains": 1}
        assert root_pattern(q) == root_pattern(p)
        assert counts == {"chains": 2}

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
        constructions, missed, proved = set(), set(), 0
        for n, t, a_range in self.PLANS:
            plan = plan_construction(n, t)
            constructions.add(plan.construction)
            for a in a_range:
                trace = build_candidate(plan, a)
                points = interlacing_points(plan.construction, n, t, a)
                assert points is not None and len(points[0]) == t + 1
                by_points = roots._interlacing_pattern(trace.coeffs, *points)
                by_chain = root_pattern(trace)
                if by_points is not None:
                    assert by_points == by_chain, (n, t, a)
                    proved += 1
                elif by_chain.is_salem(t):
                    missed.add((n, t, a))
        assert missed == self.MISSED
        assert proved == 264 and len(constructions) == 4

    def test_root_pattern_reads_points_first(self):
        plan = plan_construction(44, 31)
        trace = build_candidate(plan, 29)
        pattern = root_pattern(trace, interlacing_points(plan.construction, 44, 31, 29))
        assert pattern.is_salem(31) and "_sturm_chain" not in trace.__dict__
        # points that prove nothing leave the decision to the chain
        rejected = build_candidate(plan, 5)
        assert root_pattern(rejected, interlacing_points(plan.construction, 44, 31, 5)) == root_pattern(
            build_candidate(plan, 5)
        )
        assert "_sturm_chain" in rejected.__dict__

    @pytest.mark.parametrize(
        "construction, n, t, a",
        [
            ("linear", 44, 31, 29),
            ("external", 44, 31, 29),
            ("no-such", 44, 31, 29),
            ("quad-unit", 44, 31, 29),  # l = 3 is odd: not a quad-unit plan
            ("quad-shift", 44, 31, None),
            ("quad-shift", 44, 31, 2),
            ("quad-shift", 40, 31, 29),  # 5 | n
            ("quad-shift", 42, 31, 29),  # n = 2 mod 8
            ("quad-shift", 44, 30, 29),  # t even
            ("quad-shift", 64, 31, 29),  # 2t < n + 6
            ("quad-shift", -4, 31, 29),
        ],
    )
    def test_no_points_outside_the_plans(self, construction, n, t, a):
        assert interlacing_points(construction, n, t, a) is None

    @given(
        st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 5)), min_size=1, max_size=9),
        st.sampled_from([-3, -1, 1, 2]),
        st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=64), max_size=12),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_sound_for_any_points(self, factors, scale, extra, separating):
        # products of linear factors (d x - c), repeated roots allowed; the points either
        # separate the distinct roots or are arbitrary, and a proof must match the chain
        p = IntPoly([scale])
        for c, d in factors:
            p = p * IntPoly([-c, d])
        xs = list(extra)
        if separating:
            rs = sorted({Fraction(c, d) for c, d in factors})
            xs += [rs[0] - 1, rs[-1] + 1] + [(x + y) / 2 for x, y in zip(rs, rs[1:])]
        den = math.lcm(*(x.denominator for x in xs)) if xs else 1
        nums = [x.numerator * (den // x.denominator) for x in xs]
        pattern = roots._interlacing_pattern(p.coeffs, nums, den)
        if pattern is not None:
            assert pattern == root_pattern(p)
        points = set(xs) | {Fraction(m) for m in (-2, 0, 1, 2)}
        roots_p = {Fraction(c, d) for c, d in factors}
        if separating and len(roots_p) == len(factors) and not roots_p & points:
            assert pattern == root_pattern(p)  # simple roots off the points, each in its own gap
