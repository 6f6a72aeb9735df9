"""Exact polynomial arithmetic: examples, ring laws, and dual-route resultant checks."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemunits.intpoly import (
    ONE,
    ZERO,
    IntPoly,
    gcd_over_rationals,
    is_reciprocal,
    lift_trace,
    pseudo_rem,
    resultant,
    subresultant_prs,
)
from salemunits.salem import MAX_T

polys = st.builds(IntPoly, st.lists(st.integers(-50, 50), max_size=21))
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def fraction_horner(p: IntPoly, x):
    """The Horner loop on Fractions that IntPoly.__call__ once ran, kept as a reference."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def sylvester_resultant(p: IntPoly, q: IntPoly) -> Fraction:
    """Independent oracle: determinant of the Sylvester matrix of (p, q).

    Standard convention: equals lc(p)^deg(q) * prod q(roots of p).
    """
    dp, dq = int(p.degree), int(q.degree)
    if dp == 0:
        return Fraction(p.coeffs[0] ** dq)
    if dq == 0:
        return Fraction(q.coeffs[0] ** dp)
    n = dp + dq
    rows = []
    pc = list(p.coeffs)[::-1]
    qc = list(q.coeffs)[::-1]
    for i in range(dq):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pc] + [Fraction(0)] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qc] + [Fraction(0)] * (n - dq - 1 - i))
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


class TestBasics:
    def test_add_examples(self):
        assert IntPoly([0, 1]) + IntPoly([-2, 0, 1]) == IntPoly([-2, 1, 1])
        p = IntPoly([3, 1, 4])
        assert p + ZERO == p
        assert IntPoly([-1, 1]) + IntPoly([1, -1]) == ZERO

    def test_mul_examples(self):
        assert IntPoly([-1, 0, 1]) * IntPoly([0, -3, 0, 1]) == IntPoly([0, 3, 0, -4, 0, 1])
        p = IntPoly([7, -2, 5])
        assert p * ONE == p
        assert IntPoly([-2, 1]) * IntPoly([2, 1]) == IntPoly([-4, 0, 1])
        assert IntPoly([-2, 1]) ** 3 == IntPoly([-8, 12, -6, 1]) and p**0 == ONE
        with pytest.raises(ValueError, match="negative"):
            p ** -1

    def test_eval_examples(self):
        assert IntPoly([-4, 0, 1])(2) == 0
        assert IntPoly([-1, 1, 1])(Fraction(1, 2)) == Fraction(-1, 4)
        assert ZERO(Fraction(22, 7)) == 0

    @given(
        polys,
        st.one_of(
            st.integers(-(2**70), 2**70),
            st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
            st.sampled_from([0, Fraction(0), Fraction(-7, 1), Fraction(1, 3), Fraction(5, 1 << 33)]),
        ),
    )
    @example(ZERO, 0)
    @example(ZERO, Fraction(22, 7))
    @example(IntPoly([9]), Fraction(1, 2))
    @example(IntPoly([0, 0, 3]), 0)
    @example(IntPoly([1, 0, -5, 0, 0, 7]), Fraction(-3, 8))
    @settings(max_examples=200)
    def test_eval_matches_fraction_horner(self, p, x):
        # an int point gives an int, a Fraction point a Fraction, and the zero polynomial 0
        value, expected = p(x), fraction_horner(p, x)
        assert value == expected and type(value) is type(expected)

    def test_derivative_examples(self):
        assert IntPoly([0, 3, 0, -4, 0, 1]).derivative() == IntPoly([3, 0, -12, 0, 5])
        assert IntPoly([17]).derivative() == ZERO
        assert IntPoly([1, -5, 1]).derivative() == IntPoly([-5, 2])

    def test_canonical_form(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()
        assert ZERO.degree == float("-inf")
        assert IntPoly([5]).degree == 0

    def test_text_roundtrip(self):
        for text in ["0", "1", "3,0,-4,0,1", "-1,1,1"]:
            assert IntPoly.from_text(text).to_text() == text
        assert IntPoly.from_text(" 1 , -3 , 1 ") == IntPoly([1, -3, 1])
        with pytest.raises(ValueError):
            IntPoly.from_text("1,,2")
        with pytest.raises(ValueError):
            IntPoly.from_text("x+1")

    def test_exact_div(self):
        num = IntPoly([-1, 0, 0, 0, 0, 1])
        assert num.exact_div(IntPoly([-1, 1])) == IntPoly([1, 1, 1, 1, 1])
        with pytest.raises(ValueError):
            IntPoly([1, 0, 1]).exact_div(IntPoly([-1, 1]))
        with pytest.raises(ValueError, match="not divisible"):  # the lead 1 is not a multiple of 2
            IntPoly([1, 0, 1]).exact_div(IntPoly([1, 2]))
        with pytest.raises(ZeroDivisionError):
            num.exact_div(ZERO)


class TestRingLaws:
    @given(polys, polys, polys)
    @settings(max_examples=100)
    def test_distributive(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(polys, polys)
    @settings(max_examples=100)
    def test_commutative(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=100)
    def test_degree_law(self, p, q):
        assert (p * q).degree == p.degree + q.degree


class TestResultant:
    def test_examples(self):
        assert resultant(IntPoly([-1, 0, 1]), IntPoly([-2, 1])) == 3
        with pytest.raises(ValueError):
            resultant(ZERO, ONE)
        with pytest.raises(ValueError):
            resultant(ONE, ZERO)

    def test_constant_rule(self):
        # Res(c, q) = c^deg(q) and Res(p, c) = c^deg(p)
        assert resultant(IntPoly([3]), IntPoly([1, 2, 0, 5])) == 27
        assert resultant(IntPoly([1, 2, 0, 5]), IntPoly([3])) == 27
        assert resultant(IntPoly([4]), IntPoly([6])) == 1

    def test_split_polynomial_oracle(self):
        # q a product of known linear factors: resultant(p, q) = lc(q)^deg p * prod p(root)
        import random

        rng = random.Random(7)
        for _ in range(40):
            roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
            scale = rng.choice([1, 1, 2, -3])
            q = IntPoly([scale])
            for r in roots:
                q = q * IntPoly([-r, 1])
            p = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
            if p.is_zero:
                continue
            expected = scale ** int(p.degree)
            for r in roots:
                expected *= p(r)
            assert resultant(p, q) == expected

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_symmetry_sign(self, p, q):
        dp, dq = int(p.degree), int(q.degree)
        assert resultant(p, q) == (-1) ** (dp * dq) * resultant(q, p)

    def test_sylvester_oracle(self):
        import random

        rng = random.Random(11)
        for _ in range(60):
            p = IntPoly([rng.randint(-8, 8) for _ in range(rng.randint(1, 6))])
            q = IntPoly([rng.randint(-8, 8) for _ in range(rng.randint(1, 6))])
            if p.is_zero or q.is_zero:
                continue
            # this package's convention swaps the arguments of the classical matrix form
            assert resultant(p, q) == sylvester_resultant(q, p)

    def test_odd_degree_sign_regression(self):
        # odd x odd degrees with negative leading coefficient: the sign must
        # follow the determinant, lc(q)^5 * p(1/2) = 88^5 * 27/2 > 0
        p = IntPoly([47, -96, 35, 49, 8, -28])
        q = IntPoly([-44, 88])
        assert resultant(p, q) == 71243808768
        assert resultant(p, q) == sylvester_resultant(q, p)
        assert resultant(q, p) == -71243808768


class TestGcd:
    def test_examples(self):
        c12 = IntPoly([0, 3, 0, -4, 0, 1])
        t3 = IntPoly([0, -3, 0, 1])
        assert gcd_over_rationals(c12, t3) == t3
        assert gcd_over_rationals(IntPoly([5, 1, 3]), ONE) == ONE
        t2 = IntPoly([-2, 0, 1])
        assert gcd_over_rationals(t2, c12) == ONE
        with pytest.raises(ValueError):
            gcd_over_rationals(ZERO, ONE)
        # pseudo_rem, which gcds and Sturm chains read: deg a < deg b leaves a, and b = 0 raises
        assert pseudo_rem(t2, c12) == t2 and pseudo_rem(ZERO, t3) == ZERO
        assert pseudo_rem(c12, t2) == IntPoly([0, -1]) and pseudo_rem(c12, IntPoly([2])) == ZERO
        with pytest.raises(ZeroDivisionError):
            pseudo_rem(c12, ZERO)

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60)
    def test_divides_both(self, p, q):
        g = gcd_over_rationals(p, q)
        # exact zero remainder under pseudo-division
        assert pseudo_rem(p, g).is_zero
        assert pseudo_rem(q, g).is_zero

    def test_normalization(self):
        g = gcd_over_rationals(IntPoly([2, -2]) * IntPoly([6, 3]), IntPoly([1, -1]) * IntPoly([-2, 1]))
        assert g.lc > 0 and g.content() == 1


class TestTraceLift:
    def test_examples(self):
        assert lift_trace(IntPoly([-3, 1]), 1) == IntPoly([1, -3, 1])
        assert lift_trace(IntPoly([-2, 0, 1]), 2) == IntPoly([1, 0, 0, 0, 1])
        with pytest.raises(ValueError):
            lift_trace(IntPoly([-3, 1]), 2)

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=10))
    @settings(max_examples=80)
    def test_reciprocal_and_degree(self, lower):
        tr = IntPoly(lower + [1])
        t = int(tr.degree)
        s = lift_trace(tr, t)
        assert is_reciprocal(s)
        assert s.degree == 2 * t
        assert s.coeffs[::-1] == s.coeffs

    @given(st.integers(0, MAX_T), st.sampled_from([1, 8, 64, 600]), st.booleans(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_binomial_formula(self, t, bits, extreme, seed):
        # extreme: every coefficient +-2^bits of one sign, the largest slots the packed Horner meets
        rng = random.Random(seed)
        sign = rng.choice([1, -1])
        coeffs = [sign << bits] * (t + 1) if extreme else [rng.randint(-(2**bits), 2**bits) for _ in range(t)] + [1]
        tr = IntPoly(coeffs)
        # c x^(t - j) (x^2 + 1)^j puts c C(j, i) at degree t - j + 2i
        out = [0] * (2 * t + 1)
        for j, c in enumerate(tr.coeffs):
            for i in range(j + 1):
                out[t - j + 2 * i] += c * math.comb(j, i)
        assert lift_trace(tr, t) == IntPoly(out)

    def test_evaluation_identity(self):
        import random

        rng = random.Random(3)
        for _ in range(10):
            t = rng.randint(1, 8)
            tr = IntPoly([rng.randint(-9, 9) for _ in range(t)] + [1])
            s = lift_trace(tr, t)
            c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert s(c) == c**t * tr(c + 1 / c)

    def test_is_reciprocal(self):
        assert is_reciprocal(IntPoly([1, -3, 1]))
        assert not is_reciprocal(IntPoly([-2, 1]))
        assert is_reciprocal(ONE)


_x = sympy.Symbol("x")


def _sympy_poly(p: IntPoly) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), _x, domain="ZZ")


def _sympy_resultant(p: IntPoly, q: IntPoly) -> int:
    """resultant(p, q) in this package's convention, that is the classical Res(q, p), from sympy.

    sympy.resultant(f, g) has the wrong sign for some deg f < deg g (seen with
    sympy 1.14: it gives -9 for x - 2 and x^3 + 1), so the larger degree goes first.
    """
    dp, dq = int(p.degree), int(q.degree)
    if dq >= dp:
        return int(sympy.resultant(_sympy_poly(q), _sympy_poly(p)))
    return (-1) ** (dp * dq) * int(sympy.resultant(_sympy_poly(p), _sympy_poly(q)))


def _gapped_pair(rng: random.Random) -> tuple[IntPoly, IntPoly]:
    """(a, b) with a = q b + r and 1 <= deg r <= deg b - 2, times random contents.

    The second step of their PRS divides b by r, a step with delta >= 2 after
    a normal one; the contents make both inputs non-primitive.
    """
    m = rng.randint(3, 9)
    b = IntPoly([rng.randint(-9, 9) for _ in range(m)] + [rng.choice([1, -1, 2, -3])])
    r = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, m - 2))] + [rng.choice([1, -2, 3])])
    q = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.choice([1, -1, 2])])
    a = q * b + r
    return a * rng.choice([1, 2, -6, 15]), b * rng.choice([1, -1, 4, 9])


class TestSubresultantKernel:
    """resultant and gcd_over_rationals, which read the one PRS kernel, against sympy."""

    def test_pairs_with_a_gap(self):
        rng = random.Random(23)
        gapped = 0
        for _ in range(60):
            a, b = _gapped_pair(rng)
            deltas = [step[1] for step in subresultant_prs(a.primitive().coeffs, b.primitive().coeffs)]
            gapped += any(d >= 2 for d in deltas[1:])
            assert resultant(a, b) == _sympy_resultant(a, b)
            assert resultant(b, a) == _sympy_resultant(b, a)
            self._check_gcd(a * b.primitive(), b * IntPoly([rng.randint(-4, 4), 1]))
            self._check_gcd(a, b)
        assert gapped >= 30

    def test_sparse_and_common_factor_pairs(self):
        # x^k + c against its derivative, and pairs sharing a factor, with contents
        rng = random.Random(29)
        for _ in range(40):
            k = rng.randint(3, 12)
            f = IntPoly([rng.randint(-9, 9), rng.randint(-3, 3)] + [0] * (k - 2) + [1])
            common = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.choice([1, 2])])
            for a, b in ((f * 6, f.derivative()), (f * common * 4, f.derivative() * common * -10)):
                assert resultant(a, b) == _sympy_resultant(a, b)
                assert resultant(b, a) == _sympy_resultant(b, a)
                self._check_gcd(a, b)

    def test_delta_two_step(self):
        # x^4 + 1 and x^2 - 2 start with delta = 2; the kernel's result is prem / 1
        steps = list(subresultant_prs((1, 0, 0, 0, 1), (-2, 0, 1)))
        assert [(r, delta) for r, delta, _, _ in steps] == [([5], 2)]

    @staticmethod
    def _check_gcd(a: IntPoly, b: IntPoly) -> None:
        expected = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
        _, expected = expected.primitive()
        if expected.LC() < 0:
            expected = -expected
        assert gcd_over_rationals(a, b) == IntPoly(reversed(expected.all_coeffs()))
