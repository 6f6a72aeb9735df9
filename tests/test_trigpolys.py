"""Generators and identities: recurrence values, trace extraction, root counts."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemunits.construct import build_candidate, plan_construction
from salemunits.intpoly import ONE, IntPoly, gcd_over_rationals, lift_trace
from salemunits.roots import sturm_count_open
from salemunits.roots import _value_at
from salemunits.salem import MAX_T
from salemunits.trigpolys import (
    cheb,
    cheb_roots_dyadic,
    cheb_roots_in_unit_interval,
    cyclo_trace,
    cyclo_trace_roots_dyadic,
    cyclo_trace_roots_in_unit_interval,
    extract_trace,
)


class TestCheb:
    def test_small_values(self):
        assert cheb(1) == IntPoly([0, 1])
        assert cheb(2) == IntPoly([-2, 0, 1])
        assert cheb(3) == IntPoly([0, -3, 0, 1])
        assert cheb(6) == IntPoly([-2, 0, 9, 0, -6, 0, 1])
        assert cheb(0) == ONE

    def test_monic_degree(self):
        for k in range(1, 30):
            p = cheb(k)
            assert p.is_monic and p.degree == k

    def test_defining_property_on_floats(self):
        # cheb(k)(2cos u) = 2cos(k u), checked numerically as a test-only oracle
        for k in range(1, 12):
            for j in range(1, 8):
                u = 0.3 + 0.31 * j
                val = sum(c * (2 * math.cos(u)) ** i for i, c in enumerate(cheb(k).coeffs))
                assert abs(val - 2 * math.cos(k * u)) < 1e-8

    def test_index_error(self):
        with pytest.raises(ValueError):
            cheb(-1)

    def test_matches_recurrence(self):
        # the coefficient formula gives the polynomials of p_{k+2} = x p_{k+1} - p_k
        seq = [ONE, IntPoly([0, 1]), IntPoly([-2, 0, 1])]
        while len(seq) <= 300:
            seq.append(IntPoly([0, 1]) * seq[-1] - seq[-2])
        for k, p in enumerate(seq):
            assert cheb(k).coeffs == p.coeffs, k

    def test_large_index(self):
        # deep indices once overflowed the recursion limit of a recursive build
        p = cheb(3000)
        assert p.is_monic and p.degree == 3000 and p.coeffs[-3] == -3000
        assert p.coeffs[0] == 2 and p.coeffs[2] == -(3000**2) // 4  # 2cos(3000 u), u near pi/2


# every n a plan reaches: n = 4 mod 8, 5 not dividing n, n <= 2 * MAX_T - 6
PLAN_NS = [n for n in range(4, 597, 8) if n % 5]


def _geometric_sum(n: int) -> IntPoly:
    """(x^n - 1)/(x - 1) for odd n, (x^n - 1)/(x^2 - 1) for even n, whose trace is cyclo_trace(n)."""
    if n % 2:
        return IntPoly([1] * n)
    return IntPoly([c for _ in range(n // 2) for c in (1, 0)][:-1])


class TestCycloTrace:
    def test_small_values(self):
        assert cyclo_trace(1) == ONE
        assert cyclo_trace(2) == ONE
        assert cyclo_trace(4) == IntPoly([0, 1])
        assert cyclo_trace(5) == IntPoly([-1, 1, 1])
        assert cyclo_trace(12) == IntPoly([0, 3, 0, -4, 0, 1])

    def test_degrees(self):
        for n in range(3, 40):
            expected = (n - 1) // 2 if n % 2 else (n - 2) // 2
            assert cyclo_trace(n).degree == expected
            assert cyclo_trace(n).is_monic
        # the closed form against the trace of the geometric sum, at every n a plan reaches
        for n in sorted(set(range(1, 301)) | set(PLAN_NS)):
            assert cyclo_trace(n) == extract_trace(_geometric_sum(n)), n

    def test_roots_are_cosines(self):
        # floating oracle: the roots are exactly {2cos(2j pi/n)}
        for n in (7, 12, 18, 25):
            p = cyclo_trace(n)
            top = (n - 1) // 2 if n % 2 else (n - 2) // 2
            for j in range(1, top + 1):
                x = 2 * math.cos(2 * math.pi * j / n)
                val = sum(c * x**i for i, c in enumerate(p.coeffs))
                assert abs(val) < 1e-7, (n, j)

    def test_index_error(self):
        with pytest.raises(ValueError):
            cyclo_trace(0)


def _sign_change_around(p: IntPoly, num: int, bits: int) -> bool:
    """p changes sign strictly across [x - 2^-(bits-2), x + 2^-(bits-2)], x = num / 2^bits."""
    den = 1 << bits
    return _value_at(p.coeffs, num - 4, den) * _value_at(p.coeffs, num + 4, den) < 0


class TestDyadicRoots:
    @pytest.mark.parametrize("bits", [16, 32, 48])
    def test_cheb(self, bits):
        for k in range(0, 61):
            approx = cheb_roots_dyadic(k, bits)
            assert len(approx) == k and approx == sorted(approx, reverse=True)
            assert all(_sign_change_around(cheb(k), x, bits) for x in approx), k

    @pytest.mark.parametrize("bits", [16, 32, 48])
    def test_cyclo_trace(self, bits):
        for n in range(1, 131):
            approx = cyclo_trace_roots_dyadic(n, bits)
            assert len(approx) == max(int(cyclo_trace(n).degree), 0)
            assert approx == sorted(approx, reverse=True)
            assert all(_sign_change_around(cyclo_trace(n), x, bits) for x in approx), n

    def test_against_cosines(self):
        # floating oracle: within 2^-bits of the closed form, for an index past the exact check
        bits = 40
        for j, x in enumerate(cheb_roots_dyadic(500, bits)):
            assert abs(x / 2**bits - 2 * math.cos((2 * j + 1) * math.pi / 1000)) < 2e-12
        for j, x in enumerate(cyclo_trace_roots_dyadic(1001, bits), start=1):
            assert abs(x / 2**bits - 2 * math.cos(2 * j * math.pi / 1001)) < 2e-12

    def test_index_errors(self):
        with pytest.raises(ValueError):
            cheb_roots_dyadic(-1, 32)
        with pytest.raises(ValueError):
            cyclo_trace_roots_dyadic(0, 32)


def _extract_by_elimination(p: IntPoly) -> IntPoly:
    """The trace of palindromic p of degree 2m by descending elimination in the basis
    {x^(m-j) (x^2+1)^j}: the O(m^2) binomial loop that Clenshaw's sum replaced, kept as an oracle."""
    m = int(p.degree) // 2
    rem = list(p.coeffs) + [0]
    out = [0] * (m + 1)
    for j in range(m, -1, -1):
        c = rem[m + j]
        out[j] = c
        if c:
            for i in range(j + 1):
                rem[m - j + 2 * i] -= c * math.comb(j, i)
    assert not any(rem), "not in the trace-lift span"
    return IntPoly(out)


class TestExtractTrace:
    def test_examples(self):
        assert extract_trace(IntPoly([1, 0, 1])) == IntPoly([0, 1])
        assert extract_trace(IntPoly([1, 0, 0, 0, 1])) == IntPoly([-2, 0, 1])
        assert extract_trace(IntPoly([-7])) == IntPoly([-7])

    # degrees up to MAX_T, coefficients past the 218 bits of the constructed traces at t = 301
    @given(st.lists(st.integers(-(2**220), 2**220), max_size=MAX_T), st.integers(-(2**220), 2**220).filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, lower, lead):
        tr = IntPoly(lower + [lead])
        p = lift_trace(tr, int(tr.degree))
        assert extract_trace(p) == _extract_by_elimination(p) == tr

    @pytest.mark.parametrize("n, t, a", [(12, 9, 3), (92, 61, 111), (596, 301, 85)])
    def test_benchmark_lifts(self, n, t, a):
        tr = build_candidate(plan_construction(n, t), a)
        p = lift_trace(tr, t)
        assert extract_trace(p) == _extract_by_elimination(p) == tr

    def test_errors(self):
        with pytest.raises(ValueError):
            extract_trace(IntPoly([1, 2, 3, 1]))  # odd degree
        with pytest.raises(ValueError):
            extract_trace(IntPoly([2, 0, 1]))  # even degree, not reciprocal


# the count of cheb(k)'s roots on (0, 1) is (k - e)/6, e the member of this table congruent
# to k mod 6: the table that k//2 - (2k//3 + 1)//2 replaced, kept as an oracle
_EPSILON_BY_K_MOD_6 = {0: 0, 1: 1, 2: 2, 3: 3, 4: -2, 5: 5}


class TestUnitIntervalCounts:
    def test_closed_form_examples(self):
        assert cheb_roots_in_unit_interval(4) == 1
        assert cheb_roots_in_unit_interval(5) == 0
        assert cheb_roots_in_unit_interval(6) == 1
        assert cheb_roots_in_unit_interval(0) == 0
        for k in (-1, -6):
            with pytest.raises(ValueError):
                cheb_roots_in_unit_interval(k)

    def test_against_table(self):
        for k in range(10**4):
            eps = _EPSILON_BY_K_MOD_6[k % 6]
            assert (k - eps) % 6 == 0 and cheb_roots_in_unit_interval(k) == (k - eps) // 6, k

    def test_parity_corollaries(self):
        for k in range(1, 40):
            assert (cheb_roots_in_unit_interval(4 * k) % 2 == 0) == (k % 3 == 0)
            assert (cheb_roots_in_unit_interval(2 + 4 * k) % 2 == 1) == (k % 3 == 1)

    def test_against_sturm(self):
        # every degree a plan's parity evidence counts: 4k and 2 + 4k for k <= (MAX_T - 5) // 4
        plan_degrees = {d for k in range(75) for d in (4 * k, 2 + 4 * k)}
        for k in sorted(set(range(1, 80)) | plan_degrees):
            assert cheb_roots_in_unit_interval(k) == sturm_count_open(cheb(k), 0, 1), k

    def test_cyclo_counts(self):
        assert cyclo_trace_roots_in_unit_interval(12) == 0
        assert cyclo_trace_roots_in_unit_interval(28) == 2
        assert cyclo_trace_roots_in_unit_interval(44) == 3
        for n in sorted(set(range(3, 301)) | set(PLAN_NS)):
            assert cyclo_trace_roots_in_unit_interval(n) == sturm_count_open(cyclo_trace(n), 0, 1), n
        for n in (2, 0, -4):
            with pytest.raises(ValueError):
                cyclo_trace_roots_in_unit_interval(n)


class TestIdentities:
    def test_product_identity(self):
        for k in range(1, 25):
            assert cyclo_trace(4 * k) == cheb(k) * cyclo_trace(2 * k)
            assert cyclo_trace(8 * k) == cheb(2 * k) * cyclo_trace(4 * k)

    def test_coprimality_iff(self):
        for n in range(3, 25):
            for m in range(3, 25):
                coprime = gcd_over_rationals(cyclo_trace(n), cyclo_trace(m)).degree == 0
                assert coprime == (math.gcd(n, m) in (1, 2)), (n, m)

    def test_cheb_cyclo_coprime(self):
        for k in range(1, 15):
            for n in range(3, 15):
                if n % 4 != 0:
                    assert gcd_over_rationals(cheb(k), cyclo_trace(n)) == ONE

    def test_even_cheb_coprime_mod8(self):
        for n in (4, 12, 20, 28):
            for k in range(1, 12):
                assert gcd_over_rationals(cheb(2 * k), cyclo_trace(n)) == ONE

    def test_function_parities(self):
        for k in range(1, 20):
            p = cheb(k)
            mirrored = IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])
            assert mirrored == (p if k % 2 == 0 else -p)
        for n in range(4, 33, 4):
            p = cyclo_trace(n)
            mirrored = IntPoly([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])
            assert mirrored == -p
            assert p(0) == 0

    def test_negative_root_shape(self):
        for n in range(4, 33, 4):
            assert sturm_count_open(cyclo_trace(n), -2, 0) == n // 4 - 1
