"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every expected value here is either exact (polynomial identities, gcd laws,
resultants) or was frozen from an independent oracle run (minimal working a
values, decimal digits); floating tolerances appear only in the cross-oracle
criterion, as stated.
"""

import math
import random
import time

import numpy as np
import pytest
import sympy

from salemunits.construct import (
    QUAD_SHIFT,
    QUAD_SHIFT_GOLDEN,
    QUAD_SHIFT_GOLDEN_MIRROR,
    QUAD_UNIT,
    HypothesisError,
    build_linear_family,
    plan_construction,
    search,
)
from salemunits.intpoly import ONE, IntPoly, gcd_over_rationals, is_reciprocal, lift_trace
from salemunits.roots import root_pattern, sturm_count_open
from salemunits.salem import (
    CertificationError,
    certify_min_poly,
    certify_trace,
    unit_check,
)
from salemunits.trigpolys import cheb, cheb_roots_in_unit_interval, cyclo_trace


_x = sympy.Symbol("x")


def _report(label: str) -> None:
    print(f"ACCEPTANCE {label}: PASS")


def _replay(cert, n: int, expected_s_degree: int) -> None:
    """Independent replay of one certificate, recomputing every claim."""
    t = cert.t
    s = lift_trace(cert.trace_poly, t)
    assert s == cert.min_poly and int(s.degree) == expected_s_degree
    assert is_reciprocal(s)
    # sympy's factorizer, independent of the package's own decision
    expr = sum(c * _x**i for i, c in enumerate(cert.trace_poly.coeffs))
    assert sympy.Poly(expr, _x).is_irreducible
    pattern = root_pattern(cert.trace_poly)
    assert pattern.above_pos2 == 1
    assert pattern.in_neg2_2 == t - 1
    assert pattern.at_neg2 == pattern.at_pos2 == pattern.below_neg2 == 0
    assert sturm_count_open(cert.trace_poly, cert.a - 1, cert.a) == 1
    assert abs(unit_check(s, n)) == 1
    assert unit_check(s, n) == cert.resultant_value


def test_criterion_1_identity_suite():
    start = time.monotonic()
    for k in range(1, 65):
        assert cyclo_trace(4 * k) == cheb(k) * cyclo_trace(2 * k), k
    for k in range(1, 33):
        assert cyclo_trace(8 * k) == cheb(2 * k) * cyclo_trace(4 * k), k
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"identity suite took {elapsed:.1f}s"
    _report("1 identity-suite")


def test_criterion_2_gcd_laws():
    start = time.monotonic()
    for n in range(3, 49):
        for m in range(3, 49):
            coprime = gcd_over_rationals(cyclo_trace(n), cyclo_trace(m)).degree == 0
            assert coprime == (math.gcd(n, m) in (1, 2)), (n, m)
    for k in range(1, 41):
        for n in range(3, 41):
            if n % 4 == 0:
                continue
            assert gcd_over_rationals(cheb(k), cyclo_trace(n)) == ONE, (k, n)
    for n in range(4, 61, 8):
        for k in range(1, 31):
            assert gcd_over_rationals(cheb(2 * k), cyclo_trace(n)) == ONE, (k, n)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gcd laws took {elapsed:.1f}s"
    _report("2 gcd-laws")


def test_criterion_3_root_count_formula():
    start = time.monotonic()
    for k in range(1, 201):
        assert cheb_roots_in_unit_interval(k) == sturm_count_open(cheb(k), 0, 1), k
    for k in range(1, 51):
        assert (cheb_roots_in_unit_interval(4 * k) % 2 == 0) == (k % 3 == 0), k
        assert (cheb_roots_in_unit_interval(2 + 4 * k) % 2 == 1) == (k % 3 == 1), k
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"root-count formula took {elapsed:.1f}s"
    _report("3 root-count-formula")


def test_criterion_4_dispatcher_table():
    expected = {
        (12, 9): (QUAD_UNIT, 0),
        (12, 11): (QUAD_SHIFT, 0),
        (12, 15): (QUAD_SHIFT_GOLDEN, 1),
        (44, 35): (QUAD_SHIFT_GOLDEN_MIRROR, 2),
    }
    for (n, t), (construction, k) in expected.items():
        plan = plan_construction(n, t)
        assert (plan.construction, plan.k) == (construction, k), (n, t)
    rejections = {(20, 15): "n_mod_5", (12, 10): "t_parity", (8, 9): "n_mod_8"}
    for (n, t), violation in rejections.items():
        with pytest.raises(HypothesisError) as err:
            plan_construction(n, t)
        assert err.value.violation == violation, (n, t)
    _report("4 dispatcher-table")


def test_criterion_5_end_to_end_smallest_case():
    start = time.monotonic()
    report = search(12, 9, 3, 200, 5)
    assert len(report.certificates) >= 5
    for cert in report.certificates:
        _replay(cert, 12, expected_s_degree=18)
        assert cert.root_pattern.in_neg2_2 == 8
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"end-to-end witness took {elapsed:.1f}s"
    _report("5 end-to-end-degree-18")


def test_criterion_6_higher_degree_witnesses():
    start = time.monotonic()
    cases = [(12, 11, QUAD_SHIFT, 22), (12, 15, QUAD_SHIFT_GOLDEN, 30), (44, 35, QUAD_SHIFT_GOLDEN_MIRROR, 70)]
    for n, t, construction, s_degree in cases:
        report = search(n, t, 3, 500, 1)
        assert report.plan.construction == construction
        assert len(report.certificates) >= 1, (n, t)
        _replay(report.certificates[0], n, expected_s_degree=s_degree)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"higher-degree witnesses took {elapsed:.1f}s"
    _report("6 higher-degree-witnesses")


def test_criterion_7_linear_family_regression():
    certs = []
    for a in range(3, 101):
        candidate = build_linear_family(2, 3, ONE, a)
        try:
            cert = certify_trace(candidate, 2, construction="linear", a=a)
        except CertificationError:
            continue
        certs.append(cert)
        if len(certs) >= 5:
            break
    assert len(certs) >= 5
    for cert in certs:
        assert int(cert.min_poly.degree) == 6
        assert abs(unit_check(cert.min_poly, 2)) == 1
    _report("7 linear-family-degree-6")


def test_criterion_8_floating_cross_oracle():
    sampled = list(search(12, 9, 3, 200, 2).certificates) + list(search(12, 11, 3, 200, 1).certificates)
    assert len(sampled) == 3
    for cert in sampled:
        roots = np.roots(list(cert.min_poly.coeffs)[::-1])
        on_circle = sum(1 for z in roots if abs(abs(z) - 1) < 1e-8)
        assert on_circle == 2 * cert.t - 2
        alpha_hat = max(z.real for z in roots if abs(z.imag) < 1e-9)
        assert alpha_hat > 1
        alpha_true = float(cert.alpha_decimal)
        assert abs(alpha_hat - alpha_true) < 1e-10
        smallest = min(roots, key=abs)
        assert abs(smallest - 1 / alpha_hat) < 1e-8
    _report("8 floating-cross-oracle")


def test_criterion_9_negative_controls():
    with pytest.raises(CertificationError) as err:
        certify_min_poly(IntPoly([1, -3, 1]), 2)
    assert err.value.check == "resultant"
    assert err.value.data["value"] == -5

    base = list(search(12, 9, 3, 200, 1).certificates[0].trace_poly.coeffs)
    rng = random.Random(2718)
    rejected = 0
    for _ in range(100):
        corrupt = base.copy()
        corrupt[rng.randrange(len(corrupt))] += rng.choice([-1, 1])
        try:
            certify_trace(IntPoly(corrupt), 12)
        except CertificationError:
            rejected += 1
    assert rejected == 100
    _report("9 negative-controls")
