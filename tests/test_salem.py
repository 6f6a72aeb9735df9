"""Certification checks, rejection order, alpha computation, and certificate replay."""

import math
import random
import signal
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salemunits import factor, intpoly, roots, salem
from salemunits.construct import build_candidate, plan_construction, search
from salemunits.factor import IrreducibilityWitness
from salemunits.intpoly import IntPoly, lift_trace, resultant
from salemunits.roots import IsolatingInterval, cauchy_bound, isolate_roots, refine, root_pattern
from salemunits.salem import (
    MAX_N,
    MAX_PRECISION,
    MAX_T,
    CertificationError,
    SalemCertificate,
    alpha_from_beta,
    certify_min_poly,
    certify_trace,
    unit_check,
    verify_certificate,
)


def _good_trace(a: int = 5) -> IntPoly:
    return build_candidate(plan_construction(12, 9), a)


def x_n_minus_1(n: int) -> IntPoly:
    return IntPoly([-1] + [0] * (n - 1) + [1])


class TestUnitCheck:
    def test_n1_single_evaluation(self):
        assert unit_check(IntPoly([1, -3, 1]), 1) == -1

    def test_n2_product(self):
        assert unit_check(IntPoly([1, -3, 1]), 2) == -5

    def test_pipeline_value_is_unit(self):
        cert = certify_trace(_good_trace(), 12)
        assert abs(unit_check(cert.min_poly, 12)) == 1

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            unit_check(IntPoly([1, -3, 2]), 2)

    def test_requires_positive_n(self):
        for n in (0, -1):
            with pytest.raises(ValueError):
                unit_check(IntPoly([1, -3, 1]), n)

    @pytest.mark.parametrize(
        "s_poly",
        [
            lift_trace(_good_trace(3), 9),  # a unit for n = 12
            IntPoly([1, -3, 1]),  # golden square: never a unit
            IntPoly([1, 1, 1]),  # divides x^n - 1 when 3 | n: r - 1 = 0 and the value 0
            IntPoly([-2, 0, 1]),  # not reciprocal
            IntPoly([1, -1, 0, 2, 5, 1]),
            IntPoly([1, 0, 0, 0, 0, 0, -1, 1]),  # odd degree, folds to 1 at n = 1: the value is -1
        ],
    )
    def test_matches_dense_resultant(self, s_poly):
        for n in list(range(1, 41)) + [97, 128, 199, 200]:
            assert unit_check(s_poly, n) == resultant(x_n_minus_1(n), s_poly), n

    # S = (x^n - 1) Q + c x^k folds to c x^k; deg S = n + deg Q takes both parities
    @given(
        n=st.integers(1, 16),
        q=st.lists(st.integers(-4, 4), max_size=7),
        c=st.sampled_from([-1, 1]),
        k=st.integers(0, 15),
    )
    @example(n=1, q=[0, 0, 0, 0, 0, 0], c=1, k=0)  # deg S = 7 at n = 1: the sign (-1)^(n deg S) is -1
    @example(n=2, q=[3], c=-1, k=1)
    @settings(max_examples=300)
    def test_fold_sign(self, n, q, c, k):
        s_poly = x_n_minus_1(n) * IntPoly(q + [1]) + IntPoly([0] * (k % n) + [c])
        assert unit_check(s_poly, n) == resultant(x_n_minus_1(n), s_poly)

    def test_every_constructed_candidate_folds(self, monkeypatch):
        # admitted plans with t <= 71: S is -x^t mod x^n - 1, so no PRS runs
        lifts = [
            (n, lift_trace(build_candidate(plan_construction(n, t), a), t))
            for n in range(4, 137, 8)
            if n % 5
            for t in range((n + 6) // 2, 72, 2)
            for a in (3, 50, 200)
        ]
        assert len(lifts) == 738

        def refuse(*args):
            raise AssertionError("the general route ran")

        monkeypatch.setattr(salem, "resultant", refuse)
        monkeypatch.setattr(salem, "pseudo_rem", refuse)
        for n, s_poly in lifts:
            assert unit_check(s_poly, n) == resultant(x_n_minus_1(n), s_poly) == -1, n

    def test_forged_coefficient_takes_the_prs(self, monkeypatch):
        t = 61
        coeffs = list(build_candidate(plan_construction(92, t), 111).coeffs)
        coeffs[7] += 1
        s_poly = lift_trace(IntPoly(coeffs), t)
        calls = []
        monkeypatch.setattr(salem, "resultant", lambda p, q: calls.append(p) or resultant(p, q))
        value = unit_check(s_poly, 92)
        assert len(calls) == 1
        assert value == resultant(x_n_minus_1(92), s_poly)
        assert abs(value) != 1


class TestAlphaFromBeta:
    def test_exact_beta_3(self):
        # (3 + sqrt(5))/2, digits frozen from an integer-sqrt computation:
        # floor((3*10^30 + isqrt(5*10^60)) / 2) digit string
        expected = (3 * 10**30 + math.isqrt(5 * 10**60)) // 2
        three = IsolatingInterval(Fraction(3), Fraction(3))
        dec, iv = alpha_from_beta(three, 30, IntPoly([-3, 1]))
        assert dec == f"{str(expected)[0]}.{str(expected)[1:]}"
        assert iv.width <= Fraction(1, 10**30)

    def test_width_contract(self):
        p = IntPoly([1, -3, 1])
        iv = IsolatingInterval(Fraction(2), Fraction(3))
        for digits in (5, 12, 40):
            _, out = alpha_from_beta(iv, digits, p)
            assert out.width <= Fraction(1, 10**digits)

    def test_reconstruction(self):
        p = IntPoly([1, -3, 1])
        _, out = alpha_from_beta(IsolatingInterval(Fraction(2), Fraction(3)), 25, p)
        # alpha + 1/alpha recovers beta within the refined interval bounds
        lo = out.lo + 1 / out.hi
        hi = out.hi + 1 / out.lo
        beta_digits = (3 * 10**20 + math.isqrt(5 * 10**40)) // (2 * 10**10)  # beta = alpha + 1/alpha = 2.6180...
        assert lo <= Fraction(beta_digits + 1, 10**10) and hi >= Fraction(beta_digits, 10**10)

    def test_needs_a_root_of_a_monic_polynomial(self):
        # beta = 5/2 and beta = 41/20 give the rational alpha = 2 and 5/4; a root beta > 2
        # of a monic polynomial gives an irrational alpha, so the digit loop ends
        exact = IsolatingInterval(Fraction(5, 2), Fraction(5, 2))
        with pytest.raises(ValueError, match="monic"):
            alpha_from_beta(exact, 8, IntPoly([-5, 2]))
        with pytest.raises(ValueError, match="monic"):
            alpha_from_beta(IsolatingInterval(Fraction(2), Fraction(3)), 2, IntPoly([-41, 20]))
        with pytest.raises(ValueError, match="not a root"):
            alpha_from_beta(exact, 8, IntPoly([-3, 1]))

    def test_interval_not_above_2(self):
        with pytest.raises(ValueError):
            alpha_from_beta(IsolatingInterval(Fraction(1), Fraction(3)), 10, IntPoly([1, -3, 1]))
        # beta^2 - 4 >= 0 above 2; the square root enclosure refuses a negative radicand itself
        assert salem._sqrt_enclosure(Fraction(9, 4), 3) == (Fraction(3, 2), Fraction(1501, 1000))
        with pytest.raises(ValueError, match="negative radicand"):
            salem._sqrt_enclosure(Fraction(-1, 3), 5)


class TestCertifyTrace:
    def test_accepts_pipeline_candidate(self):
        cert = certify_trace(_good_trace(5), 12, construction="quad-unit", a=5)
        assert cert.t == 9
        assert cert.min_poly.degree == 18
        assert abs(cert.resultant_value) == 1
        assert cert.min_poly.coeffs[0] == 1 and cert.min_poly.is_monic
        assert cert.min_poly == lift_trace(cert.trace_poly, 9)
        assert cert.root_pattern.above_pos2 == 1
        assert cert.root_pattern.in_neg2_2 == 8

    def test_precision_bound(self, monkeypatch):
        cert = certify_trace(_good_trace(3), 12, precision_digits=MAX_PRECISION)
        assert len(cert.alpha_decimal.partition(".")[2]) == MAX_PRECISION
        # out of range is refused before any check runs
        monkeypatch.setattr(salem, "is_separable", None)
        for digits in (0, MAX_PRECISION + 1):
            with pytest.raises(ValueError, match="precision"):
                certify_trace(_good_trace(3), 12, precision_digits=digits)
            with pytest.raises(ValueError, match="precision"):
                certify_min_poly(cert.min_poly, 12, precision_digits=digits)

    def test_n_bound(self, monkeypatch):
        # n = MAX_N is accepted and reaches the unit check, which it fails
        with pytest.raises(CertificationError) as err:
            certify_trace(_good_trace(3), MAX_N)
        assert err.value.check == "resultant"
        # out of range is refused before any check runs
        monkeypatch.setattr(salem, "is_separable", None)
        monkeypatch.setattr(salem, "unit_check", None)
        s_poly = lift_trace(_good_trace(3), 9)
        for n in (0, MAX_N + 1):
            with pytest.raises(ValueError, match=f"n must be between 1 and {MAX_N}"):
                certify_trace(_good_trace(3), n)
            with pytest.raises(ValueError, match=f"n must be between 1 and {MAX_N}"):
                certify_min_poly(s_poly, n)

    def test_degree_rejection(self):
        with pytest.raises(CertificationError) as err:
            certify_trace(IntPoly([-3, 1]), 12)
        assert err.value.check == "degree"

    def test_monic_rejection(self):
        with pytest.raises(CertificationError) as err:
            certify_trace(IntPoly([1, -5, 2]), 12)
        assert err.value.check == "monic"

    def test_root_at_two_rejection(self):
        t = IntPoly([-2, 1]) * IntPoly([1, -5, 1])
        with pytest.raises(CertificationError) as err:
            certify_trace(t, 12)
        assert err.value.check == "root_pattern"

    def test_separability_rejection(self):
        t = IntPoly([1, -5, 1]) ** 2
        with pytest.raises(CertificationError) as err:
            certify_trace(t, 12)
        assert err.value.check == "separability"

    def test_reducible_rejection(self):
        # right pattern, wrong factorization: (x^2 - 5x + 1)(x - 1) has
        # roots 4.79, 1, 0.2 -- one above 2, two in (-2, 2)
        t = IntPoly([1, -5, 1]) * IntPoly([-1, 1])
        with pytest.raises(CertificationError) as err:
            certify_trace(t, 12)
        assert err.value.check == "irreducibility"

    def test_resultant_rejection(self):
        with pytest.raises(CertificationError) as err:
            certify_trace(IntPoly([1, -5, 1]), 12)
        assert err.value.check == "resultant"


class TestCertifyMinPoly:
    def test_golden_square_unit_gap(self):
        with pytest.raises(CertificationError) as err:
            certify_min_poly(IntPoly([1, -3, 1]), 2)
        assert err.value.check == "resultant"
        assert err.value.data["value"] == -5

    def test_not_reciprocal(self):
        p = IntPoly([5, -3, 1, 1]) * IntPoly([1, 1])
        assert int(p.degree) % 2 == 0
        with pytest.raises(CertificationError) as err:
            certify_min_poly(p, 2)
        assert err.value.check == "reciprocal"

    def test_round_trip_from_search(self):
        cert = certify_trace(_good_trace(4), 12)
        again = certify_min_poly(cert.min_poly, 12)
        assert again.trace_poly == cert.trace_poly
        assert again.resultant_value == cert.resultant_value

    def test_unit_check_runs_once(self, monkeypatch):
        cert = certify_trace(_good_trace(3), 12, construction="quad-unit", a=3)
        calls = []

        def counting(s_poly, n):
            calls.append((s_poly, n))
            return unit_check(s_poly, n)

        monkeypatch.setattr(salem, "unit_check", counting)
        again = certify_min_poly(cert.min_poly, 12, construction="quad-unit", a=3)
        assert calls == [(cert.min_poly, 12)]
        assert again.to_json_dict() == cert.to_json_dict()


class TestCertificate:
    def test_json_roundtrip(self):
        cert = certify_trace(_good_trace(6), 12, construction="quad-unit", a=6)
        back = SalemCertificate.from_json_dict(cert.to_json_dict())
        assert back.trace_poly == cert.trace_poly
        assert back.min_poly == cert.min_poly
        assert back.alpha_decimal == cert.alpha_decimal
        assert back.root_pattern == cert.root_pattern
        assert back.beta_interval.lo == cert.beta_interval.lo
        assert verify_certificate(back) == []

    def test_replay_accepts_valid(self):
        cert = certify_trace(_good_trace(5), 12, a=5)
        assert verify_certificate(cert) == []

    def test_replay_rejects_tampering(self):
        cert = certify_trace(_good_trace(5), 12, a=5)
        assert "resultant" in verify_certificate(replace(cert, resultant_value=3))
        tampered = replace(cert, min_poly=cert.min_poly + IntPoly([0, 1]))
        assert "lift" in verify_certificate(tampered)
        wrong_alpha = replace(cert, alpha_decimal="2." + "0" * 30)
        assert "alpha" in verify_certificate(wrong_alpha)

    @pytest.mark.parametrize(
        "field, value",
        [("min_poly", IntPoly([1, 2])), ("n", 0), ("n", -3)],
    )
    def test_replay_without_unit_check_domain(self, field, value):
        # unit_check raises outside n >= 1 and a monic S; replay reports a failure
        cert = certify_trace(_good_trace(5), 12, a=5)
        assert "resultant" in verify_certificate(replace(cert, **{field: value}))

    @pytest.mark.parametrize("n", [MAX_N + 1, 10**40])
    def test_replay_with_n_over_bound(self, monkeypatch, n):
        # a forged n past the bound fails without running unit_check, so it cannot hang
        cert = certify_trace(_good_trace(5), 12, a=5)
        monkeypatch.setattr(salem, "unit_check", None)
        assert verify_certificate(replace(cert, n=n)) == ["resultant"]

    @pytest.mark.parametrize("digits", [0, -1, MAX_PRECISION + 1])
    def test_replay_with_precision_out_of_range(self, digits):
        cert = certify_trace(_good_trace(5), 12, a=5)
        assert verify_certificate(replace(cert, alpha_precision=digits)) == ["alpha"]

    def test_corruption_fuzz(self):
        # every single-coefficient shift of an accepted trace polynomial is rejected
        cert = certify_trace(_good_trace(3), 12)
        base = list(cert.trace_poly.coeffs)
        rng = random.Random(17)
        rejected = 0
        trials = 40
        for _ in range(trials):
            idx = rng.randrange(len(base))
            delta = rng.choice([-1, 1])
            corrupt = base.copy()
            corrupt[idx] += delta
            try:
                certify_trace(IntPoly(corrupt), 12)
            except CertificationError:
                rejected += 1
        assert rejected == trials


class TestUnitReplay:
    """Replay decides the resultant from the stored S and n by the fold, so a forged n or sign fails."""

    @pytest.fixture(scope="class")
    def cert(self):
        return search(92, 61, 111, 111, 1).certificates[0]

    def test_valid(self, cert):
        assert cert.resultant_value == -1
        assert verify_certificate(cert) == []

    def test_forged_n(self, cert):
        # (84, 61) is an admitted plan too, but S does not fold to +-x^k mod x^84 - 1
        assert abs(unit_check(cert.min_poly, 84)) != 1
        assert verify_certificate(replace(cert, n=84)) == ["resultant"]

    def test_flipped_sign(self, cert):
        assert verify_certificate(replace(cert, resultant_value=1)) == ["resultant"]


def _forged_certificate(trace: IntPoly, n: int, witness: IrreducibilityWitness) -> SalemCertificate:
    """Every field recomputed from trace except the irreducibility witness."""
    t = int(trace.degree)
    s_poly = lift_trace(trace, t)
    iv = refine(isolate_roots(trace, 2, cauchy_bound(trace) + 1)[0], trace, Fraction(1, 10**34))
    return SalemCertificate(
        n=n,
        t=t,
        a=None,
        construction="external",
        trace_poly=trace,
        min_poly=s_poly,
        root_pattern=root_pattern(trace),
        beta_interval=iv,
        alpha_decimal=alpha_from_beta(iv, 30, trace)[0],
        alpha_precision=30,
        irreducibility=witness,
        resultant_value=unit_check(s_poly, n),
    )


class TestIrreducibilityReplay:
    def test_kronecker_certificate_round_trip(self):
        # the filter gives no verdict at (12,9), a=18
        cert = certify_trace(_good_trace(18), 12, a=18)
        assert cert.irreducibility.to_json_dict() == {"verdict": "irreducible", "method": "kronecker-cyclotomic"}
        assert verify_certificate(SalemCertificate.from_json_dict(cert.to_json_dict())) == []

    def test_legacy_exact_factorization_replays(self, monkeypatch):
        cert = certify_trace(_good_trace(18), 12, a=18)
        data = cert.to_json_dict()
        data["irreducibility"] = {
            "verdict": "irreducible",
            "method": "exact-factorization",
            "primes": [3],
            "degree_multisets": [[1, 8]],
            "prime": 3,
            "modulus_exponent": 40,
            "coeff_bound": 10**12,
        }
        legacy = SalemCertificate.from_json_dict(data)
        # a replay, not a re-decision: the decision procedure must not run
        calls = []
        gcd_test = factor._cyclotomic_factor
        monkeypatch.setattr(factor, "_cyclotomic_factor", lambda p: calls.append(p) or gcd_test(p))
        monkeypatch.setattr(salem, "is_irreducible", None)
        monkeypatch.setattr(factor, "is_irreducible", None)
        assert verify_certificate(legacy) == []
        assert calls == [legacy.trace_poly]

    @pytest.mark.parametrize("method", ["kronecker-cyclotomic", "exact-factorization", "modular-degree-filter"])
    def test_forged_irreducible_verdict_fails(self, method):
        # (x^2 - 5x + 1)(x - 1) has the Salem pattern but the factor psi_6 = x - 1
        trace = IntPoly([1, -5, 1]) * IntPoly([-1, 1])
        assert root_pattern(trace).is_salem(3)
        forged = IrreducibilityWitness(verdict="irreducible", method=method)
        assert "irreducibility" in verify_certificate(_forged_certificate(trace, 12, forged))


    def test_kronecker_witness_builds_no_chain(self, monkeypatch):
        # (12,9), a=18 reaches the Kronecker test; its pattern, proved by interlacing, is passed on
        trace = _good_trace(18)

        def no_chain(self, p):
            raise AssertionError("a Sturm chain was built")

        monkeypatch.setattr(roots.SturmChain, "__init__", no_chain)
        cert = certify_trace(trace, 12, construction="quad-unit", a=18)
        assert cert.irreducibility.method == "kronecker-cyclotomic"
        assert verify_certificate(SalemCertificate.from_json_dict(cert.to_json_dict())) == []

    def test_forged_salem_pattern_with_kronecker_witness(self):
        # two roots above 2; the stored pattern claims Salem's, and the Kronecker replay
        # must read the pattern the replay proved, not the stored one
        trace = IntPoly([1, -5, 1]) * IntPoly([1, -6, 1])
        cert = _forged_certificate(trace, 12, IrreducibilityWitness("irreducible", "kronecker-cyclotomic"))
        proved = cert.root_pattern
        forged = replace(proved, in_neg2_2=proved.in_neg2_2 + 1, above_pos2=1)
        assert not proved.is_salem(4) and forged.is_salem(4)
        failures = verify_certificate(replace(cert, root_pattern=forged))
        assert {"root_pattern", "irreducibility"} <= set(failures)


class TestBetaIntervalReplay:
    def test_no_sturm_chain_at_interval_endpoints(self, monkeypatch):
        cert = certify_trace(_good_trace(5), 12, a=5, precision_digits=300)
        replayed = SalemCertificate.from_json_dict(cert.to_json_dict())
        points = []
        variations = roots.SturmChain.variations
        monkeypatch.setattr(roots.SturmChain, "variations", lambda self, x: points.append(x) or variations(self, x))
        assert verify_certificate(replayed) == []
        assert points  # the root pattern is still counted by the chain
        iv = replayed.beta_interval
        assert iv.lo not in points and iv.hi not in points

    def test_interval_without_sign_change(self):
        cert = certify_trace(_good_trace(5), 12, a=5)
        iv = cert.beta_interval
        beside = IsolatingInterval(iv.hi, iv.hi + iv.width)
        assert verify_certificate(replace(cert, beta_interval=beside)) == ["beta_interval"]
        below_two = IsolatingInterval(Fraction(1), iv.hi)
        assert verify_certificate(replace(cert, beta_interval=below_two)) == ["beta_interval"]
        swapped = IsolatingInterval(iv.hi, iv.lo)
        assert verify_certificate(replace(cert, beta_interval=swapped)) == ["beta_interval"]

    def test_interval_needs_salem_pattern(self):
        # (x^2 - 5x + 1)(x^2 - 7x + 1): without the pattern a sign change does not
        # show the interval holds the only root above 2, so it is not accepted
        trace = IntPoly([1, -5, 1]) * IntPoly([1, -7, 1])
        cert = _forged_certificate(trace, 12, IrreducibilityWitness(verdict="irreducible", method="kronecker-cyclotomic"))
        assert {"root_pattern", "irreducibility", "beta_interval"} <= set(verify_certificate(cert))

    def test_root_at_interval_end(self):
        # (x - 3)(x^2 - 1) has the Salem pattern; (3, 4] holds no root although T(3) = 0
        trace = IntPoly([-3, 1]) * IntPoly([-1, 0, 1])
        witness = IrreducibilityWitness(verdict="reducible", method="kronecker-cyclotomic", factor=IntPoly([-3, 1]))
        cert = replace(
            _forged_certificate(trace, 12, witness), beta_interval=IsolatingInterval(Fraction(3), Fraction(4))
        )
        assert "beta_interval" in verify_certificate(cert)


class TestInterlacingReplay:
    """Replay proves a constructed candidate's pattern from recomputed points, and forged fields only reach the chain."""

    @pytest.fixture(scope="class")
    def cert(self):
        plan = plan_construction(44, 31)
        return certify_trace(build_candidate(plan, 29), 44, construction=plan.construction, a=29)

    @pytest.fixture
    def chains(self, monkeypatch):
        built = []
        init = roots.SturmChain.__init__
        monkeypatch.setattr(roots.SturmChain, "__init__", lambda self, p: built.append(p) or init(self, p))
        return built

    @staticmethod
    def replayed(cert, **changes):
        """A fresh decode, so no chain is kept on the trace from an earlier check."""
        return SalemCertificate.from_json_dict(replace(cert, **changes).to_json_dict())

    def test_constructed_candidate(self, cert, chains):
        assert verify_certificate(self.replayed(cert)) == []
        assert chains == []

    @pytest.mark.parametrize("construction", ["quad-unit", "quad-shift-golden", "linear", "external", "no-such"])
    def test_forged_construction(self, cert, chains, construction):
        assert verify_certificate(self.replayed(cert, construction=construction)) == []
        assert len(chains) == 1  # the points prove nothing, so the chain decides

    # the points for a = 30 still separate the roots of the a = 29 trace: a sound proof, so no chain
    @pytest.mark.parametrize(
        "a, failures, built", [(None, [], 1), (2, ["beta_location"], 1), (30, ["beta_location"], 0)]
    )
    def test_forged_a(self, cert, chains, a, failures, built):
        assert verify_certificate(self.replayed(cert, a=a)) == failures
        assert len(chains) == built

    @pytest.mark.parametrize("a", [-1, 0])
    def test_location_needs_a_at_least_3(self, a):
        # T changes sign on (a-1, a) for these a, from 7 and 3 roots in (-2, 2): not beta
        cert = search(28, 23, 33, 33, 1).certificates[0]
        assert verify_certificate(self.replayed(cert, a=a)) == ["beta_location"]

    def test_forged_n(self, cert, chains):
        # (36, 31) is a quad-unit plan, not quad-shift: the points prove nothing
        assert verify_certificate(self.replayed(cert, n=36)) == ["resultant"]
        assert len(chains) == 1

    def test_huge_n_computes_no_roots(self, cert, chains, monkeypatch):
        from salemunits import construct

        def no_roots(*args):
            raise AssertionError("closed-form roots were computed")

        monkeypatch.setattr(construct, "cyclo_trace_roots_dyadic", no_roots)
        monkeypatch.setattr(construct, "cheb_roots_dyadic", no_roots)
        huge = 8 * 10**40 + 4  # 4 mod 8 and prime to 5, so only 2t >= n + 6 fails
        assert verify_certificate(self.replayed(cert, n=huge)) == ["resultant"]
        assert len(chains) == 1

    def test_forged_root_pattern(self, cert, chains):
        rp = cert.root_pattern
        for forged in (replace(rp, in_0_1=rp.in_0_1 + 1), replace(rp, below_neg2=1, in_neg2_2=rp.in_neg2_2 - 1)):
            assert verify_certificate(self.replayed(cert, root_pattern=forged)) == ["root_pattern"]
        assert chains == []

    def test_degree_past_max_t_builds_no_chain(self, cert, chains):
        # a degree-401 trace: its chain alone takes seconds, so the bound is checked first
        trace = build_candidate(plan_construction(12, 401), 1000)
        assert MAX_T < 401
        assert verify_certificate(replace(cert, t=401, trace_poly=trace, construction="external", a=None)) == ["degree"]
        assert chains == []

    def test_construction_of_wrong_type(self, cert):
        data = cert.to_json_dict()
        data["construction"] = ["quad-shift"]
        with pytest.raises(ValueError):
            SalemCertificate.from_json_dict(data)

    def test_forged_trace_reads_no_plan_values(self, monkeypatch):
        # one changed coefficient, with its own lift as min_poly: the trace is not the plan's
        # candidate, so no value comes from the plan, and replay fails as for an external trace
        from salemunits.construct import ConstructionPlan

        reads = []
        table = ConstructionPlan.__dict__["fixed_values"]
        monkeypatch.setattr(ConstructionPlan, "fixed_values", property(lambda plan: reads.append(plan) or table.func(plan)))
        cert = search(92, 61, 111, 111, 1).certificates[0]
        reads.clear()
        assert verify_certificate(self.replayed(cert)) == [] and len(reads) == 1
        coeffs = list(cert.trace_poly.coeffs)
        coeffs[0] += 2
        trace = IntPoly(coeffs)
        forged = self.replayed(cert, trace_poly=trace, min_poly=lift_trace(trace, 61))
        reads.clear()
        failures = verify_certificate(forged)
        assert reads == []
        assert failures and failures == verify_certificate(self.replayed(forged, construction="external"))

    def test_huge_a_reads_no_huge_point(self, monkeypatch):
        # an a of 4,001 digits is past MAX_A, so it gives no hints, and a - 1 is past T's Cauchy
        # bound, so T is not evaluated at a - 1 or a: every point replay reads stays short
        cert = search(92, 61, 111, 111, 1).certificates[0]
        bits = []
        value_at = intpoly._value_at

        def recording(f, num, den):
            bits.append(max(num.bit_length(), den.bit_length()))
            return value_at(f, num, den)

        for module in (intpoly, roots):  # intpoly's _sign_at and roots' own reads
            monkeypatch.setattr(module, "_value_at", recording)
        assert verify_certificate(self.replayed(cert, a=10**4000)) == ["beta_location"]
        assert bits and max(bits) <= 1000

    def test_golden_mirror_plan(self, chains):
        plan = plan_construction(44, 35)
        assert plan.construction == "quad-shift-golden-mirror"
        chains.clear()
        cert = certify_trace(build_candidate(plan, 117), 44, construction=plan.construction, a=117)
        assert verify_certificate(self.replayed(cert)) == []
        assert chains == []


def _alarm(signum, frame):
    raise TimeoutError("no answer within the time limit")


@contextmanager
def _within(seconds: int):
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestBoundsBeforeWork:
    """Past a bound, certification refuses and replay fails before any costly step."""

    @pytest.fixture(scope="class")
    def long_trace(self):
        # monic of degree MAX_T + 2: unbounded, its Sturm chain alone takes seconds
        return build_candidate(plan_construction(12, MAX_T + 2), 1000)

    def test_certify_trace_past_max_t(self, long_trace):
        with _within(1), pytest.raises(ValueError, match=f"a trace polynomial must have degree at most {MAX_T}"):
            certify_trace(long_trace, 12)

    def test_certify_min_poly_past_twice_max_t(self, long_trace):
        s_poly = lift_trace(long_trace, MAX_T + 2)
        with _within(1), pytest.raises(ValueError, match=f"a min polynomial must have degree at most {2 * MAX_T}"):
            certify_min_poly(s_poly, 12)

    def test_forged_min_poly_is_never_unit_checked(self):
        # a random monic min_poly of degree 1201 with n = 1200: a unit check on it takes minutes
        cert = certify_trace(_good_trace(3), 12, construction="quad-unit", a=3)
        rng = random.Random(1201)
        data = cert.to_json_dict()
        data["min_poly"] = IntPoly([rng.randint(-9, 9) for _ in range(1201)] + [1]).to_text()
        data["n"] = 1200
        with _within(2):
            assert verify_certificate(SalemCertificate.from_json_dict(data)) == ["lift", "resultant"]

    def test_non_unit_resultant_is_never_unit_checked(self, monkeypatch):
        cert = certify_trace(_good_trace(5), 12, a=5)

        def no_unit_check(s_poly, n):
            raise AssertionError("unit_check ran")

        monkeypatch.setattr(salem, "unit_check", no_unit_check)
        assert verify_certificate(replace(cert, resultant_value=5)) == ["resultant"]
