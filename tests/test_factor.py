"""Irreducibility verdicts, witness replay, and agreement with an independent oracle."""

import random
import signal
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcd, gf_irreducible_p, gf_mul, gf_strip

from salemunits import factor
from salemunits.construct import build_candidate, plan_construction, search
from salemunits.factor import (
    _BLOCK,
    KRONECKER,
    SEPARABILITY_PRIMES,
    IrreducibilityWitness,
    _degree_multiset,
    _good_primes,
    _graeffe_trace,
    _Packed,
    _zassenhaus,
    is_irreducible,
    separable_mod_prime,
    verify_witness,
)
from salemunits.intpoly import IntPoly, resultant
from salemunits.salem import MAX_T
from salemunits.roots import RootPattern, SturmChain, is_separable, root_pattern
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


def decide(p: IntPoly) -> IrreducibilityWitness:
    """is_irreducible with the pattern proved by the Sturm chain, as certify_trace proves an external trace's."""
    return is_irreducible(p, root_pattern(p))


def replay(p: IntPoly, witness: IrreducibilityWitness) -> bool:
    """verify_witness with the pattern proved by the Sturm chain, as verify_certificate proves an external trace's."""
    return verify_witness(p, witness, root_pattern(p))


def salem_pattern_candidates():
    for n, t in SWEEP_PLANS:
        plan = plan_construction(n, t)
        for a in range(3, 61):
            p = build_candidate(plan, a)
            if root_pattern(p).is_salem(t):
                yield p


class TestVerdicts:
    def test_quadratic_unit_factor(self):
        w = decide(IntPoly([1, -5, 1]))
        assert w.verdict == "irreducible"

    def test_cyclo12_reducible(self):
        p = IntPoly([1, -5, 1]) * psi(12)
        w = decide(p)
        assert w.verdict == "reducible" and w.method == KRONECKER
        assert w.factor == psi(12)

    def test_degree_one(self):
        assert decide(IntPoly([7, 1])).verdict == "irreducible"

    def test_zero_constant_coefficient(self):
        # psi_4 = x: gcd(p(x), p(-x)) finds it
        w = decide(IntPoly([0, 1, -5, 1]))
        assert w.verdict == "reducible" and w.factor == IntPoly([0, 1])

    def test_filter_inconclusive_case(self):
        # the (12,9), a=18 trace splits modulo every filter prime yet is irreducible
        p = build_candidate(plan_construction(12, 9), 18)
        w = decide(p)
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
        w = _zassenhaus(p, root_pattern(p))
        assert w.verdict == "reducible" and w.method == KRONECKER
        assert w.factor == psi(m)
        assert replay(p, w)

    @pytest.mark.parametrize("m", [16, 24])
    def test_planted_psi_four_divides_m(self, m):
        # 4 | m: psi_m(-x) = +-psi_m(x), found only by gcd(p(x), p(-x))
        p = build_candidate(plan_construction(92, 61), 111) * psi(m)
        w = _zassenhaus(p, root_pattern(p))
        assert w.verdict == "reducible"
        assert w.factor == psi(m)
        assert replay(p, w)

    def test_fallback_needs_salem_pattern(self):
        # x^4 + 1 splits modulo every prime and has no real root
        with pytest.raises(ValueError, match="Kronecker"):
            decide(IntPoly([1, 0, 0, 0, 1]))


def _alarm(signum, frame):
    raise TimeoutError("the call ran past its time limit")


class TestPreconditions:
    def test_non_monic(self):
        with pytest.raises(ValueError):
            decide(IntPoly([1, 2]))

    def test_non_squarefree(self):
        with pytest.raises(ValueError):
            decide(IntPoly([1, -2, 1]))

    def test_constant(self):
        with pytest.raises(ValueError):
            decide(IntPoly([5]))
        with pytest.raises(ValueError):
            is_irreducible(IntPoly(), RootPattern(0, 0, 0, 0, 0, 0, True))

    def test_forged_separable_pattern_fails_fast(self):
        # (x - 1)^2 (x^2 - 5x + 1) is squarefree mod no prime, and a forged pattern calls it separable
        p = IntPoly([-1, 1]) ** 2 * IntPoly([1, -5, 1])
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(5)
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="Kronecker"):
                is_irreducible(p, RootPattern(0, 0, 1, 0, 1, 1, True))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert time.perf_counter() - start < 1

    def test_too_few_primes_leave_the_verdict_to_kronecker(self, monkeypatch):
        p = build_candidate(plan_construction(12, 9), 3)
        assert decide(p).method == "modular-degree-filter"
        monkeypatch.setattr(factor, "SEPARABILITY_PRIMES", SEPARABILITY_PRIMES[:4])
        witness = decide(p)
        assert (witness.verdict, witness.method, witness.primes) == ("irreducible", KRONECKER, ())


class TestOracleAgreement:
    def test_filter_and_factorization_agree(self):
        # on every candidate of the plan sweep with the Salem pattern, the
        # filter verdict, the Kronecker test and sympy coincide
        checked = 0
        for p in salem_pattern_candidates():
            expected = sympy_is_irreducible(p)
            assert (_zassenhaus(p, root_pattern(p)).verdict == "irreducible") == expected, p
            assert (decide(p).verdict == "irreducible") == expected, p
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
            w = decide(p)
            assert w.verdict == "reducible"
            p.exact_div(w.factor)

    def test_pipeline_degree_35_forced_factorization(self):
        t35 = build_candidate(plan_construction(44, 35), 117)
        w = _zassenhaus(t35, root_pattern(t35))
        assert w == IrreducibilityWitness(verdict="irreducible", method=KRONECKER)
        assert replay(t35, w)


class TestWitnessReplay:
    def test_reducible_replay(self):
        p = IntPoly([1, -5, 1]) * IntPoly([-1, 1])
        w = decide(p)
        assert w.factor == IntPoly([-1, 1])
        assert replay(p, w)
        bad = IrreducibilityWitness(verdict="reducible", method=KRONECKER, factor=IntPoly([1, 1, 1]))
        assert not replay(p, bad)

    def test_filter_replay_without_rerun(self):
        p = IntPoly([1, -5, 1])
        w = decide(p)
        assert w.method == "modular-degree-filter"
        assert replay(p, w)
        # corrupt one stored multiset: replay must fail
        corrupted = IrreducibilityWitness(
            verdict=w.verdict,
            method=w.method,
            primes=w.primes,
            degree_multisets=((1, 1),) * len(w.primes),
        )
        assert not replay(p, corrupted)

    def test_forged_multisets_fail(self):
        # (x^2 - 3)(x^2 - 5) is reducible; mod 3 it is x^2 (x^2 + 1), not squarefree
        p = IntPoly([-3, 0, 1]) * IntPoly([-5, 0, 1])
        assert not replay(p, IrreducibilityWitness("irreducible", "modular-degree-filter", (3,), ((4,),)))
        # (44,31) a = 29 is not squarefree mod 11: its degrees mod 11, though recomputed, prove nothing
        p = build_candidate(plan_construction(44, 31), 29)
        w = decide(p)
        multisets = (_degree_multiset(p.coeffs, 11),) + w.degree_multisets[1:]
        assert 11 not in _good_primes(p, len(SEPARABILITY_PRIMES)) and factor._filter_proves_irreducible(31, multisets)
        assert not replay(p, replace(w, primes=(11,) + w.primes[1:], degree_multisets=multisets))
        # a genuine witness with one multiset, or one prime, forged: 2 and 101 are outside the table
        p = build_candidate(plan_construction(92, 61), 111)
        w = decide(p)
        assert w.method == "modular-degree-filter" and replay(p, w)
        assert not replay(p, replace(w, degree_multisets=((61,),) + w.degree_multisets[1:]))
        for outside in (2, 101, 3.0):
            assert not replay(p, replace(w, primes=(outside,) + w.primes[1:]))

    def test_kronecker_replay(self):
        p = build_candidate(plan_construction(12, 9), 18)
        for method in (KRONECKER, "exact-factorization"):
            assert replay(p, IrreducibilityWitness(verdict="irreducible", method=method))
        # a forged irreducible verdict on a reducible trace with the Salem pattern
        reducible = IntPoly([1, -5, 1]) * IntPoly([-1, 1])
        for method in (KRONECKER, "exact-factorization"):
            assert not replay(reducible, IrreducibilityWitness(verdict="irreducible", method=method))
        # two roots above 2 and no psi_m factor: without the pattern the gcds prove nothing
        two_large = IntPoly([1, -5, 1]) * IntPoly([1, -7, 1])
        assert not replay(two_large, IrreducibilityWitness("irreducible", KRONECKER))
        assert not replay(p, IrreducibilityWitness("irreducible", "no-such-method"))
        assert not replay(p, IrreducibilityWitness("no-such-verdict", KRONECKER))

    def test_pattern_is_taken_from_the_caller(self, monkeypatch):
        # no chain is built here: a pattern without Salem's fails the Kronecker replay,
        # and one without separability is refused
        p = build_candidate(plan_construction(12, 9), 18)
        pattern = root_pattern(p)

        def no_chain(self, p):
            raise AssertionError("a Sturm chain was built")

        monkeypatch.setattr(SturmChain, "__init__", no_chain)
        w = is_irreducible(p, pattern)
        assert w.method == KRONECKER and verify_witness(p, w, pattern)
        assert not verify_witness(p, w, replace(pattern, above_pos2=2, in_neg2_2=pattern.in_neg2_2 - 1))
        with pytest.raises(ValueError, match="squarefree"):
            is_irreducible(p, replace(pattern, separable=False))

    def test_json_roundtrip(self):
        for poly in (
            IntPoly([1, -5, 1]),
            IntPoly([1, -5, 1]) * IntPoly([-1, 1]),
            build_candidate(plan_construction(12, 9), 18),
        ):
            w = decide(poly)
            back = IrreducibilityWitness.from_json_dict(w.to_json_dict())
            assert back == w
        assert decide(poly).to_json_dict() == {"verdict": "irreducible", "method": KRONECKER}

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
        assert replay(build_candidate(plan_construction(12, 9), 18), w)


def sympy_degrees_mod(f: list[int], q: int) -> tuple[int, ...]:
    """Factor degrees of f mod q by sympy, each once per multiplicity."""
    _, factors = sympy.Poly(f[::-1], _x, modulus=q).factor_list()
    return tuple(sorted(g.degree() for g, e in factors for _ in range(e)))


# (n, t, a) -> (primes, degree multisets): (44,31) a=29 and every certificate of the certify workload
PINNED_WITNESSES = {
    (44, 31, 29): ([3, 5, 13, 17, 19], [[5, 11, 15], [2, 3, 8, 18], [1, 2, 7, 21], [1, 2, 3, 6, 19], [6, 25]]),
    (92, 61, 111): ([3, 5, 7, 11, 13], [[17, 44], [1, 3, 3, 19, 35], [1, 16, 20, 24], [1, 2, 2, 14, 42], [1, 23, 37]]),
    (92, 61, 112): ([3, 5, 7, 11, 13], [[2, 59], [1, 2, 2, 4, 4, 10, 12, 26], [1, 60], [1, 2, 3, 4, 51], [61]]),
    (92, 61, 113): ([3, 5, 7, 11, 13], [[2, 4, 6, 12, 37], [7, 12, 15, 27], [2, 5, 5, 21, 28], [3, 3, 5, 9, 10, 31], [1, 1, 15, 44]]),
    (92, 61, 114): ([3, 5, 7, 11, 13], [[17, 44], [2, 8, 14, 37], [1, 3, 18, 39], [3, 5, 15, 15, 23], [8, 10, 43]]),
    (92, 61, 115): ([3, 5, 7, 11, 13], [[2, 59], [14, 17, 30], [1, 3, 9, 11, 37], [1, 1, 3, 8, 23, 25], [3, 20, 38]]),
    (124, 71, 158): ([3, 5, 7, 11, 13], [[4, 4, 16, 47], [4, 8, 14, 18, 27], [1, 2, 3, 15, 15, 35], [1, 5, 5, 8, 16, 17, 19], [4, 7, 10, 50]]),
    (124, 71, 159): ([3, 5, 7, 11, 13], [[3, 12, 14, 16, 26], [1, 6, 8, 27, 29], [3, 68], [7, 7, 11, 23, 23], [5, 7, 59]]),
    (124, 71, 160): ([3, 5, 7, 11, 13], [[71], [4, 6, 61], [13, 23, 35], [4, 8, 59], [3, 3, 3, 8, 21, 33]]),
}


# primes up to 67: every slot-width switch below 67 at degrees 1..150 lies between two of them
SWITCH_PRIMES = list(sympy.primerange(3, 68))


def _switch_prime(n: int, pick: int, above: bool) -> int:
    """A prime of SWITCH_PRIMES just below or just above one where the slot width of degree n changes."""
    switches = [(a, b) for a, b in zip(SWITCH_PRIMES, SWITCH_PRIMES[1:]) if _Packed(n, a).w != _Packed(n, b).w]
    return switches[pick % len(switches)][above]


def per_degree_multiset(f: list[int], q: int) -> tuple[int, ...]:
    """The filter's distinct-degree factorization with one gcd for each degree d: the reference for the blocked one."""
    n = len(f) - 1
    k = _Packed(n, q)
    rest = k.pack(f)
    rows = [1]
    for _ in range(1, n):
        rows.append(k.divmod(rows[-1] << (k.w * q), rest)[1])
    degs: list[int] = []
    h, d = 1 << k.w, 0
    while k.degree(rest) >= 2 * (d + 1):
        d += 1
        h = k.reduce(sum((h >> (k.w * i) & k.slot) * row for i, row in enumerate(rows)))
        g = k.gcd(k.reduce(h + ((q - 1) << k.w)), rest)  # h - x
        if g > 1:
            degs += [d] * (k.degree(g) // d)
            rest = k.divmod(rest, g)[0]
    if k.degree(rest) > 0:
        degs.append(k.degree(rest))
    return tuple(sorted(degs))


def _distinct_irreducibles(degrees: list[int], q: int, rng: random.Random) -> list[list[int]]:
    """Distinct random monic irreducibles mod q of the given degrees, coefficients from the top."""
    out: list[list[int]] = []
    for d in degrees:
        f = [1] + [rng.randrange(q) for _ in range(d)]
        while not gf_irreducible_p(f, q, ZZ) or f in out:
            f = [1] + [rng.randrange(q) for _ in range(d)]
        out.append(f)
    return out


class TestDegreeMultiset:
    """The filter's factor degrees mod q against sympy's factorization over F_q."""

    @given(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, q, data):
        low = data.draw(st.lists(st.integers(0, q - 1), min_size=0, max_size=39))
        f = low + [1]
        _, factors = sympy.Poly(f[::-1], _x, modulus=q).factor_list()
        assume(all(e == 1 for _, e in factors))
        assert _degree_multiset(f, q) == sympy_degrees_mod(f, q)

    def test_certify_workload_traces(self):
        for (n, t), a_values in (((92, 61), range(111, 116)), ((124, 71), range(158, 161))):
            plan = plan_construction(n, t)
            for a in a_values:
                p = build_candidate(plan, a)
                for q in _good_primes(p, 5):
                    assert _degree_multiset(p.coeffs, q) == sympy_degrees_mod(p.coeffs, q)

    @given(st.integers(1, 150), st.integers(0, 99), st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_sympy_at_slot_width_switches(self, n, pick, above, data):
        q = _switch_prime(n, pick, above)
        # 0 and q - 1 make the largest slot sums: complements q - 0 and quotient terms q - 1
        coeff = st.one_of(st.sampled_from([0, q - 1]), st.integers(0, q - 1))
        f = data.draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
        # sympy's is_sqf calls x^q squarefree mod q, so read its squarefree decomposition
        assume(all(e == 1 for _, e in sympy.Poly(f[::-1], _x, modulus=q).sqf_list()[1]))
        assert _degree_multiset(f, q) == sympy_degrees_mod(f, q)

    @given(
        st.sampled_from([3, 5, 7, 13]),
        st.lists(st.sampled_from([1, 2, 3, _BLOCK, _BLOCK + 1, 2 * _BLOCK]), min_size=1, max_size=5),
        st.integers(0, _BLOCK),
        st.integers(0, 2**32),
    )
    # three factors of degree B leave the first block with a rest of degree below n / 2, so the
    # Barrett bound is set by n; every factor is found in the first block, so rest falls to 1 in it;
    # B, B + 1 and 2B together; a factor above deg f / 2
    @example(3, [_BLOCK, _BLOCK, _BLOCK, _BLOCK + 1, _BLOCK + 1], 0, 1)
    @example(5, [1, 1, 2, 2, 3], 0, 2)
    @example(7, [_BLOCK, _BLOCK + 1, 2 * _BLOCK], 0, 3)
    @example(13, [_BLOCK, _BLOCK + 1], _BLOCK, 4)
    @settings(max_examples=30, deadline=None)
    def test_block_edges_match_sympy_and_per_degree(self, q, degrees, big, seed):
        # a product of distinct irreducibles, squarefree mod q, with degrees at the block edges
        # B, B + 1 and 2B; big > 0 adds one factor of degree above deg f / 2
        assume(max(Counter(degrees).values()) <= 3 and (big == 0 or sum(degrees) <= 2 * _BLOCK + 2))
        if big:
            degrees = degrees + [sum(degrees) + big]
        f = [1]
        for g in _distinct_irreducibles(degrees, q, random.Random(seed)):
            f = gf_mul(f, g, q, ZZ)
        f = [int(c) for c in f[::-1]]
        want = tuple(sorted(degrees))
        assert _degree_multiset(f, q) == per_degree_multiset(f, q) == sympy_degrees_mod(f, q) == want

    @pytest.mark.parametrize("q", [3, 5, 7, 97])
    def test_degrees_one_and_two_and_q_above_the_degree(self, q):
        # every monic f of degree 1 or 2 mod q that is squarefree, then random ones of degree up to 40 < q = 97
        small = [[c, 1] for c in range(q)] + [[c0, c1, 1] for c0 in range(min(q, 11)) for c1 in range(min(q, 11))]
        rng = random.Random(q)
        wide = [[rng.randrange(q) for _ in range(n)] + [1] for n in range(3, 41)] if q == 97 else []
        for f in small + wide:
            if all(e == 1 for _, e in sympy.Poly(f[::-1], _x, modulus=q).sqf_list()[1]):
                assert _degree_multiset(f, q) == per_degree_multiset(f, q) == sympy_degrees_mod(f, q), (f, q)

    @pytest.mark.parametrize(
        "plan, a, expected",
        [
            ((n, t), a, {"verdict": "irreducible", "method": "modular-degree-filter", "primes": primes, "degree_multisets": multisets})
            for (n, t, a), (primes, multisets) in PINNED_WITNESSES.items()
        ],
    )
    def test_witness_bytes_pinned(self, plan, a, expected):
        # recorded with the earlier list-based kernels: certificates must not change
        p = build_candidate(plan_construction(*plan), a)
        w = decide(p)
        assert w.to_json_dict() == expected and replay(p, w)


def _unpack(k: _Packed, a: int, length: int) -> list[int]:
    return [(a >> (k.w * i)) & k.slot for i in range(length)]


class TestPackedKernel:
    """The packed mod-q arithmetic at its limits: the slot bound, non-monic gcds, q | deg."""

    @given(st.integers(1, 150), st.sampled_from(SWITCH_PRIMES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_matches_mod_at_slot_bound(self, n, q, data):
        k = _Packed(n, q)
        # the largest slot a division (a reduced slot plus n terms c (q - b_i)) or a Frobenius product makes
        assert max(q - 1 + n * (q - 1) * q, n * (q - 1) ** 2) < k.bound
        slot = st.one_of(st.just(k.bound - 1), st.integers(k.bound - q * q, k.bound - 1), st.integers(0, k.bound - 1))
        values = data.draw(st.lists(slot, min_size=1, max_size=n + 1))
        r = k.reduce(sum(c << (k.w * i) for i, c in enumerate(values)))
        assert r >> (k.w * len(values)) == 0
        assert _unpack(k, r, len(values)) == [c % q for c in values]

    @given(st.integers(1, 150), st.integers(0, 99), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduce_of_a_product(self, n, pick, above, data):
        # every slot of a product of two reduced polynomials of degree up to n: 2n + 1 slots of up to n + 1 terms
        q = _switch_prime(n, pick, above)
        k = _Packed(n, q)
        coeff = st.one_of(st.sampled_from([0, q - 1]), st.integers(0, q - 1))
        drawn = [data.draw(st.lists(coeff, min_size=1, max_size=n + 1)) for _ in range(2)]
        for a, b in (drawn, [[q - 1] * (n + 1)] * 2):
            length = len(a) + len(b) - 1
            want = [0] * length
            for i, c in enumerate(a):
                for j, e in enumerate(b):
                    want[i + j] = (want[i + j] + c * e) % q
            r = k.reduce(k.pack(a) * k.pack(b))
            assert r >> (k.w * length) == 0
            assert _unpack(k, r, length) == want

    @given(st.integers(1, 150), st.integers(0, 99), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_barrett_matches_divmod(self, n, pick, above, data):
        # the reduced remainder by a monic b of degree m, for a of degree up to top, m <= top < n + m,
        # and for the unreduced product of two polynomials of degree below m, of degree up to 2m - 2 <= top
        q = _switch_prime(n, pick, above)
        k = _Packed(n, q)
        coeff = st.one_of(st.sampled_from([0, q - 1]), st.integers(0, q - 1))
        m = data.draw(st.integers(1, n))
        top = data.draw(st.integers(max(m, 2 * m - 2), n + m - 1))
        b = k.pack(data.draw(st.lists(coeff, min_size=m, max_size=m)) + [1])
        mod = k.barrett(b, top)
        u, v = (k.pack(data.draw(st.lists(coeff, max_size=m))) for _ in range(2))
        full, drawn = k.pack([q - 1] * m), k.pack(data.draw(st.lists(coeff, max_size=top + 1)))
        for a in (drawn, k.pack([q - 1] * (top + 1)), u * v, full * full):
            assert mod(a) == k.divmod(k.reduce(a), b)[1]

    @given(st.sampled_from(SWITCH_PRIMES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_gcd_matches_sympy(self, q, data):
        # deg p = 0 mod q half the time: p' mod q then loses its leading term
        n = data.draw(st.one_of(st.integers(1, 150), st.integers(1, 150 // q).map(lambda j: j * q)))
        coeff = st.integers(0, q - 1)
        p = data.draw(st.lists(coeff, min_size=n, max_size=n)) + [1]
        dp = [i * c for i, c in enumerate(p)][1:]
        # non-monic operands with a planted common factor
        g = data.draw(st.lists(coeff, min_size=1, max_size=1 + n // 3))
        u, v = (data.draw(st.lists(coeff, max_size=n - len(g) + 1)) for _ in range(2))
        a, b = (gf_mul(g[::-1], c[::-1], q, ZZ)[::-1] for c in (u, v))
        k = _Packed(n, q)
        for x, y in ((p, dp), (a, b)):
            want = gf_gcd(gf_strip([c % q for c in x[::-1]]), gf_strip([c % q for c in y[::-1]]), q, ZZ)
            assert k.gcd(k.pack(x), k.pack(y)) == k.pack(map(int, want[::-1]))


def _table_good_primes(p: IntPoly, count: int) -> list[int]:
    """The discriminant rule on the table: the smallest odd primes below 100 not dividing Res(p, p')."""
    disc = resultant(p, p.derivative())
    return [q for q in range(3, 100, 2) if sympy.isprime(q) and disc % q != 0][:count]


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
        assert _good_primes(p, 5) == _table_good_primes(p, 5)

    def test_table_is_the_odd_primes_below_100(self):
        assert SEPARABILITY_PRIMES == tuple(sympy.primerange(3, 100))

    def test_fewer_than_count(self):
        # every table prime below 50 divides the discriminant of (x - 1)(x - 1 - prod)
        prod = 1
        for q in SEPARABILITY_PRIMES[:14]:
            prod *= q
        p = IntPoly([-1, 1]) * IntPoly([-1 - prod, 1])
        assert _good_primes(p, 5) == _table_good_primes(p, 5) == [53, 59, 61, 67, 71]
        assert _good_primes(p * IntPoly([-1, 1]), 5) == []


class TestSquarefreeMemo:
    """The mod-q separability verdict is a function of (q, p mod q), looked up once per key."""

    @given(st.sampled_from(SWEEP_PLANS + [(92, 61), (124, 71)]), st.integers(3, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_verdict_is_the_gcd_and_has_period_q(self, nt, a):
        plan = plan_construction(*nt)
        p = build_candidate(plan, a)
        good = _good_primes(p, len(SEPARABILITY_PRIMES))
        for q in SEPARABILITY_PRIMES:
            k = _Packed(plan.t, q)
            direct = k.gcd(k.pack(p.coeffs), k.pack(p.derivative().coeffs)) == 1
            shifted = q in _good_primes(build_candidate(plan, a + q), len(SEPARABILITY_PRIMES))
            assert (q in good) == direct == shifted, (nt, a, q)

    def test_one_gcd_per_residue_class(self, monkeypatch):
        keys, gcds = [], Counter()
        memo, gcd = factor._squarefree_mod, _Packed.gcd

        def recording(q, residues):
            keys.append((q, residues))
            return memo(q, residues)

        def counting(self, a, b):
            gcds["gcd"] += 1
            return gcd(self, a, b)

        monkeypatch.setattr(factor, "_squarefree_mod", recording)
        monkeypatch.setattr(_Packed, "gcd", counting)
        memo.cache_clear()
        report = search(92, 61, 3, 40, 1)
        # every candidate is refuted at root_pattern, so no filter gcd runs
        assert not report.certificates and {check for _, check in report.failures} == {"root_pattern"}
        assert len(keys) > len(set(keys)) > 0
        assert gcds["gcd"] == len(set(keys))


class TestMultisetMemo:
    """The filter's factor degrees are a function of (q, p mod q), factored once per key, in bounded memory."""

    @given(st.sampled_from(SWEEP_PLANS + [(92, 61), (124, 71)]), st.integers(3, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_multisets_have_period_q(self, nt, a):
        plan = plan_construction(*nt)
        p = build_candidate(plan, a)
        for q in _good_primes(p, 5):
            assert _degree_multiset(p.coeffs, q) == _degree_multiset(build_candidate(plan, a + q).coeffs, q), (nt, a, q)

    def test_one_factorization_per_residue_class(self, monkeypatch):
        keys, runs = [], Counter()
        memo, kernel = factor._multiset_mod, factor._degree_multiset

        def recording(q, residues):
            keys.append((q, residues))
            return memo(q, residues)

        def counting(f, q):
            runs[q, bytes(f)] += 1
            return kernel(f, q)

        monkeypatch.setattr(factor, "_multiset_mod", recording)
        monkeypatch.setattr(factor, "_degree_multiset", counting)
        memo.cache_clear()
        report = search(92, 61, 111, 200, 1000)
        assert report.certificates and len(keys) > len(set(keys))
        assert runs == Counter(set(keys))

    def test_full_memos_stay_under_8_mb(self, monkeypatch):
        # distinct forged degree-MAX_T keys, past both memos' size; each multiset as long as a
        # degree-MAX_T one can be, and no gcd run, so that filling takes well under a second
        monkeypatch.setattr(_Packed, "gcd", lambda self, a, b: 1)
        monkeypatch.setattr(factor, "_degree_multiset", lambda f, q: (1,) * (len(f) - 1))
        rng = random.Random(97)
        factor._squarefree_mod.cache_clear()
        factor._multiset_mod.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(factor._RESIDUE_MEMO + 100):
                factor._squarefree_mod(97, bytes(rng.randrange(97) for _ in range(MAX_T)) + b"\x01")
                factor._multiset_mod(97, bytes(rng.randrange(97) for _ in range(MAX_T)) + b"\x01")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            factor._squarefree_mod.cache_clear()
            factor._multiset_mod.cache_clear()
        # bounded: an unbounded memo would also pass the figure with this many keys
        for memo in (factor._squarefree_mod, factor._multiset_mod):
            assert memo.cache_info().maxsize == factor._RESIDUE_MEMO
        assert kept < 8 * 2**20, kept


class TestSeparableModPrime:
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=9), st.integers(-6, 6), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_sound_on_monic(self, low, r, square):
        p = IntPoly(low + [1])
        if square:
            p = p * IntPoly([-r, 1]) ** 2  # a repeated root: no prime may be returned
        q = separable_mod_prime(p)
        if square:
            assert q is None
        if q is not None:
            assert q in SEPARABILITY_PRIMES and is_separable(p)
            assert resultant(p, p.derivative()) % q != 0

    def test_first_good_prime(self):
        # (x - 1)(x - 4)(x - 7) has disc divisible by 3 only among the listed primes below 5
        p = IntPoly([-1, 1]) * IntPoly([-4, 1]) * IntPoly([-7, 1])
        assert separable_mod_prime(p) == 5
        # every listed prime divides the discriminant of (x - 1)(x - 1 - prod)
        prod = 1
        for q in SEPARABILITY_PRIMES:
            prod *= q
        assert separable_mod_prime(IntPoly([-1, 1]) * IntPoly([-1 - prod, 1])) is None
