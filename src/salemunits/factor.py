"""Irreducibility decisions for Salem trace polynomials, with checkable witnesses.

Strategy: a modular degree filter first (factor-degree multisets modulo several
good primes, by distinct-degree factorization on the Frobenius map; if the
subset-sum intersection is trivial the polynomial is irreducible).  When it
gives no verdict, the trace must have the Salem root pattern: one root above
2, the other t - 1 in (-2, 2).  Then any factor that lacks the large root has
all its roots in (-2, 2), so by Kronecker's theorem it is a product of
cyclotomic traces psi_m, and three exact gcds find one
(Bradford & Davenport, *Effective tests for cyclotomic polynomials*, 1988).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul
from typing import Iterable, Optional

from .intpoly import IntPoly, gcd_over_rationals
from .roots import is_separable, root_pattern

_FILTER_PRIME_COUNT = 5
KRONECKER = "kronecker-cyclotomic"


@dataclass(frozen=True)
class IrreducibilityWitness:
    """Evidence for an irreducibility verdict.

    For the filter method the stored primes and per-prime factor-degree
    multisets let a verifier replay the subset-sum argument without
    refactoring.  For a reducible verdict the stored factor divides the input
    exactly.  An irreducible Kronecker verdict stores nothing: its replay is
    the pattern check and the three gcds.  Old reports may carry the method
    "exact-factorization" with a prime, a modulus exponent and a coefficient
    bound; those are ignored, and the verdict replays as a Kronecker one.
    """

    verdict: str  # "irreducible" | "reducible"
    method: str  # "modular-degree-filter" | "kronecker-cyclotomic" | legacy "exact-factorization"
    primes: tuple[int, ...] = ()
    degree_multisets: tuple[tuple[int, ...], ...] = ()
    factor: Optional[IntPoly] = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "method": self.method}
        if self.primes:
            out["primes"] = list(self.primes)
            out["degree_multisets"] = [list(m) for m in self.degree_multisets]
        if self.factor is not None:
            out["factor"] = self.factor.to_text()
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "IrreducibilityWitness":
        return cls(
            verdict=d["verdict"],
            method=d["method"],
            primes=tuple(d.get("primes", ())),
            degree_multisets=tuple(tuple(m) for m in d.get("degree_multisets", ())),
            factor=IntPoly.from_text(d["factor"]) if "factor" in d else None,
        )


# -- arithmetic on coefficient lists modulo m --------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mp_from_poly(p: IntPoly, m: int) -> list[int]:
    return _trim([c % m for c in p.coeffs])


def _mp_sub(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c % m
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _trim(out)


def _mp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Division with remainder; lc(b) must be invertible mod m (monic is safest)."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv = pow(b[-1], -1, m)
    r = [c % m for c in a]
    q = [0] * max(len(a) - len(b) + 1, 1)
    db = len(b) - 1
    _trim(r)
    while len(r) - 1 >= db and r:
        head = (r[-1] * inv) % m
        e = len(r) - 1 - db
        q[e] = head
        for i, bc in enumerate(b):
            r[e + i] = (r[e + i] - head * bc) % m
        _trim(r)
    return _trim(q), r


def _mp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd mod p."""
    while b:
        a, b = b, _mp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 0
    return _trim([(c * inv) % p for c in a])


# -- factor degrees modulo a prime --------------------------------------------


def _degree_multiset(f: list[int], q: int) -> tuple[int, ...]:
    """Factor degrees of a monic f, squarefree mod q, by distinct-degree factorization.

    Frobenius h -> h^q is linear mod q, as h(x)^q = h(x^q), so each step is one
    product with the matrix whose row i is x^(q i) mod f (Berlekamp's Q).  h
    stays reduced mod f: gcd(h - x, rest) is unchanged, because rest | f.
    """
    n = len(f) - 1
    rows = [[1]]
    for _ in range(1, n):
        rows.append(_mp_divmod([0] * q + rows[-1], f, q)[1])
    cols = [[r[j] if j < len(r) else 0 for r in rows] for j in range(n)]
    degs: list[int] = []
    rest, h, d = f, [0, 1], 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = [sum(map(mul, h, col)) % q for col in cols]
        g = _mp_gcd(_mp_sub(h, [0, 1], q), rest, q)
        if len(g) > 1:
            degs += [d] * ((len(g) - 1) // d)
            rest = _mp_divmod(rest, g, q)[0]
    if len(rest) > 1:
        degs.append(len(rest) - 1)
    return tuple(sorted(degs))


# -- the decision procedure -----------------------------------------------------


def _good_primes(p: IntPoly, count: int) -> list[int]:
    """Smallest odd primes q not dividing disc(p), so reduction mod q stays squarefree.

    For monic p that is gcd(p mod q, p' mod q) = 1, which avoids computing disc(p).
    """
    dp = p.derivative()
    out: list[int] = []
    cand = 3
    while len(out) < count:
        if _is_prime(cand) and _mp_gcd(_mp_from_poly(p, cand), _mp_from_poly(dp, cand), cand) == [1]:
            out.append(cand)
        cand += 2
    return out


def _is_prime(n: int) -> bool:
    """Trial division: the candidates are the small odd numbers _good_primes walks."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _filter_proves_irreducible(deg: int, multisets: Iterable[Iterable[int]]) -> bool:
    """True when the subset sums of the factor degrees mod every prime meet only in 0 and deg."""
    inter = (1 << (deg + 1)) - 1
    for ms in multisets:
        mask = 1
        for d in ms:
            mask |= mask << d
        inter &= mask
    return inter == 1 | 1 << deg


def _reflect(p: IntPoly) -> IntPoly:
    """p(-x)."""
    return IntPoly(-c if i % 2 else c for i, c in enumerate(p.coeffs))


def _graeffe_trace(p: IntPoly) -> IntPoly:
    """The monic T2 with T2(x^2 - 2) = (-1)^t p(x) p(-x), t = deg p: its roots are beta^2 - 2."""
    even = (p * _reflect(p)).coeffs[::2]  # p(x) p(-x) = E(x^2)
    out = IntPoly()
    for c in reversed(even):  # E(y + 2) by Horner
        out = out * IntPoly([2, 1]) + c
    return -out if out.lc < 0 else out


def _cyclotomic_factor(p: IntPoly) -> Optional[IntPoly]:
    """A proper monic factor of a trace with the Salem pattern, or None when it is irreducible.

    A root 2cos(2 pi k/m) of psi_m maps under beta -> beta^2 - 2 to a root of
    psi_m for m odd, and to one of psi_m(-x) for m = 2 (mod 4); for 4 | m,
    psi_m(-x) = +-psi_m(x).  So psi_m | p makes gcd(p, T2), gcd(p(-x), T2) or
    gcd(p, p(-x)) nonconstant, in that order.  The large root beta_0 keeps
    each gcd proper: beta_0^2 - 2 > beta_0, and -beta_0 < -2 is neither a root
    of p nor of T2.
    """
    neg = _reflect(p)
    t2 = _graeffe_trace(p)
    for a, b, flip in ((p, t2, False), (neg, t2, True), (p, neg, False)):
        g = gcd_over_rationals(a, b)
        if g.degree > 0:
            if flip:
                g = _reflect(g)
            return -g if g.lc < 0 else g
    return None


def _has_salem_pattern(p: IntPoly) -> bool:
    return p.is_monic and root_pattern(p).is_salem(int(p.degree))


# keeps the name of the fallback it replaced: the benchmark tracer patches it by name
def _zassenhaus(p: IntPoly) -> IrreducibilityWitness:
    """Kronecker's test on a trace with the Salem pattern; ValueError without it."""
    if not _has_salem_pattern(p):
        raise ValueError("the filter gave no verdict, and the Kronecker test needs the Salem root pattern")
    g = _cyclotomic_factor(p)
    if g is None:
        return IrreducibilityWitness(verdict="irreducible", method=KRONECKER)
    return IrreducibilityWitness(verdict="reducible", method=KRONECKER, factor=g)


def is_irreducible(p: IntPoly) -> IrreducibilityWitness:
    """Decide irreducibility over Q of a monic squarefree trace polynomial.

    Returns a witness that can be re-verified from its stored detail alone
    (see :func:`verify_witness`).  Raises ValueError on non-monic,
    non-squarefree or constant input, and when the filter gives no verdict on
    a polynomial without the Salem root pattern.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    if p.degree > 1 and not is_separable(p):
        raise ValueError("polynomial must be squarefree")
    deg = int(p.degree)
    primes = _good_primes(p, _FILTER_PRIME_COUNT)
    multisets = [_degree_multiset(_mp_from_poly(p, q), q) for q in primes]
    if _filter_proves_irreducible(deg, multisets):
        return IrreducibilityWitness(
            verdict="irreducible",
            method="modular-degree-filter",
            primes=tuple(primes),
            degree_multisets=tuple(multisets),
        )
    return _zassenhaus(p)


def verify_witness(p: IntPoly, witness: IrreducibilityWitness) -> bool:
    """Replay a witness from its stored detail without re-deciding.

    Reducible: one exact division.  Filter: recompute the subset-sum
    intersection from the stored degree multisets.  Kronecker (and the legacy
    exact-factorization method): check the Salem pattern from the chain kept
    on p, then run the three gcds.
    """
    if witness.verdict == "reducible":
        f = witness.factor
        if f is None or f.degree < 1 or f.degree >= p.degree:
            return False
        try:
            p.exact_div(f)
        except ValueError:
            return False
        return True
    if witness.verdict != "irreducible":
        return False
    if witness.method == "modular-degree-filter":
        if not witness.primes or len(witness.primes) != len(witness.degree_multisets):
            return False
        deg = int(p.degree)
        for ms in witness.degree_multisets:
            if not all(type(d) is int and d > 0 for d in ms) or sum(ms) != deg:
                return False
        return _filter_proves_irreducible(deg, witness.degree_multisets)
    if witness.method in (KRONECKER, "exact-factorization"):
        return _has_salem_pattern(p) and _cyclotomic_factor(p) is None
    return False
