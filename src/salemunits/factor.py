"""Irreducibility decisions for Salem trace polynomials, with checkable witnesses.

Strategy: a modular degree filter first (factor-degree multisets modulo several
good primes, by distinct-degree factorization on the Frobenius map; if the
subset-sum intersection is trivial the polynomial is irreducible).  It runs on
coefficients packed into one int, w = 2 bits((n + 1) q^2) + bits(q) bits to a
coefficient at degree n mod q, so a division step is a few bigint operations.
When it gives no verdict, the trace must have the Salem root pattern: one root
above 2, the other t - 1 in (-2, 2).  Then any factor that lacks the large root
has all its roots in (-2, 2), so by Kronecker's theorem it is a product of
cyclotomic traces psi_m, and three exact gcds find one (Bradford & Davenport,
*Effective tests for cyclotomic polynomials*, 1988).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Optional, Sequence

from .intpoly import IntPoly, gcd_over_rationals
from .roots import is_separable, root_pattern

_FILTER_PRIME_COUNT = 5
SEPARABILITY_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
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


class _Packed:
    """Polynomials of degree at most n mod a prime q: coefficient i in bits [w i, w i + w) of one int.

    A slot stays below bound = (n + 1) q^2 between reductions: a division adds
    at most n terms c (q - b_i) < q^2 to each slot of a reduced input, and a
    Frobenius product sums n terms under q^2.  reduce() takes every slot mod q at
    once by floor(x / q) = (x m) >> s, m = ceil(2^s / q), exact as 2^s >= bound q
    (Granlund & Montgomery, 1994); w = s + bits(bound) keeps x m inside its slot.
    """

    def __init__(self, n: int, q: int):
        self.q, self.bound = q, (n + 1) * q * q
        self.s = s = self.bound.bit_length() + q.bit_length()
        self.w = w = s + self.bound.bit_length()
        self.m, self.slot = -(-(1 << s) // q), (1 << w) - 1
        self.ones = ((1 << (w * (n + 1))) - 1) // self.slot  # 1 in each of n + 1 slots
        self.quot_mask = self.ones * ((1 << (w - s)) - 1)

    def pack(self, coeffs: Iterable[int]) -> int:
        return sum((c % self.q) << (self.w * i) for i, c in enumerate(coeffs))

    def degree(self, a: int) -> int:
        """The degree of a reduced a; -1 for zero."""
        return (a.bit_length() - 1) // self.w

    def reduce(self, a: int) -> int:
        return a - self.q * ((a * self.m >> self.s) & self.quot_mask)

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """Quotient and remainder of reduced a by reduced nonzero b, both reduced."""
        q, w, db = self.q, self.w, self.degree(b)
        inv = pow(b >> (w * db), -1, q)
        comp = (q * self.ones - b) & ((1 << (w * db)) - 1)  # q - b_i under the top slot: no borrows
        quo = 0
        for top in range(self.degree(a), db - 1, -1):
            head = a >> (w * top)
            a -= head << (w * top)  # clear the top slot, now 0 mod q
            c = head * inv % q
            a += c * comp << (w * (top - db))
            quo |= c << (w * (top - db))
        return quo, self.reduce(a)

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of reduced a and b."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.reduce(a * pow(a >> (self.w * self.degree(a)), -1, self.q)) if a else 0


def _degree_multiset(f: Sequence[int], q: int) -> tuple[int, ...]:
    """Factor degrees of a monic f, squarefree mod q, by distinct-degree factorization.

    Frobenius h -> h^q is linear mod q, as h(x)^q = h(x^q), so each step is one
    product with the matrix whose row i is x^(q i) mod f (Berlekamp's Q).  h
    stays reduced mod f: gcd(h - x, rest) is unchanged, because rest | f.
    """
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


# -- the decision procedure -----------------------------------------------------


def _good_primes(p: IntPoly, count: int) -> list[int]:
    """Smallest odd primes q not dividing disc(p), so reduction mod q stays squarefree.

    For monic p that is gcd(p mod q, p' mod q) = 1, which avoids computing disc(p).
    """
    dp = p.derivative()
    out: list[int] = []
    cand = 3
    while len(out) < count:
        if _is_prime(cand) and _coprime_mod(p, dp, cand):
            out.append(cand)
        cand += 2
    return out


def _coprime_mod(a: IntPoly, b: IntPoly, q: int) -> bool:
    """gcd(a mod q, b mod q) = 1, for deg b <= deg a.

    For monic a and b = a', that proves a squarefree over Q: a repeated factor
    of a would be monic in Z[x] (Gauss's lemma) and divide both mod q.
    """
    k = _Packed(int(a.degree), q)
    return k.gcd(k.pack(a.coeffs), k.pack(b.coeffs)) == 1


def separable_mod_prime(p: IntPoly) -> Optional[int]:
    """The first prime q of SEPARABILITY_PRIMES with gcd(p mod q, p' mod q) = 1, or None.

    For monic p of degree at least 1, such a q proves p separable.
    """
    dp = p.derivative()
    return next((q for q in SEPARABILITY_PRIMES if _coprime_mod(p, dp, q)), None)


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
    # a prime q with gcd(p mod q, p' mod q) = 1 proves it without a Sturm chain
    if p.degree > 1 and separable_mod_prime(p) is None and not is_separable(p):
        raise ValueError("polynomial must be squarefree")
    deg = int(p.degree)
    primes = _good_primes(p, _FILTER_PRIME_COUNT)
    multisets = [_degree_multiset(p.coeffs, q) for q in primes]
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
