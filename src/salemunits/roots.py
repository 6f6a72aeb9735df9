"""Exact real-root counting and isolation via Sturm sequences over rational intervals.

Counts use the half-open convention (lo, hi]; open-interval helpers adjust by
exact endpoint evaluation.  Chains are normalized to primitive parts each step
(subresultant-style) so coefficients stay small, with signs corrected so the
sequence remains a genuine Sturm chain.  Each polynomial object builds its
chain once, on first use, and separability, the root pattern, counting,
isolation and refinement all read that one chain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .intpoly import IntPoly, pseudo_rem


@dataclass(frozen=True)
class IsolatingInterval:
    """Rational interval certified to contain exactly one root of a polynomial.

    When the root is rational and hit exactly, ``exact_root`` is set and
    lo == hi == root; otherwise lo < hi and the root lies in (lo, hi].
    """

    lo: Fraction
    hi: Fraction
    exact_root: Optional[Fraction] = None
    multiplicity: int = 1

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        if self.exact_root is not None:
            return x == self.exact_root
        return self.lo < x <= self.hi


@dataclass(frozen=True)
class RootPattern:
    """Classification of the distinct real roots of a polynomial against -2, 0, 1, 2."""

    below_neg2: int
    at_neg2: int
    in_neg2_2: int
    at_pos2: int
    above_pos2: int
    in_0_1: int
    separable: bool

    @property
    def total_real(self) -> int:
        return self.below_neg2 + self.at_neg2 + self.in_neg2_2 + self.at_pos2 + self.above_pos2

    def to_json_dict(self) -> dict:
        return asdict(self)


def _sign_at(coeffs: tuple[int, ...], x: Fraction) -> int:
    """Exact sign of the polynomial at x, via homogenized integer Horner."""
    if not coeffs:
        return 0
    num, den = x.numerator, x.denominator
    acc = coeffs[-1]
    dpow = 1
    for i in range(len(coeffs) - 2, -1, -1):
        dpow *= den
        acc = acc * num + coeffs[i] * dpow
    return (acc > 0) - (acc < 0)


def _sturm_sequence(f: IntPoly) -> list[IntPoly]:
    """f, f' and the negated pseudo-remainders, each reduced to its primitive part."""
    chain = [f]
    d = f.derivative()
    if not d.is_zero:
        chain.append(d.primitive())
    while len(chain) >= 2 and chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        r = pseudo_rem(a, b)
        if r.is_zero:
            break
        # pseudo_rem = lc(b)^(deg a - deg b + 1) * (a mod b); flip so the
        # stored element is a positive multiple of -(a mod b)
        nxt = r if b.lc < 0 and (a.degree - b.degree) % 2 == 0 else -r
        chain.append(nxt.scalar_div(nxt.content()))
    return chain


class SturmChain:
    """Sturm chain of the squarefree part of a polynomial, shareable read-only.

    Built from p itself, it ends in a constant iff p is separable; otherwise
    it ends in gcd(p, p') and is rebuilt from p / gcd(p, p').
    ``count(lo, hi)`` is the number of distinct real roots in (lo, hi].
    """

    def __init__(self, p: IntPoly):
        if p.is_zero:
            raise ValueError("zero polynomial")
        chain = _sturm_sequence(p.primitive())
        self.separable = chain[-1].degree == 0
        if not self.separable:
            g = chain[-1]
            chain = _sturm_sequence(chain[0].exact_div(-g if g.lc < 0 else g))
        # coefficients only: a chain kept on p must not refer back to p, or
        # freeing p would wait for the cycle collector
        self.chain = [c.coeffs for c in chain]
        self.squarefree = self.chain[0]

    def variations(self, x: Fraction) -> int:
        signs = [s for s in (_sign_at(c, x) for c in self.chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in the half-open interval (lo, hi]."""
        if lo >= hi:
            raise ValueError("need lo < hi")
        return self.variations(lo) - self.variations(hi)

    def count_open(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct roots in the open interval (lo, hi)."""
        n = self.count(lo, hi)
        if _sign_at(self.squarefree, Fraction(hi)) == 0:
            n -= 1
        return n


def _chain(p: IntPoly) -> SturmChain:
    """The chain of this polynomial object (not of its value), built on first use."""
    chain = p.__dict__.get("_sturm_chain")
    if chain is None:
        chain = SturmChain(p)
        object.__setattr__(p, "_sturm_chain", chain)
    return chain


def is_separable(p: IntPoly) -> bool:
    """True iff p has no repeated root, i.e. gcd(p, p') = 1."""
    return _chain(p).separable


def cauchy_bound(p: IntPoly) -> Fraction:
    """A rational B with every real root of p inside [-B, B]."""
    if p.is_zero or p.degree <= 0:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.lc))


def sturm_count(p: IntPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    return _chain(p).count(Fraction(lo), Fraction(hi))


def sturm_count_open(p: IntPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    return _chain(p).count_open(Fraction(lo), Fraction(hi))


def _isolate(chain: SturmChain, lo: Fraction, hi: Fraction) -> list[IsolatingInterval]:
    n = chain.count(lo, hi)
    if n == 0:
        return []
    if n == 1:
        if _sign_at(chain.squarefree, hi) == 0:
            return [IsolatingInterval(hi, hi, exact_root=hi)]
        return [IsolatingInterval(lo, hi)]
    mid = (lo + hi) / 2
    return _isolate(chain, lo, mid) + _isolate(chain, mid, hi)


def isolate_roots(p: IntPoly, lo, hi) -> list[IsolatingInterval]:
    """Disjoint isolating intervals, ascending, one per distinct root in (lo, hi]."""
    chain = _chain(p)
    if not chain.separable:
        raise ValueError("polynomial is not separable")
    return _isolate(chain, Fraction(lo), Fraction(hi))


def refine(iv: IsolatingInterval, p: IntPoly, width) -> IsolatingInterval:
    """Shrink an isolating interval to the requested width by bisection.

    The root never escapes: either exact_root is set, or the endpoint signs of
    the squarefree part keep bracketing it.
    """
    width = Fraction(width)
    if iv.exact_root is not None:
        return iv
    chain = _chain(p)
    lo, hi = iv.lo, iv.hi
    coeffs = chain.squarefree
    if _sign_at(coeffs, hi) == 0:
        return IsolatingInterval(hi, hi, exact_root=hi)
    # establish a strict sign change, bisecting by Sturm counts until then
    while _sign_at(coeffs, lo) * _sign_at(coeffs, hi) >= 0:
        mid = (lo + hi) / 2
        if _sign_at(coeffs, mid) == 0:
            return IsolatingInterval(mid, mid, exact_root=mid)
        if chain.count(lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = _sign_at(coeffs, mid)
        if smid == 0:
            return IsolatingInterval(mid, mid, exact_root=mid)
        if smid * _sign_at(coeffs, hi) < 0:
            lo = mid
        else:
            hi = mid
    return IsolatingInterval(lo, hi)


def root_pattern(p: IntPoly) -> RootPattern:
    """Classify all distinct real roots of p against the marks -2, 0, 1, 2."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return RootPattern(0, 0, 0, 0, 0, 0, True)
    chain = _chain(p)
    f = chain.squarefree
    bound = cauchy_bound(p) + 1
    at_neg2 = 1 if _sign_at(f, Fraction(-2)) == 0 else 0
    at_pos2 = 1 if _sign_at(f, Fraction(2)) == 0 else 0
    below = chain.count(-bound, Fraction(-2)) - at_neg2
    inside = chain.count(Fraction(-2), Fraction(2)) - at_pos2
    above = chain.count(Fraction(2), bound)
    in01 = chain.count_open(Fraction(0), Fraction(1))
    return RootPattern(below, at_neg2, inside, at_pos2, above, in01, chain.separable)
