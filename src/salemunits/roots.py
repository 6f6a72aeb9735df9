"""Exact real-root counting and isolation via Sturm sequences over rational intervals.

Counts use the half-open convention (lo, hi]; open-interval helpers adjust by
exact endpoint evaluation.  Chains are normalized to primitive parts each step
(subresultant-style) so coefficients stay small, with signs corrected so the
sequence remains a genuine Sturm chain.  Each polynomial object builds its
chain once, on first use, and separability, the root pattern, counting,
isolation and refinement all read that one chain.
"""

from __future__ import annotations

import math
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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


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

    def is_salem(self, degree: int) -> bool:
        """One root above 2 and degree - 1 in (-2, 2): then all degree roots are real and simple."""
        return self.above_pos2 == 1 and self.in_neg2_2 == degree - 1

    def to_json_dict(self) -> dict:
        return asdict(self)


def _sign_at(coeffs: tuple[int, ...], x: Fraction) -> int:
    """Exact sign of the polynomial at x, via homogenized integer Horner."""
    if not coeffs:
        return 0
    v = _value_at(coeffs, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _value_at(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den^deg * p(num/den) for den > 0, by homogenized integer Horner; it has the sign of p."""
    acc = coeffs[-1]
    dpow = 1
    for i in range(len(coeffs) - 2, -1, -1):
        dpow *= den
        acc = acc * num + coeffs[i] * dpow
    return acc


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


def _exact(x: Fraction) -> IsolatingInterval:
    return IsolatingInterval(x, x, exact_root=x)


def refine(iv: IsolatingInterval, p: IntPoly, width) -> IsolatingInterval:
    """Shrink an isolating interval to at most the requested width.

    Once the endpoint signs of the squarefree part change strictly, the root
    is located on the dyadic grid that bisection would walk, by quadratic
    interval refinement (see ``_refine_on_grid``).  The result is the grid
    cell, or the exact grid-point root, that bisection returns, but once the
    secant steps land each one doubles the bits gained, where bisection gains
    one bit per exact evaluation.  Raises ValueError when the interval has
    no strict sign change at its endpoints and does not hold exactly one root.
    """
    width = Fraction(width)
    if iv.exact_root is not None:
        return iv
    if width <= 0:
        raise ValueError("width must be positive")
    chain = _chain(p)
    lo, hi = iv.lo, iv.hi
    coeffs = chain.squarefree
    slo, shi = _sign_at(coeffs, lo), _sign_at(coeffs, hi)
    if shi == 0:
        return _exact(hi)
    # establish a strict sign change, bisecting by Sturm counts until then;
    # that needs exactly one root in (lo, hi], or the bisection never ends
    if slo * shi >= 0 and chain.count(lo, hi) != 1:
        raise ValueError("interval does not isolate a root")
    while slo * shi >= 0:
        mid = (lo + hi) / 2
        smid = _sign_at(coeffs, mid)
        if smid == 0:
            return _exact(mid)
        if chain.count(lo, mid) == 1:
            hi, shi = mid, smid
        else:
            lo, slo = mid, smid
    ratio = (hi - lo) / width
    if ratio <= 1:
        return IsolatingInterval(lo, hi)
    # the least level m with (hi - lo) / 2^m <= width
    levels = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    return _refine_on_grid(coeffs, lo, hi, levels)


def _refine_on_grid(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction, levels: int) -> IsolatingInterval:
    """Abbott's quadratic interval refinement, kept on the dyadic grid of (lo, hi).

    (lo, hi) holds one simple root with a strict sign change.  A cell on the
    level-k grid is [x_j, x_j+1] with x_j = lo + j (hi - lo) / 2^k.  Each step
    splits the cell into N = 2^e parts and tests, by exact signs, the part the
    secant through the endpoint values points at; a hit squares N, a miss
    halves e and bisects.  N is capped at the remaining levels, so the loop
    ends on the level-``levels`` cell holding the root, or on a grid point
    where p is 0, exactly as bisection would.  All values at level k are
    scaled by the same (den 2^k)^deg, so the secant needs only integers.
    """
    d = len(coeffs) - 1
    w = hi - lo
    den = math.lcm(lo.denominator, w.denominator)
    lnum, wnum = lo.numerator * (den // lo.denominator), w.numerator * (den // w.denominator)

    def point(j: int, k: int) -> Fraction:
        return Fraction((lnum << k) + j * wnum, den << k)

    def value(j: int, k: int) -> int:
        return _value_at(coeffs, (lnum << k) + j * wnum, den << k)

    k = j = 0
    vlo, vhi = value(0, 0), value(1, 0)
    e = 2
    while k < levels:
        step = min(e, levels - k)
        n, base, kk = 1 << step, j << step, k + step
        vals = {0: vlo << d * step, n: vhi << d * step}
        # secant estimate of the root, rounded to the nearest of the n + 1 points
        guess = (2 * n * vlo + vlo - vhi) // (2 * (vlo - vhi))
        if 0 < guess < n:
            vals[guess] = value(base + guess, kk)
            if vals[guess] == 0:
                return _exact(point(base + guess, kk))
            part = guess - 1 if (vals[guess] > 0) == (vhi > 0) else guess
        else:
            part = min(guess, n - 1)
        for i in (part, part + 1):
            if i not in vals:
                vals[i] = value(base + i, kk)
                if vals[i] == 0:
                    return _exact(point(base + i, kk))
        if (vals[part] > 0) != (vals[part + 1] > 0):
            k, j, vlo, vhi = kk, base + part, vals[part], vals[part + 1]
            e *= 2
            continue
        e = max(1, e // 2)
        vmid = value(2 * j + 1, k + 1)
        if vmid == 0:
            return _exact(point(2 * j + 1, k + 1))
        if (vmid > 0) == (vhi > 0):
            j, vlo, vhi = 2 * j, vlo << d, vmid
        else:
            j, vlo, vhi = 2 * j + 1, vmid, vhi << d
        k += 1
    return IsolatingInterval(point(j, k), point(j + 1, k))


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
