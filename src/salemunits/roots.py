"""Exact real-root counting and isolation via Sturm sequences over rational intervals.

Counts use the half-open convention (lo, hi]; open-interval helpers adjust by
exact endpoint evaluation.  A chain is the subresultant pseudo-remainder
sequence of (f, f') from the one kernel in ``intpoly``: each step divides by a
known exact divisor instead of taking a content gcd, and each element is
signed so the sequence is a genuine Sturm chain.  Each polynomial object
builds its chain once, on first use, and separability, the root pattern,
counting and isolation read that one chain, unless sign changes at given
points prove the pattern, or at an interval's ends isolate a root to refine.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .intpoly import IntPoly, subresultant_prs


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
    if den == 1:
        if num == 0:
            return coeffs[0]
        if num == 1:
            return sum(coeffs)
        for i in range(len(coeffs) - 2, -1, -1):
            acc = acc * num + coeffs[i]
        return acc
    dpow = 1
    for i in range(len(coeffs) - 2, -1, -1):
        dpow *= den
        acc = acc * num + coeffs[i] * dpow
    return acc


def _laguerre_fails(f: tuple[int, ...], d1: tuple[int, ...], d2: tuple[int, ...], num: int, den: int) -> bool:
    """(t-1) f'(x)^2 < t f(x) f''(x) at x = num/den, t = deg f >= 2, with d1 = f' and d2 = f''.

    The homogenized values scale both sides by den^(2t-2), so the sign is exact.
    """
    t = len(f) - 1
    v1 = _value_at(d1, num, den)
    return (t - 1) * v1 * v1 < t * _value_at(f, num, den) * _value_at(d2, num, den)


def laguerre_fails(p: IntPoly, x) -> bool:
    """True when Laguerre's inequality (t-1) p'(x)^2 - t p(x) p''(x) >= 0 fails at x; t = deg p.

    The inequality holds on all of R for every real-rooted p (Polya & Szego,
    *Problems and Theorems in Analysis II*, Part V), so a failure at one
    rational x proves p has a non-real root.  It fails near every negative
    local maximum and every positive local minimum.
    """
    if p.is_zero or p.degree < 2:
        return False
    x = Fraction(x)
    d1 = p.derivative()
    return _laguerre_fails(p.coeffs, d1.coeffs, d1.derivative().coeffs, x.numerator, x.denominator)


def _variations(values: list[int]) -> int:
    """Sign changes along a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_sequence(f: IntPoly) -> list[tuple[int, ...]]:
    """f, f' and the subresultant PRS of (f, f'), each element signed into a Sturm chain.

    Stored element i is e_i * P_i times a positive factor, P the PRS.  Since
    P_i+1 = prem(P_i-1, P_i) / beta and prem(a, b) = lc(b)^(delta+1) (a mod b),
    the Sturm element -(S_i-1 mod S_i) has the sign
    e_i+1 = -e_i-1 * sign(beta) * sign(lc P_i)^(delta+1) against P_i+1.  So
    each element is a positive multiple of the primitive-part Sturm chain.
    """
    d = f.derivative().primitive()
    if d.is_zero:
        return [f.coeffs]
    chain = [f.coeffs, d.coeffs]
    # signs of the last two stored elements against the PRS ones, and lc of the last PRS one
    prev, cur, lcb = 1, 1, d.lc
    for r, delta, beta, _ in subresultant_prs(f.coeffs, d.coeffs):
        flips = 1 + (beta < 0) + (lcb < 0 and delta % 2 == 0)
        prev, cur = cur, (prev if flips % 2 == 0 else -prev)
        chain.append(tuple(r) if cur > 0 else tuple(-c for c in r))
        lcb = r[-1]
    return chain


class SturmChain:
    """Sturm chain of the squarefree part of a polynomial, shareable read-only.

    Built from p itself, it ends in a constant iff p is separable; otherwise
    it ends in a multiple of gcd(p, p') and is rebuilt from p / gcd(p, p').
    ``count(lo, hi)`` is the number of distinct real roots in (lo, hi].
    """

    def __init__(self, p: IntPoly):
        if p.is_zero:
            raise ValueError("zero polynomial")
        f = p.primitive()
        chain = _sturm_sequence(f)
        self.separable = len(chain[-1]) == 1
        if not self.separable:
            g = IntPoly(chain[-1]).primitive()
            chain = _sturm_sequence(f.exact_div(-g if g.lc < 0 else g))
        # coefficients only: a chain kept on p must not refer back to p, or
        # freeing p would wait for the cycle collector
        self.chain = chain
        self.squarefree = chain[0]

    def variations(self, x: Fraction) -> int:
        """Sign changes of the chain at a rational (or integer) x."""
        num, den = x.numerator, x.denominator
        return _variations([_value_at(c, num, den) for c in self.chain])

    def variations_at_infinity(self, side: int) -> int:
        """Sign changes at +inf (side 1) or -inf (side -1), read from the leading coefficients.

        No root of the squarefree part lies beyond its Cauchy bound, so this
        equals the count at any point past that bound on the same side.
        """
        return _variations([c[-1] if side > 0 or len(c) % 2 else -c[-1] for c in self.chain])

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
    lo, hi = iv.lo, iv.hi
    # the chain's squarefree part is needed only without a strict sign change of p
    coeffs = p.coeffs if _sign_at(p.coeffs, lo) * _sign_at(p.coeffs, hi) < 0 else _chain(p).squarefree
    slo, shi = _sign_at(coeffs, lo), _sign_at(coeffs, hi)
    if shi == 0:
        return _exact(hi)
    # establish a strict sign change, bisecting by Sturm counts until then;
    # that needs exactly one root in (lo, hi], or the bisection never ends
    if slo * shi >= 0 and _chain(p).count(lo, hi) != 1:
        raise ValueError("interval does not isolate a root")
    while slo * shi >= 0:
        mid = (lo + hi) / 2
        smid = _sign_at(coeffs, mid)
        if smid == 0:
            return _exact(mid)
        if _chain(p).count(lo, mid) == 1:
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


def _interlacing_pattern(f: tuple[int, ...], nums: Sequence[int], den: int) -> Optional[RootPattern]:
    """The pattern of f, of degree t >= 1, from t sign changes across the points num/den; else None.

    The marks -2, 0, 1 and 2 join the points, and f must be nonzero at each.
    Each change, from the sign at -inf on, puts a root in its gap, so t of
    them prove t simple real roots, whatever the points; the marks split them.
    """
    t = len(f) - 1
    upto, changes, prev = {}, 0, f[-1] if t % 2 == 0 else -f[-1]
    marks = (-2 * den, 0, den, 2 * den)
    for x in sorted({*nums, *marks}):
        v = _value_at(f, x, den)
        if v == 0:
            return None
        changes += (v > 0) != (prev > 0)
        upto[x], prev = changes, v
    if changes != t:
        return None
    below, c0, c1, c2 = (upto[x] for x in marks)
    return RootPattern(below, 0, c2 - below, 0, t - c2, c1 - c0, True)


def root_pattern(p: IntPoly, points: Optional[tuple[Sequence[int], int]] = None) -> RootPattern:
    """Classify all distinct real roots of p against the marks -2, 0, 1, 2.

    When p changes sign strictly across the hints ``points`` = (numerators,
    denominator), that proves the pattern (``_interlacing_pattern``).  Else the
    chain is read once at each mark: at -inf and +inf from its leading
    coefficients, and at -2, 0, 1 and 2 by integer evaluation.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return RootPattern(0, 0, 0, 0, 0, 0, True)
    pattern = None if points is None else _interlacing_pattern(p.coeffs, *points)
    if pattern is not None:
        return pattern
    chain = _chain(p)
    f = chain.squarefree
    at_neg2 = 1 if _value_at(f, -2, 1) == 0 else 0
    at_pos2 = 1 if _value_at(f, 2, 1) == 0 else 0
    v_neg2, v2 = chain.variations(-2), chain.variations(2)
    below = chain.variations_at_infinity(-1) - v_neg2 - at_neg2
    inside = v_neg2 - v2 - at_pos2
    above = v2 - chain.variations_at_infinity(1)
    in01 = chain.variations(0) - chain.variations(1) - (1 if sum(f) == 0 else 0)
    return RootPattern(below, at_neg2, inside, at_pos2, above, in01, chain.separable)
