"""Exact real-root counting and isolation via Sturm sequences over rational intervals.

Counts use the half-open convention (lo, hi]; open-interval helpers adjust by
exact endpoint evaluation.  Every value and sign is ``intpoly._value_at``'s,
the one exact evaluator.  A chain is the subresultant pseudo-remainder
sequence of (f, f') from the one kernel in ``intpoly``: each step divides by a
known exact divisor instead of taking a content gcd, and each element is
signed so the sequence is a genuine Sturm chain.  Each query builds its own
chain, if it needs one: the hinted roots of a nearby real-rooted polynomial
can decide the root pattern, and sign changes at an interval's ends let
``refine`` work on p alone.  A caller proves a polynomial's ``RootPattern``
once and passes that value on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .factor import separable_mod_prime
from .intpoly import IntPoly, _sign_at, _value_at, subresultant_prs

# bisections of the walk along p' from a wrongly signed arch midpoint towards the arch's peak
_WALK_STEPS = 6


@dataclass(frozen=True)
class IsolatingInterval:
    """Rational interval certified to contain exactly one root of a polynomial.

    lo == hi is a rational root hit exactly; otherwise lo < hi and the root
    lies in (lo, hi].
    """

    lo: Fraction
    hi: Fraction

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


def _laguerre_fails(f: tuple[int, ...], d1: tuple[int, ...], d2: tuple[int, ...], num: int, den: int) -> bool:
    """(t-1) f'(x)^2 < t f(x) f''(x) at x = num/den, t = deg f >= 2, with d1 = f' and d2 = f''.

    The homogenized values scale both sides by den^(2t-2), so the sign is exact.
    """
    t = len(f) - 1
    v1 = _value_at(d1, num, den)
    return (t - 1) * v1 * v1 < t * _value_at(f, num, den) * _value_at(d2, num, den)


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


def is_separable(p: IntPoly) -> bool:
    """True iff p has no repeated root, i.e. gcd(p, p') = 1."""
    return SturmChain(p).separable


def cauchy_bound(p: IntPoly) -> Fraction:
    """A rational B with every real root of p inside [-B, B]."""
    if p.is_zero or p.degree <= 0:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.lc))


def sturm_count(p: IntPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    return SturmChain(p).count(Fraction(lo), Fraction(hi))


def sturm_count_open(p: IntPoly, lo, hi) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    chain, hi = SturmChain(p), Fraction(hi)
    return chain.count(Fraction(lo), hi) - (_sign_at(chain.squarefree, hi) == 0)


def _isolate(chain: SturmChain, lo: Fraction, hi: Fraction) -> list[IsolatingInterval]:
    n = chain.count(lo, hi)
    if n == 0:
        return []
    if n == 1:
        if _sign_at(chain.squarefree, hi) == 0:
            return [_exact(hi)]
        return [IsolatingInterval(lo, hi)]
    mid = (lo + hi) / 2
    return _isolate(chain, lo, mid) + _isolate(chain, mid, hi)


def isolate_roots(p: IntPoly, lo, hi) -> list[IsolatingInterval]:
    """Disjoint isolating intervals, ascending, one per distinct root in (lo, hi]."""
    chain = SturmChain(p)
    if not chain.separable:
        raise ValueError("polynomial is not separable")
    return _isolate(chain, Fraction(lo), Fraction(hi))


def _exact(x: Fraction) -> IsolatingInterval:
    return IsolatingInterval(x, x)


def refine(iv: IsolatingInterval, p: IntPoly, width, near: Optional[Fraction] = None) -> IsolatingInterval:
    """Shrink an isolating interval to at most the requested width.

    Once the endpoint signs of the squarefree part change strictly, the root
    is located on the dyadic grid that bisection would walk, by quadratic
    interval refinement (see ``_refine_on_grid``).  The result is the grid
    cell, or the exact grid-point root, that bisection returns, but once the
    secant steps land each one doubles the bits gained, where bisection gains
    one bit per exact evaluation.  ``near``, any guess at the root, only picks
    the cell of that grid the walk starts from, so it never changes the result.
    Raises ValueError when the interval has no strict sign change at its
    endpoints and does not hold exactly one root.
    """
    width = Fraction(width)
    if iv.lo == iv.hi and _sign_at(p.coeffs, iv.lo) == 0:
        return iv  # an exact root
    if width <= 0:
        raise ValueError("width must be positive")
    lo, hi, coeffs, chain = iv.lo, iv.hi, p.coeffs, None
    vlo, vhi = (_value_at(coeffs, x.numerator, x.denominator) for x in (lo, hi))
    if vlo * vhi >= 0:  # the chain, and its squarefree part, are needed only without a strict sign change of p
        chain = SturmChain(p)
        coeffs = chain.squarefree
        vlo, vhi = (_value_at(coeffs, x.numerator, x.denominator) for x in (lo, hi))
    if vhi == 0:
        return _exact(hi)
    # establish a strict sign change, bisecting by Sturm counts until then;
    # that needs exactly one root in (lo, hi], or the bisection never ends
    if vlo * vhi >= 0 and chain.count(lo, hi) != 1:
        raise ValueError("interval does not isolate a root")
    while vlo * vhi >= 0:
        mid = (lo + hi) / 2
        vmid = _value_at(coeffs, mid.numerator, mid.denominator)
        if vmid == 0:
            return _exact(mid)
        if chain.count(lo, mid) == 1:
            hi, vhi = mid, vmid
        else:
            lo, vlo = mid, vmid
    ratio = (hi - lo) / width
    if ratio <= 1:
        return IsolatingInterval(lo, hi)
    # the least level m with (hi - lo) / 2^m <= width
    levels = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
    return _refine_on_grid(coeffs, lo, hi, levels, (vlo, vhi), near)


def _refine_on_grid(
    coeffs: tuple[int, ...], lo: Fraction, hi: Fraction, levels: int, ends: tuple[int, int], near: Optional[Fraction]
) -> IsolatingInterval:
    """Abbott's quadratic interval refinement, kept on the dyadic grid of (lo, hi).

    (lo, hi) holds one simple root with a strict sign change, and ``ends`` are
    p's values at lo and hi from ``_value_at``.  A cell on the
    level-k grid is [x_j, x_j+1] with x_j = lo + j (hi - lo) / 2^k.  Each step
    splits the cell into N = 2^e parts and tests, by exact signs, the part the
    secant through the endpoint values points at; a hit squares N, a miss
    halves e and bisects.  N is capped at the remaining levels, so the loop
    ends on the level-``levels`` cell holding the root, or on a grid point
    where p is 0, exactly as bisection would.  All values at level k are
    scaled by the same (den 2^k)^deg, so the secant needs only integers.
    Given ``near`` in (lo, hi), of denominator D, the walk starts with e = log2 D
    at the level k0 <= ``levels`` where cells are 2 to 4 units of 1/D wide, on
    near's cell or the neighbour its ends' one sign points to, if that cell's
    ends change sign strictly: it then holds the only root, and the walk below
    it is that of the level-0 start, which is taken otherwise.
    """
    d = len(coeffs) - 1
    w = hi - lo
    den = math.lcm(lo.denominator, w.denominator)
    lnum, wnum = lo.numerator * (den // lo.denominator), w.numerator * (den // w.denominator)

    def point(j: int, k: int) -> Fraction:
        return Fraction((lnum << k) + j * wnum, den << k)

    def value(j: int, k: int) -> int:
        return _value_at(coeffs, (lnum << k) + j * wnum, den << k)

    k, j, e = 0, 0, 2
    vlo, vhi = (v * (den // x.denominator) ** d for v, x in zip(ends, (lo, hi)))
    k0 = 0 if near is None or not lo < near < hi else min(levels, math.ceil(w * near.denominator).bit_length() - 2)
    if k0 > 0:
        c = (near - lo) * (1 << k0) // w
        a, b = value(c, k0), value(c + 1, k0)
        if a * b > 0:  # the root is past one end of near's cell: step to the neighbour on its side
            c, a, b = (c + 1, b, value(c + 2, k0)) if (b > 0) == (ends[0] > 0) else (c - 1, value(c - 1, k0), a)
        if a * b < 0:
            k, j, vlo, vhi, e = k0, c, a, b, max(2, near.denominator.bit_length() - 1)
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


def _hinted_pattern(
    p: IntPoly, nums: Sequence[int], den: int, known: Optional[Callable] = None
) -> tuple[Optional[RootPattern], Optional[tuple[Fraction, int]]]:
    """Decide the pattern of p, of degree t >= 1, from hints: t roots num/den of a monic P, p = P - 1 in mind.

    Returns (pattern, None) when p changes sign strictly t times across the
    points, (None, (x, q)) when it refutes real-rootedness, else (None, None).
    The points are the midpoints of consecutive hints, one past each end and
    the marks -2, 0, 1 and 2, each evaluated once.  Each sign change, from the
    sign at -inf on, puts a root in its gap, so t of them prove t simple real
    roots, whatever the points; the marks split them.  The midpoints of the
    positive arches of P (P > 0 between two hints) come first, narrowest
    first: p = P - 1 < 0 there means the arch may peak below 1, where p has a
    negative local maximum.  Then the walk climbs along p' and tests
    Laguerre's inequality; a failure at x, with a prime q that proves the
    monic p separable (``separable_mod_prime``), is the refutation.
    Only signs are read: the lookup ``known(p)``, called once, gives values
    where it can; the rest are Horner's, at denominator 1 at an integer point.
    """
    f, t = p.coeffs, len(p.coeffs) - 1
    if len(nums) != t or den < 1:
        return None, None
    r, one = sorted(nums), 2 * den  # points are numerators over 2 den
    mids = [x + y for x, y in zip(r, r[1:])]
    values, d1, at = {}, None, known(p) if known else None

    def value(x: int) -> int:
        if x not in values:
            v = at and at(x)
            values[x] = v if v is not None else _value_at(f, *((x // one, 1) if x % one == 0 else (x, one)))
        return values[x]

    for i in sorted(range((t - 1) % 2, t - 1, 2), key=lambda i: r[i + 1] - r[i]):
        v = value(mids[i])
        if v >= 0 or f[-1] != 1:
            continue
        if d1 is None:
            dp = p.derivative()
            d1, d2 = dp.coeffs, dp.derivative().coeffs
        wden, lo, hi = den << _WALK_STEPS, r[i] << _WALK_STEPS, r[i + 1] << _WALK_STEPS
        mid = (lo + hi) >> 1
        for _ in range(_WALK_STEPS):
            if _value_at(d1, mid, wden) > 0:  # p' > 0 left of the peak
                lo = mid
            else:
                hi = mid
            mid = (lo + hi) >> 1
        if _laguerre_fails(f, d1, d2, mid, wden):
            q = separable_mod_prime(p)  # without it the chain decides: p is not real-rooted either way
            return None, None if q is None else (Fraction(mid, wden), q)
    upto, changes, prev = {}, 0, f[-1] if t % 2 == 0 else -f[-1]
    marks = (-2 * one, 0, one, 2 * one)
    for x in sorted({2 * r[0] - one, *mids, 2 * r[-1] + one, *marks}):
        v = value(x)
        if v == 0:
            return None, None
        changes += (v > 0) != (prev > 0)
        upto[x], prev = changes, v
    if changes != t:
        return None, None
    below, c0, c1, c2 = (upto[x] for x in marks)
    return RootPattern(below, 0, c2 - below, 0, t - c2, c1 - c0, True), None


def root_pattern(p: IntPoly, hints: Optional[tuple] = None) -> Optional[RootPattern]:
    """Classify all distinct real roots of p against the marks -2, 0, 1, 2.

    ``hints`` = (numerators, denominator[, known]) are the t = deg p roots of a
    monic real-rooted P with p = P - 1 in mind; other hints are ignored.  They
    prove the pattern by sign changes, or, for monic p, return None: "separable
    and not real-rooted", by Laguerre's inequality and a prime
    (``_hinted_pattern``).  ``known(p)``, called here, gives p's values at
    points, so no Horner runs there; ``product_roots``' checks p against its
    plan first, so they are exact.  Every answer is exact whatever the points.
    Else the chain is read once at each mark: at -inf and +inf from its
    leading coefficients, and at -2, 0, 1 and 2 by integer evaluation.  The
    zero polynomial has no chain: ``SturmChain`` raises ValueError.
    """
    if p.degree == 0:
        return RootPattern(0, 0, 0, 0, 0, 0, True)
    if hints is not None:
        pattern, refutation = _hinted_pattern(p, *hints)
        if pattern is not None or refutation is not None:
            return pattern
    chain = SturmChain(p)
    f = chain.squarefree
    at_neg2 = 1 if _value_at(f, -2, 1) == 0 else 0
    at_pos2 = 1 if _value_at(f, 2, 1) == 0 else 0
    v_neg2, v2 = chain.variations(-2), chain.variations(2)
    below = chain.variations_at_infinity(-1) - v_neg2 - at_neg2
    inside = v_neg2 - v2 - at_pos2
    above = v2 - chain.variations_at_infinity(1)
    in01 = chain.variations(0) - chain.variations(1) - (1 if sum(f) == 0 else 0)
    return RootPattern(below, at_neg2, inside, at_pos2, above, in01, chain.separable)
