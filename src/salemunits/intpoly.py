"""Exact arithmetic on dense polynomials with arbitrary-precision integer coefficients.

Coefficients are stored in ascending degree order in canonical form (no trailing
zeros; the zero polynomial is the empty tuple).  Rational values use
:class:`fractions.Fraction`, which already guarantees reduced form with a
positive denominator.  ``_value_at`` is the one exact evaluator:
den^deg p(num/den) by homogenized integer Horner.  ``IntPoly.__call__``, every
sign the root layer reads and the plan's table of values call it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class IntPoly:
    """A polynomial over the integers.

    >>> IntPoly([3, 0, -4, 0, 1])
    IntPoly('x^4 - 4x^2 + 3')
    >>> IntPoly([1, 0, 1]) * IntPoly([0, 1])
    IntPoly('x^3 + x')
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers --------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "IntPoly":
        """Parse the comma-separated ascending-coefficient format, e.g. "3,0,-4,0,1"."""
        parts = [p.strip() for p in text.strip().split(",")]
        if not parts or any(p == "" for p in parts):
            raise ValueError(f"malformed polynomial text: {text!r}")
        return cls(int(p) for p in parts)

    def to_text(self) -> str:
        """Render in the comma-separated ascending-coefficient format."""
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "IntPoly | int") -> "IntPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int | Fraction) -> int | Fraction:
        """Exact value by ``_value_at``: an int at an integer x, a Fraction at a Fraction x."""
        if not self.coeffs:
            return 0
        if isinstance(x, int):
            return _value_at(self.coeffs, x, 1)
        return Fraction(_value_at(self.coeffs, x.numerator, x.denominator), x.denominator ** (len(self.coeffs) - 1))

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    # -- content and division ---------------------------------------------

    def content(self) -> int:
        """Positive gcd of all coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Divide out the content; the sign of the leading coefficient is kept."""
        c = self.content()
        return self if c in (0, 1) else IntPoly(k // c for k in self.coeffs)

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division over Z; raises ValueError when not a factor."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q, r = [0] * max(len(self.coeffs) - len(other.coeffs) + 1, 1), list(self.coeffs)
        db, lb = len(other.coeffs) - 1, other.lc
        while len(r) - 1 >= db and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < db:
                break
            head, rem = divmod(r[-1], lb)
            if rem:
                raise ValueError("not divisible over the integers")
            e = len(r) - 1 - db
            q[e] = head
            for i, bc in enumerate(other.coeffs):
                r[e + i] -= head * bc
        if any(r):
            raise ValueError("not divisible over the integers")
        return IntPoly(q)

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "-" if c < 0 else ""
            mag = abs(c)
            term = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            num = str(mag) if (i == 0 or mag != 1) else ""
            parts.append(f"{sign}{num}{term}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({str(self)!r})"


ZERO = IntPoly()
ONE = IntPoly([1])
X = IntPoly([0, 1])


def _as_poly(v: "IntPoly | int") -> IntPoly:
    return v if isinstance(v, IntPoly) else IntPoly([v])


def _sign_at(coeffs: tuple[int, ...], x: Fraction) -> int:
    """Exact sign of the polynomial at x, via homogenized integer Horner."""
    if not coeffs:
        return 0
    v = _value_at(coeffs, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _value_at(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den^deg * p(num/den) for den > 0, by homogenized integer Horner; it has the sign of p.

    The term of c_i is c_i den^(deg - i).  For den = 2^s, den = 1 included,
    that is c_i << s (deg - i), a shift.  The hinted pattern, its walk and the
    plan's ``fixed_values`` evaluate only at such points, and so does
    ``roots._refine_on_grid`` on an interval with dyadic ends.
    """
    acc, s = coeffs[-1], den.bit_length() - 1
    if den == 1 << s:
        for k, c in enumerate(coeffs[-2::-1], 1):
            acc = acc * num + (c << s * k)
        return acc
    dpow = 1
    for i in range(len(coeffs) - 2, -1, -1):
        dpow *= den
        acc = acc * num + coeffs[i] * dpow
    return acc


def pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder rem(lc(b)^(deg a - deg b + 1) * a, b), exact over Z; a itself when deg a < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    db, lb = len(b.coeffs) - 1, b.lc
    r = list(a.coeffs)
    for e in range(len(a.coeffs) - len(b.coeffs), -1, -1):
        if len(r) - 1 == db + e:
            head = r[-1]
            r = [lb * c for c in r]
            for i, bc in enumerate(b.coeffs):
                r[e + i] -= head * bc
            while r and r[-1] == 0:
                r.pop()
        else:
            r = [lb * c for c in r]
    return IntPoly(r)


def subresultant_prs(a: Sequence[int], b: Sequence[int]) -> Iterator[tuple[list[int], int, int, int]]:
    """The subresultant pseudo-remainder sequence of coefficient lists, deg a >= deg b >= 0.

    Brown & Traub (JACM 1971): with g = h = 1 at the start, each step divides
    prem(a, b) exactly by beta = g * h^delta, delta = deg a - deg b, then takes
    g = lc(b) and h = h^(1 - delta) * g^delta.  Yields (r, delta, beta, h) per
    step, r the next element and h its updated scale; stops after the first
    constant element, or before a zero remainder.  A step with delta = 1, the
    normal case, is one fused pass r = lc(b)^2 * a - (c1 x + c0) * b; any
    other step calls ``pseudo_rem``.
    """
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        beta = g * h**delta
        if delta == 1:
            lb, la = b[-1], a[-1]
            lb2, c1, c0 = lb * lb, lb * la, lb * a[-2] - la * b[-2]
            # the degree deg b term cancels too, and is stripped below
            r = [(lb2 * ai - c1 * bp - c0 * bi) // beta for ai, bp, bi in zip(a, itertools.chain((0,), b), b)]
            while r and r[-1] == 0:
                r.pop()
        else:
            r = [c // beta for c in pseudo_rem(IntPoly(a), IntPoly(b)).coeffs]
        if not r:
            return
        a, b = b, r
        if delta:
            h = _hpow(a[-1], h, delta)
        g = a[-1]
        yield r, delta, beta, h


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Resultant with the convention Res(p, q) = lc(q)^deg(p) * prod p(roots of q).

    Computed exactly by the subresultant pseudo-remainder sequence (Cohen,
    Alg. 3.3.7); constants follow Res(c, q) = c^deg(q).
    """
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    if q.degree == 0:
        return q.coeffs[0] ** int(p.degree)
    if p.degree == 0:
        return p.coeffs[0] ** int(q.degree)
    # Res(p, q) = R(q, p) for R(a, b) = lc(a)^deg(b) * prod b(roots of a), and the PRS
    # needs deg a >= deg b; a swap multiplies R by (-1)^(deg a * deg b)
    a, b = (q, p) if q.degree >= p.degree else (p, q)
    da, db = int(a.degree), int(b.degree)
    s = -1 if q.degree < p.degree and da * db % 2 else 1
    t = a.content() ** db * b.content() ** da
    for r, _, _, h in subresultant_prs(a.primitive().coeffs, b.primitive().coeffs):
        if da * db % 2:
            s = -s
        da, db = db, len(r) - 1
    if db > 0:
        return 0  # a zero remainder came before a constant
    return s * t * _hpow(r[0], h, da)


def _hpow(g: int, h: int, delta: int) -> int:
    # h <- h^(1-delta) g^delta, exact in Z
    if delta == 1:
        return g
    num = g**delta
    den = h ** (delta - 1)
    assert num % den == 0
    return num // den


def gcd_over_rationals(p: IntPoly, q: IntPoly) -> IntPoly:
    """Gcd in the rational sense: primitive, positive leading coefficient.

    Returns the constant 1 when the inputs share no root.  Subresultant PRS
    keeps intermediate coefficients under control without modular arithmetic.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("gcd with the zero polynomial is undefined")
    a, b = (p, q) if p.degree >= q.degree else (q, p)
    last = b.primitive().coeffs
    for last, _, _, _ in subresultant_prs(a.primitive().coeffs, last):
        pass
    if len(last) == 1:
        return ONE
    out = IntPoly(last).primitive()
    return -out if out.lc < 0 else out


def lift_trace(tr: IntPoly, half_degree: int) -> IntPoly:
    """Lift a degree-t trace polynomial T to S(x) = x^t * T(x + 1/x) of degree 2t.

    The output is always palindromic; it is monic of degree exactly 2t when T
    is monic of degree t.  S is T's coefficients c_j by Horner in x^2 + 1,
    R <- R (x^2 + 1) + c_j x^(t - j) for j = t, ..., 0, on R packed into one
    int as its value at x = 2^w.  |S_i| < max |c_j| 2^(t + 1), so with whole
    bytes of w >= bits(max |c_j|) + t + 2 bits, adding 2^(w - 1) to every slot
    makes each one S_i + 2^(w - 1), in [0, 2^w), read off byte by byte.
    """
    t = half_degree
    if tr.degree != t:
        raise ValueError(f"trace polynomial has degree {tr.degree}, expected {t}")
    width = (max(map(abs, tr.coeffs)).bit_length() + t + 9) // 8  # bytes per slot
    w, r = 8 * width, 0
    for j in range(t, -1, -1):
        r += (r << (2 * w)) + (tr.coeffs[j] << (w * (t - j)))
    r += int.from_bytes((bytes(width - 1) + b"\x80") * (2 * t + 1), "little")  # 2^(w - 1) in each slot
    packed, half = r.to_bytes(width * (2 * t + 1), "little"), 1 << (w - 1)
    return IntPoly(int.from_bytes(packed[i : i + width], "little") - half for i in range(0, len(packed), width))


def is_reciprocal(p: IntPoly) -> bool:
    """True iff x^deg(p) * p(1/x) = p, i.e. the coefficients are palindromic."""
    return p.coeffs == p.coeffs[::-1]
