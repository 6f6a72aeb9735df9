"""Trace polynomials of cyclotomic-like families and monic Chebyshev analogues.

``cheb(k)`` is the monic degree-k integer polynomial with cheb(k)(2cos u) =
2cos(k u); ``cyclo_trace(n)`` is the trace polynomial of (x^n - 1)/(x - 1) for
odd n, resp. (x^n - 1)/(x^2 - 1) for even n.  Both are built exactly from
their coefficient formulas, and their root counts on (0, 1) have closed forms
(Mason & Handscomb, *Chebyshev Polynomials*, 2003) — never floating cosines.
"""

from __future__ import annotations

import math

from .intpoly import IntPoly, is_reciprocal

# Root count of cheb(k) on the open interval (0, 1) has the closed form
# (k - e)/6 with e the unique member of the table below congruent to k mod 6.
_EPSILON_BY_K_MOD_6 = {0: 0, 1: 1, 2: 2, 3: 3, 4: -2, 5: 5}


def cheb(k: int) -> IntPoly:
    """Monic Chebyshev-style polynomial of degree k.

    The polynomials of the recurrence p_{k+2} = x*p_{k+1} - p_k seeded with
    p_1 = x, p_2 = x^2 - 2 (Dickson polynomials D_k(x, 1)), built coefficient
    by coefficient from x^k down: the coefficient of x^(k-2j) is
    (-1)^j k/(k-j) C(k-j, j), and consecutive ones differ by the factor
    -(k-2j)(k-2j-1) / ((j+1)(k-j-1)).  For k = 0 the constant 1 is returned
    (empty product convention: the recurrence is never extended below k = 1).

    >>> cheb(3)
    IntPoly('x^3 - 3x')
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    out = [0] * (k + 1)
    c = 1
    for j in range(k // 2 + 1):
        out[k - 2 * j] = c
        if 2 * j + 2 <= k:
            c = -c * (k - 2 * j) * (k - 2 * j - 1) // ((j + 1) * (k - j - 1))
    return IntPoly(out)


def extract_trace(p: IntPoly) -> IntPoly:
    """Invert the trace lift: find T with p(x) = x^m * T(x + 1/x).

    The input must be palindromic of even degree 2m; T is recovered by
    descending elimination in the basis {x^(m-j) (x^2+1)^j}.
    """
    if p.is_zero or int(p.degree) % 2 != 0:
        raise ValueError("trace extraction needs a nonzero polynomial of even degree")
    if not is_reciprocal(p):
        raise ValueError("polynomial is not reciprocal")
    m = int(p.degree) // 2
    rem = list(p.coeffs) + [0]  # scratch with safe indexing
    out = [0] * (m + 1)
    for j in range(m, -1, -1):
        c = rem[m + j]
        out[j] = c
        if c:
            for i in range(j + 1):
                rem[m - j + 2 * i] -= c * math.comb(j, i)
    if any(rem):
        raise ValueError("polynomial is not in the trace-lift span")
    return IntPoly(out)


def _u_half(m: int) -> list[int]:
    """Ascending coefficients of U_m(x/2), [] for m = -1: (-1)^j C(m-j, j) at x^(m-2j), built as ``cheb`` is."""
    out = [0] * (m + 1)
    c = 1
    for j in range(m // 2 + 1):
        out[m - 2 * j] = c
        if 2 * j + 2 <= m:
            c = -c * (m - 2 * j) * (m - 2 * j - 1) // ((j + 1) * (m - j))
    return out


def cyclo_trace(n: int) -> IntPoly:
    """Trace polynomial whose roots are 2cos(2j pi / n), j = 1..(n-1)//2.

    Degree (n-1)/2 for odd n and (n-2)/2 for even n; n = 1, 2 give the
    constant 1.  As U_m(2cos u / 2) = sin((m+1)u)/sin(u), it is U_m(x/2) with
    m = n/2 - 1 for even n, and U_m(x/2) + U_(m-1)(x/2) for odd n = 2m + 1,
    built from their coefficient formulas in O(n) big-integer operations.

    >>> cyclo_trace(12)
    IntPoly('x^5 - 4x^3 + 3x')
    """
    if n < 1:
        raise ValueError("index must be positive")
    if n % 2 == 0:
        return IntPoly(_u_half(n // 2 - 1))
    m = n // 2
    return IntPoly([c + d for c, d in zip(_u_half(m), _u_half(m - 1) + [0])])


def _pi_fixed(w: int) -> int:
    """pi * 2^w within 2^(w.bit_length() + 5) units, by Machin's pi = 16 arctan(1/5) - 4 arctan(1/239)."""

    def arctan_inv(x: int) -> int:
        total, power, k = 0, (1 << w) // x, 1
        while power:
            total += power // k if k % 4 == 1 else -(power // k)
            power, k = power // (x * x), k + 2
        return total

    return 16 * arctan_inv(5) - 4 * arctan_inv(239)


def _two_cos_pi_over(m: int, w: int) -> int:
    """2cos(pi/m) * 2^w within a few units, by the Taylor series of cos on fixed-point integers."""
    w2 = w + w.bit_length() + 16  # covers the error of pi and one unit a term
    one = 1 << w2
    theta_sq = (_pi_fixed(w2) // m) ** 2 >> w2
    total = term = one
    i = 0
    while term:
        i += 2
        term = (term * theta_sq >> w2) // (i * (i - 1))
        total += -term if i % 4 == 2 else term
    return total >> (w2 - w - 1)


def _two_cos_multiples(m: int, kmax: int, bits: int) -> list[int]:
    """Nearest integers to 2cos(k pi/m) * 2^bits for k = 0..kmax <= m, each within 2^-bits once scaled.

    Runs cheb's recurrence, as cheb(k)(2cos u) = 2cos(k u), on a fixed-point
    2cos(pi/m).  An error e in it or in a step reaches step k at most
    k min(k, 1/sin(pi/m)) e <= m^2 e, so m^2 in guard bits covers them all.
    """
    guard = 2 * m.bit_length() + 8
    w = bits + guard
    x = _two_cos_pi_over(m, w)
    out = [2 << w, x]
    while len(out) <= kmax:
        out.append((x * out[-1] >> w) - out[-2])
    half = 1 << (guard - 1)
    return [(v + half) >> guard for v in out[: kmax + 1]]


def cheb_roots_dyadic(k: int, bits: int) -> list[int]:
    """Numerators over 2^bits of the roots 2cos((2j+1) pi / 2k), j = 0..k-1, of cheb(k), descending.

    Each lies within 2^-bits of its root; integer arithmetic only.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    return _two_cos_multiples(2 * k, 2 * k - 1, bits)[1::2] if k else []


def cyclo_trace_roots_dyadic(n: int, bits: int) -> list[int]:
    """Numerators over 2^bits of the roots 2cos(2j pi / n), j = 1..(n-1)//2, of cyclo_trace(n), descending.

    Each lies within 2^-bits of its root; integer arithmetic only.
    """
    if n < 1:
        raise ValueError("index must be positive")
    return _two_cos_multiples(n, n - 1, bits)[2::2] if n >= 3 else []


def cheb_roots_in_unit_interval(k: int) -> int:
    """Number of roots of cheb(k) in the open interval (0, 1), in closed form.

    The count is (k - e)/6 with e in {0, 1, 2, 3, -2, 5} and k = e mod 6.
    Accepts k = 0 (the constant 1 has no roots).  The table lookup asserts
    divisibility by 6, failing loudly on corruption.
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    eps = _EPSILON_BY_K_MOD_6[k % 6]
    if (k - eps) % 6 != 0:
        raise AssertionError(f"epsilon table corrupt at k={k}")
    return (k - eps) // 6


def cyclo_trace_roots_in_unit_interval(n: int) -> int:
    """Number of roots of cyclo_trace(n) in the open interval (0, 1), in closed form.

    A root 2cos(2j pi / n) lies in (0, 1) iff pi/3 < 2j pi / n < pi/2, that
    is n/6 < j < n/4, which holds for (n-1)//4 - n//6 integers j.
    """
    if n < 3:
        raise ValueError("index must be at least 3")
    return (n - 1) // 4 - n // 6
