"""Irreducibility decisions for monic integer polynomials, with checkable witnesses.

Strategy: a modular degree filter first (factor-degree multisets modulo several
good primes; if the subset-sum intersection is trivial the polynomial is
irreducible), falling back to exact factorization modulo one good prime with
Hensel lifting and bounded subset recombination.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .intpoly import IntPoly
from .roots import is_separable

DEFAULT_SUBSET_CAP = 1 << 24
_FILTER_PRIME_COUNT = 5


class InconclusiveFactorization(Exception):
    """Subset recombination exceeded the configured cap; no verdict reached."""


@dataclass(frozen=True)
class IrreducibilityWitness:
    """Evidence for an irreducibility verdict.

    For the filter method the stored primes and per-prime factor-degree
    multisets let a verifier replay the subset-sum argument without
    refactoring.  For a reducible verdict the stored factor divides the input
    exactly.  The Hensel data (prime, modulus exponent, coefficient bound) is
    recorded for auditability when exact factorization ran.
    """

    verdict: str  # "irreducible" | "reducible"
    method: str  # "modular-degree-filter" | "exact-factorization"
    primes: tuple[int, ...] = ()
    degree_multisets: tuple[tuple[int, ...], ...] = ()
    factor: Optional[IntPoly] = None
    prime: Optional[int] = None
    modulus_exponent: Optional[int] = None
    coeff_bound: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict, "method": self.method}
        if self.primes:
            out["primes"] = list(self.primes)
            out["degree_multisets"] = [list(m) for m in self.degree_multisets]
        if self.factor is not None:
            out["factor"] = self.factor.to_text()
        if self.prime is not None:
            out["prime"] = self.prime
            out["modulus_exponent"] = self.modulus_exponent
            out["coeff_bound"] = self.coeff_bound
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "IrreducibilityWitness":
        return cls(
            verdict=d["verdict"],
            method=d["method"],
            primes=tuple(d.get("primes", ())),
            degree_multisets=tuple(tuple(m) for m in d.get("degree_multisets", ())),
            factor=IntPoly.from_text(d["factor"]) if "factor" in d else None,
            prime=d.get("prime"),
            modulus_exponent=d.get("modulus_exponent"),
            coeff_bound=d.get("coeff_bound"),
        )


# -- arithmetic on coefficient lists modulo m --------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mp_from_poly(p: IntPoly, m: int) -> list[int]:
    return _trim([c % m for c in p.coeffs])


def _mp_add(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c % m
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _trim(out)


def _mp_sub(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c % m
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _trim(out)


def _mp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] = (out[i + j] + c * d) % m
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


def _mp_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _mp_divmod(a, b, m)[1]


def _mp_monic(a: list[int], m: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], -1, m)
    return _trim([(c * inv) % m for c in a])


def _mp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _mp_mod(a, b, p)
    return _mp_monic(a, p)


def _mp_xgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended gcd mod a prime: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = [c % p for c in a], [c % p for c in b]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while _trim(r1):
        q, r = _mp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mp_sub(s0, _mp_mul(q, s1, p), p)
        t0, t1 = t1, _mp_sub(t0, _mp_mul(q, t1, p), p)
    if not r0:
        raise ZeroDivisionError("xgcd of zero polynomials")
    inv = pow(r0[-1], -1, p)
    scale = lambda v: _trim([(c * inv) % p for c in v])
    return scale(r0), scale(s0), scale(t0)


def _mp_powmod(base: list[int], e: int, f: list[int], m: int) -> list[int]:
    result = [1]
    b = _mp_mod(base, f, m)
    while e:
        if e & 1:
            result = _mp_mod(_mp_mul(result, b, m), f, m)
        b = _mp_mod(_mp_mul(b, b, m), f, m)
        e >>= 1
    return result


# -- factorization modulo a prime ---------------------------------------------


def _distinct_degree_split(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split a monic squarefree f mod p into (product of degree-d irreducibles, d) parts."""
    out = []
    fs = f[:]
    h = [0, 1]
    d = 0
    while len(fs) - 1 >= 2 * (d + 1):
        d += 1
        h = _mp_powmod(h, p, fs, p)
        g = _mp_gcd(_mp_sub(h, [0, 1], p), fs, p)
        if len(g) - 1 > 0:
            out.append((g, d))
            fs = _mp_divmod(fs, g, p)[0]
            h = _mp_mod(h, fs, p)
    if len(fs) - 1 > 0:
        out.append((fs, len(fs) - 1))
    return out


def _degree_multiset(f: list[int], p: int) -> tuple[int, ...]:
    degs: list[int] = []
    for g, d in _distinct_degree_split(f, p):
        degs.extend([d] * ((len(g) - 1) // d))
    return tuple(sorted(degs))


def _seed_from(p: int, coeffs: list[int]) -> int:
    seed = p
    for c in coeffs:
        seed = (seed * 1000003 + c) % (1 << 64)
    return seed


def _equal_degree_split(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: split a product of degree-d irreducibles mod odd p."""
    k = len(g) - 1
    if k == d:
        return [g]
    half = (p**d - 1) // 2
    while True:
        u = _trim([rng.randrange(p) for _ in range(k)])
        if len(u) - 1 < 1:
            continue
        w = _mp_gcd(u, g, p)
        if 0 < len(w) - 1 < k:
            break
        v = _mp_powmod(u, half, g, p)
        v = _mp_sub(v, [1], p)
        w = _mp_gcd(v, g, p)
        if 0 < len(w) - 1 < k:
            break
    rest = _mp_divmod(g, w, p)[0]
    return _equal_degree_split(w, d, p, rng) + _equal_degree_split(rest, d, p, rng)


def _factor_mod_p(f: list[int], p: int) -> list[list[int]]:
    """Full factorization of monic squarefree f into monic irreducibles mod odd p."""
    rng = random.Random(_seed_from(p, f))
    out: list[list[int]] = []
    for g, d in _distinct_degree_split(f, p):
        out.extend(_equal_degree_split(g, d, p, rng))
    return sorted(out)


# -- Hensel lifting ------------------------------------------------------------


def _hensel_step(f: list[int], g: list[int], h: list[int], s: list[int], t: list[int], m: int):
    """One quadratic Hensel step: from mod m to mod m^2 (f = g*h, s*g + t*h = 1, h monic)."""
    m2 = m * m
    e = _mp_sub([c % m2 for c in f], _mp_mul(g, h, m2), m2)
    q, r = _mp_divmod(_mp_mul(s, e, m2), h, m2)
    g1 = _mp_add(g, _mp_add(_mp_mul(t, e, m2), _mp_mul(q, g, m2), m2), m2)
    h1 = _mp_add(h, r, m2)
    b = _mp_sub(_mp_add(_mp_mul(s, g1, m2), _mp_mul(t, h1, m2), m2), [1], m2)
    c, d = _mp_divmod(_mp_mul(s, b, m2), h1, m2)
    s1 = _mp_sub(s, d, m2)
    t1 = _mp_sub(t, _mp_add(_mp_mul(t, b, m2), _mp_mul(c, g1, m2), m2), m2)
    return g1, h1, s1, t1


def _hensel_lift_list(f: IntPoly, factors: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Lift a factorization of monic f mod p to mod p^target (factors stay monic)."""
    modulus = p**target

    def rec(fc: list[int], fs: list[list[int]]) -> list[list[int]]:
        if len(fs) == 1:
            return [fc]
        mid = len(fs) // 2
        g = [1]
        for x in fs[:mid]:
            g = _mp_mul(g, x, p)
        h = [1]
        for x in fs[mid:]:
            h = _mp_mul(h, x, p)
        _, s, t = _mp_xgcd(g, h, p)
        m = p
        while m < modulus:
            g, h, s, t = _hensel_step(fc, g, h, s, t, m)
            m = m * m
        g = [c % modulus for c in g]
        h = [c % modulus for c in h]
        return rec(_trim(g), fs[:mid]) + rec(_trim(h), fs[mid:])

    return rec(_mp_from_poly(f, modulus), factors)


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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    # trial division by every base first: pow(q, d, q) == 0 would read as a witness
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _subset_sum_mask(degrees: tuple[int, ...]) -> int:
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask


def _factor_coeff_bound(p: IntPoly) -> int:
    # Mignotte-style: any monic factor h of monic p has |coeff(h)| <= 2^deg(h) * ||p||_2
    norm2 = math.isqrt(sum(c * c for c in p.coeffs)) + 1
    return (1 << max(int(p.degree) - 1, 1)) * norm2


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


def _zassenhaus(p: IntPoly, prime: int, subset_cap: int) -> IrreducibilityWitness:
    modular = _factor_mod_p(_mp_from_poly(p, prime), prime)
    r = len(modular)
    if r == 1:
        return IrreducibilityWitness(
            verdict="irreducible",
            method="exact-factorization",
            prime=prime,
            modulus_exponent=1,
            coeff_bound=0,
            degree_multisets=(tuple(sorted(len(g) - 1 for g in modular)),),
            primes=(prime,),
        )
    bound = _factor_coeff_bound(p)
    exponent = 1
    while prime**exponent <= 2 * bound:
        exponent += 1
    modulus = prime**exponent
    lifted = _hensel_lift_list(p, modular, prime, exponent)
    examined = 0
    for size in range(1, r // 2 + 1):
        for combo in combinations(range(r), size):
            examined += 1
            if examined > subset_cap:
                raise InconclusiveFactorization(
                    f"subset recombination cap {subset_cap} exceeded at size {size}"
                )
            h = [1]
            for i in combo:
                h = _mp_mul(h, lifted[i], modulus)
            cand = IntPoly(_symmetric(c, modulus) for c in h)
            if cand.degree <= 0:
                continue
            if p.coeffs[0] != 0 and cand.coeffs[0] != 0 and p.coeffs[0] % cand.coeffs[0] != 0:
                continue
            try:
                p.exact_div(cand)
            except ValueError:
                continue
            return IrreducibilityWitness(
                verdict="reducible",
                method="exact-factorization",
                factor=cand,
                prime=prime,
                modulus_exponent=exponent,
                coeff_bound=bound,
                primes=(prime,),
                degree_multisets=(tuple(sorted(len(g) - 1 for g in modular)),),
            )
    return IrreducibilityWitness(
        verdict="irreducible",
        method="exact-factorization",
        prime=prime,
        modulus_exponent=exponent,
        coeff_bound=bound,
        primes=(prime,),
        degree_multisets=(tuple(sorted(len(g) - 1 for g in modular)),),
    )


def is_irreducible(p: IntPoly, subset_cap: int = DEFAULT_SUBSET_CAP) -> IrreducibilityWitness:
    """Decide irreducibility over Q of a monic squarefree integer polynomial.

    Returns a witness that can be re-verified from its stored detail alone
    (see :func:`verify_witness`).  Raises ValueError on non-monic,
    non-squarefree or constant input; raises InconclusiveFactorization when
    recombination would exceed ``subset_cap``.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    if p.degree > 1 and not is_separable(p):
        raise ValueError("polynomial must be squarefree")
    deg = int(p.degree)
    if deg >= 2 and p.coeffs[0] == 0:
        return IrreducibilityWitness(
            verdict="reducible", method="exact-factorization", factor=IntPoly([0, 1])
        )
    primes = _good_primes(p, _FILTER_PRIME_COUNT)
    multisets = []
    masks = []
    for pr in primes:
        ms = _degree_multiset(_mp_from_poly(p, pr), pr)
        multisets.append(ms)
        masks.append(_subset_sum_mask(ms))
    inter = masks[0]
    for m in masks[1:]:
        inter &= m
    if inter == (1 | (1 << deg)):
        return IrreducibilityWitness(
            verdict="irreducible",
            method="modular-degree-filter",
            primes=tuple(primes),
            degree_multisets=tuple(multisets),
        )
    best = min(range(len(primes)), key=lambda i: len(multisets[i]))
    return _zassenhaus(p, primes[best], subset_cap)


def verify_witness(p: IntPoly, witness: IrreducibilityWitness) -> bool:
    """Replay a witness from its stored detail without re-deciding.

    Reducible: one exact division.  Filter: recompute the subset-sum
    intersection from the stored degree multisets.  An irreducible verdict
    from exact factorization carries no cheap certificate; only its stored
    detail is checked for internal consistency.
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
    if witness.method == "modular-degree-filter":
        if not witness.primes or len(witness.primes) != len(witness.degree_multisets):
            return False
        deg = int(p.degree)
        inter = -1
        for ms in witness.degree_multisets:
            if not all(type(d) is int and d > 0 for d in ms) or sum(ms) != deg:
                return False
            inter &= _subset_sum_mask(ms)
        return inter & ((1 << (deg + 1)) - 1) == (1 | (1 << deg))
    # exact-factorization, irreducible: consistency of the recorded data only
    return all(sum(ms) == int(p.degree) for ms in witness.degree_multisets)
