"""Irreducibility decisions for Salem trace polynomials, with checkable witnesses.

Strategy: a modular degree filter first (factor-degree multisets modulo several
good primes, by distinct-degree factorization on the Frobenius map with one
gcd per block of degrees; if the subset-sum intersection is trivial the
polynomial is irreducible).  It runs on coefficients packed into one int,
w = 2 bits((n + 1) q^2) + bits(q) bits to a coefficient at degree n mod q, so
a division step, and a product mod f by Barrett's precomputed quotient, is a
few bigint operations.
When it gives no verdict, the trace must have the Salem root pattern: one root
above 2, the other t - 1 in (-2, 2).  Then any factor that lacks the large root
has all its roots in (-2, 2), so by Kronecker's theorem it is a product of
cyclotomic traces psi_m, and three exact gcds find one (Bradford & Davenport,
*Effective tests for cyclotomic polynomials*, 1988).  The caller proves the
``RootPattern`` of the trace and passes it in; nothing here counts roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .intpoly import IntPoly, gcd_over_rationals

if TYPE_CHECKING:
    from .roots import RootPattern  # roots imports this module

_FILTER_PRIME_COUNT = 5
_BLOCK = 8  # degrees per gcd in _degree_multiset
# entries of each (q, T mod q) memo: one plan meets at most sum(SEPARABILITY_PRIMES) = 1058 classes, and
# both memos full of degree-MAX_T keys keep at most 8 MB (tests/test_factor.py measures it)
_RESIDUE_MEMO = 2048
# the primes, in order, that the separability and filter tests try: the odd ones below 100, a bounded search
SEPARABILITY_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
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
    at most n terms c (q - b_i) < q^2 to each slot of a reduced input, a
    Frobenius product sums n terms under q^2, and a product of two reduced
    polynomials has 2n + 1 slots of at most n + 1 terms under q^2.  reduce()
    takes each of the 2n + 1 low slots mod q at once by floor(x / q) =
    (x m) >> s, m = ceil(2^s / q), exact as 2^s >= bound q (Granlund &
    Montgomery, 1994); w = s + bits(bound) keeps x m inside its slot.
    """

    def __init__(self, n: int, q: int):
        self.q, self.bound = q, (n + 1) * q * q
        self.s = s = self.bound.bit_length() + q.bit_length()
        self.w = w = s + self.bound.bit_length()
        self.m, self.slot = -(-(1 << s) // q), (1 << w) - 1
        self.ones = ((1 << (w * (n + 1))) - 1) // self.slot  # 1 in each of n + 1 slots
        self.quot_mask = ((1 << (w * (2 * n + 1))) - 1) // self.slot * ((1 << (w - s)) - 1)

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

    def barrett(self, b: int, top: int) -> Callable[[int], int]:
        """a -> a mod b, reduced, for monic b of degree m and a of degree at most top, m <= top < n + m.

        a is a reduced polynomial or the product of two, so its slots are below bound.

        With mu = x^top div b, the quotient of a by b is exactly
        (a div x^m) mu div x^(top - m) (Barrett, 1986): the terms it drops have
        negative degree.  Each product sums at most top - m + 1 <= n terms under
        q^2, so no slot overflows and no loop runs over the coefficients.
        """
        w, m = self.w, self.degree(b)
        mu = self.divmod(1 << (w * top), b)[0]
        comp = (self.q * self.ones - b) & ((1 << (w * (m + 1))) - 1)  # q - b_i: adding c comp subtracts c b

        def mod(a: int) -> int:
            a = self.reduce(a)
            return self.reduce(a + (self.reduce((a >> (w * m)) * mu) >> (w * (top - m))) * comp)

        return mod

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of reduced a and b."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.reduce(a * pow(a >> (self.w * self.degree(a)), -1, self.q)) if a else 0


def _degree_multiset(f: Sequence[int], q: int) -> tuple[int, ...]:
    """Factor degrees of a monic f, squarefree mod q, by distinct-degree factorization.

    Frobenius h -> h^q is linear mod q, as h(x)^q = h(x^q), so each step is one
    product with the matrix whose row i is x^(q i) mod f (Berlekamp's Q).  h
    stays reduced mod f: gcd(h - x, rest) is unchanged, because rest | f.  The
    gcds come one per block of _BLOCK degrees d (von zur Gathen & Shoup, 1992):
    g = gcd(prod (h_d - x) mod rest, rest) holds the factors of rest whose
    degree is in the block, as every smaller one is gone, and only a g > 1 is
    split, by the gcds of each h_d - x with what is left of g.  The products
    mod rest are Barrett reductions (``_Packed.barrett``), remade only when a
    factor splits off.  The reducer of f itself comes first: row 1 is x^q mod
    f by one division, and row i is row i - 1 times row 1, reduced by it.
    """
    n = len(f) - 1
    k = _Packed(n, q)
    rest = k.pack(f)
    rows, mod = [1], None  # mod: x -> x mod rest, made again after a factor splits off
    if n > 1:
        mod = k.barrett(rest, 2 * n - 2)
        rows.append(k.divmod(1 << (k.w * q), rest)[1])
        while len(rows) < n:
            rows.append(mod(rows[-1] * rows[1]))
    degs: list[int] = []
    h, d, m, minus_x = 1 << k.w, 0, n, (q - 1) << k.w
    while m >= 2 * (d + 1):
        mod = mod or k.barrett(rest, max(2 * m - 2, n - 1))  # a product of two remainders, or h
        terms, acc = [], 1
        for _ in range(min(_BLOCK, m // 2 - d)):
            d += 1
            h = k.reduce(sum((h >> (k.w * i) & k.slot) * row for i, row in enumerate(rows)))
            terms.append(mod(h + minus_x))
            acc = mod(acc * terms[-1])
        g = k.gcd(acc, rest)
        if g > 1:
            rest = k.divmod(rest, g)[0]
            m, mod = k.degree(rest), None
            for e, term in enumerate(terms, d - len(terms) + 1):
                if k.degree(g) < 2 * e:  # what is left of g is one factor, or 1
                    break
                ge = k.gcd(term, g)
                if ge > 1:
                    degs += [e] * (k.degree(ge) // e)
                    g = k.divmod(g, ge)[0]
            if g > 1:
                degs.append(k.degree(g))
    if m > 0:
        degs.append(m)
    return tuple(sorted(degs))


@lru_cache(maxsize=_RESIDUE_MEMO)
def _multiset_mod(q: int, residues: bytes) -> tuple[int, ...]:
    """``_degree_multiset`` of the monic f with these coefficients mod q, once per (q, f mod q)."""
    return _degree_multiset(residues, q)


# -- the decision procedure -----------------------------------------------------


def _residues(p: IntPoly, q: int) -> bytes:
    """p mod q, ascending: the key of both memos, as every prime of SEPARABILITY_PRIMES is below 256."""
    return bytes(c % q for c in p.coeffs)


def _good_primes(p: IntPoly, count: int) -> list[int]:
    """The first ``count`` primes of SEPARABILITY_PRIMES not dividing disc(p), or all there are.

    Reduction mod such a q stays squarefree.  For monic p that is
    gcd(p mod q, p' mod q) = 1, which avoids computing disc(p).  Each verdict
    is looked up by (q, p mod q) in ``_squarefree_mod``, so the candidates of
    a search, whose residues mod q repeat with period q in a, share one gcd
    per residue class.
    """
    good = (q for q in SEPARABILITY_PRIMES if _squarefree_mod(q, _residues(p, q)))
    return list(islice(good, count))


@lru_cache(maxsize=_RESIDUE_MEMO)
def _squarefree_mod(q: int, residues: bytes) -> bool:
    """gcd(a, a') = 1 mod q for the a with these coefficients mod q, ascending.

    p' mod q follows from p mod q, so the verdict on p is this one, exact for
    any p.  For monic p that proves p squarefree over Q: a repeated factor of
    p would be monic in Z[x] (Gauss's lemma) and divide both mod q.
    """
    k = _Packed(len(residues) - 1, q)
    return k.gcd(k.pack(residues), k.pack([i * c for i, c in enumerate(residues)][1:])) == 1


def separable_mod_prime(p: IntPoly) -> Optional[int]:
    """The first prime q of SEPARABILITY_PRIMES with gcd(p mod q, p' mod q) = 1, or None.

    For monic p of degree at least 1, such a q proves p separable.
    """
    return next(iter(_good_primes(p, 1)), None)


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


# keeps the name of the fallback it replaced: the benchmark tracer patches it by name
def _zassenhaus(p: IntPoly, pattern: RootPattern) -> IrreducibilityWitness:
    """Kronecker's test on a monic trace whose proved pattern is Salem's; ValueError without it."""
    if not pattern.is_salem(int(p.degree)):
        raise ValueError("the filter gave no verdict, and the Kronecker test needs the Salem root pattern")
    g = _cyclotomic_factor(p)
    if g is None:
        return IrreducibilityWitness(verdict="irreducible", method=KRONECKER)
    return IrreducibilityWitness(verdict="reducible", method=KRONECKER, factor=g)


def is_irreducible(p: IntPoly, pattern: RootPattern) -> IrreducibilityWitness:
    """Decide irreducibility over Q of a monic squarefree trace polynomial with the proved ``pattern``.

    Returns a witness that can be re-verified from its stored detail alone
    (see :func:`verify_witness`).  Raises ValueError on non-monic,
    non-squarefree or constant input, and when the filter gives no verdict on
    a polynomial without the Salem root pattern.  The filter gives none when
    fewer than five primes of SEPARABILITY_PRIMES keep p squarefree.  Its
    multisets are memoized on (q, p mod q), as the separability verdicts are,
    so a search runs one factorization per prime and residue class.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    if not pattern.separable:
        raise ValueError("polynomial must be squarefree")
    deg = int(p.degree)
    primes = _good_primes(p, _FILTER_PRIME_COUNT)
    if len(primes) == _FILTER_PRIME_COUNT:
        multisets = [_multiset_mod(q, _residues(p, q)) for q in primes]
        if _filter_proves_irreducible(deg, multisets):
            return IrreducibilityWitness(
                verdict="irreducible",
                method="modular-degree-filter",
                primes=tuple(primes),
                degree_multisets=tuple(multisets),
            )
    return _zassenhaus(p, pattern)


def verify_witness(p: IntPoly, witness: IrreducibilityWitness, pattern: Optional[RootPattern]) -> bool:
    """Replay a witness from its stored detail without re-deciding.

    Reducible: one exact division.  Filter: each stored prime must be in
    SEPARABILITY_PRIMES and keep p squarefree, and its stored degree multiset
    must be the one recomputed mod it (``_multiset_mod``, so a search's replay
    reads the multisets it made); then the subset sums.  Kronecker (and the legacy
    exact-factorization method): check that ``pattern``, which the caller
    proved for p, is Salem's, then run the three gcds; None is a refuted pattern.
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
        if not p.is_monic or p.degree < 1 or not witness.primes:
            return False
        if len(witness.primes) != len(witness.degree_multisets):
            return False
        multisets = []
        for q, stored in zip(witness.primes, witness.degree_multisets):
            if type(q) is not int or q not in SEPARABILITY_PRIMES:
                return False
            key = _residues(p, q)
            if not _squarefree_mod(q, key) or (ms := _multiset_mod(q, key)) != stored:
                return False
            multisets.append(ms)
        return _filter_proves_irreducible(int(p.degree), multisets)
    if witness.method in (KRONECKER, "exact-factorization"):
        return p.is_monic and pattern is not None and pattern.is_salem(int(p.degree)) and _cyclotomic_factor(p) is None
    return False
