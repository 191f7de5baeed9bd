"""Roots in Q(zeta5) of a univariate polynomial, by reduction mod p.

roots_in_qz5 finds all roots in Q(zeta5) of a squarefree univariate
polynomial over Q(zeta5).  It works at an inert prime (p = 2,3 mod 5),
where Z[e]/(Phi5, p) is the field F_{p^4}: roots are found there by a
Cantor-Zassenhaus split, Hensel-lifted to Z[e]/(Phi5, p^2^k), and the
four rational coordinates recovered by rational reconstruction.  Both
rings are one class, ZetaModM, a field context for the polynomial
routines of `unipoly`.  Every candidate is verified exactly before being
returned, and one that fails is lifted further, up to MAX_LIFT steps, so
the lifting never affects soundness, only completeness.

rational_roots is the one way the package splits off roots in Q(zeta5)
(docs/DECISIONS.md D24): it peels each root of roots_in_qz5 off exactly
and takes the root of a linear factor left over.  Its three callers are
the tangent cone of a cusp (`curvegeom.tangent_cone_lines`), the
cusp-imposing solve (`linsys.impose_cusps`) and point extraction
(`groebner.extract_points`, which reports a residual of degree > 1 as a
NonRationalResidual).
"""

from __future__ import annotations

import random
from math import gcd, isqrt

from . import unipoly
from .cyclofield import CycloElem, conj_product, phi5_mul, ratio
from .multipoly import QZ5

INERT_PRIMES = [7, 13, 17, 23, 37, 43, 47, 53, 67, 73, 83, 97, 103, 107]
# the Cantor-Zassenhaus splits draw from random.Random(SPLIT_SEED); a
# root is Hensel-lifted to at most p^(2^MAX_LIFT)
SPLIT_SEED = 20240
MAX_LIFT = 9


def _inverse_mod(d, m):
    """d^-1 mod m; ZeroDivisionError if gcd(d, m) > 1."""
    if gcd(d, m) != 1:
        raise ZeroDivisionError("%d not invertible mod %d" % (d, m))
    return pow(d, -1, m)


class ZetaModM:
    """Z[e]/(Phi5, M) as a field context; elements are 4-tuples of ints
    in [0, M).  With M = p inert it is the field F_{p^4}; with M = p^k it
    is the ring a simple root is Hensel-lifted in."""

    def __init__(self, M):
        self.M = M
        self.zero = (0, 0, 0, 0)
        self.one = (1, 0, 0, 0)

    def from_cyclo(self, x: CycloElem):
        M = self.M
        dinv = _inverse_mod(x.d, M)
        return tuple(n * dinv % M for n in x.n)

    def add(self, a, b):
        M = self.M
        return tuple((x + y) % M for x, y in zip(a, b))

    def sub(self, a, b):
        M = self.M
        return tuple((x - y) % M for x, y in zip(a, b))

    def neg(self, a):
        M = self.M
        return tuple(-x % M for x in a)

    def mul(self, a, b):
        M = self.M
        return tuple(v % M for v in phi5_mul(a, b))

    def scale_rat(self, a, r):
        """a times the integer r (the one use: `unipoly.derivative`)."""
        M = self.M
        return tuple(v * r % M for v in a)

    @staticmethod
    def is_zero(a):
        return not any(a)

    @staticmethod
    def eq(a, b):
        return a == b

    def inv(self, a):
        """conj_product(a) / N(a): a unit iff its norm N(a), the
        determinant of multiplication by a, is prime to M."""
        M = self.M
        conj = conj_product(a)
        ninv = _inverse_mod(phi5_mul(a, conj)[0] % M, M)
        return tuple(v * ninv % M for v in conj)


def _powmod(base, n, mod, K):
    """base(T)^n modulo mod(T) over K."""
    acc = [K.one]
    b = unipoly.divmod_poly(base, mod, K)[1]
    while n:
        if n & 1:
            acc = unipoly.divmod_poly(unipoly.mul(acc, b, K), mod, K)[1]
        b = unipoly.divmod_poly(unipoly.mul(b, b, K), mod, K)[1]
        n >>= 1
    return acc


def _fq_roots(f, K, rng):
    """All roots in F_q, q = M^4, of a squarefree f of degree >= 1
    (Cantor-Zassenhaus)."""
    f = unipoly.monic(f, K)
    q = K.M**4
    t = [K.zero, K.one]
    # linear-factor part: gcd(T^q - T, f)
    lin = unipoly.gcd_monic(unipoly.sub(_powmod(t, q, f, K), t, K), f, K)
    roots = []
    stack = [lin]
    while stack:
        g = stack.pop()
        d = len(g) - 1
        if d <= 0:
            continue
        if d == 1:
            roots.append(K.neg(g[0]))
            continue
        # random split: gcd((T + r)^((q-1)/2) - 1, g)
        while True:
            r = tuple(rng.randrange(K.M) for _ in range(4))
            h = unipoly.sub(_powmod([r, K.one], (q - 1) // 2, g, K), [K.one], K)
            if not h:
                continue
            g1 = unipoly.gcd_monic(h, g, K)
            if 0 < len(g1) - 1 < d:
                g2, rem = unipoly.divmod_poly(g, g1, K)
                assert not rem
                stack.append(g1)
                stack.append(g2)
                break
    return roots


def rational_reconstruct(c, M):
    """a/b with c*b = a (mod M), |a|, b <= sqrt(M/2); None if impossible."""
    c %= M
    bound = isqrt(M // 2)
    r0, r1 = M, c
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 > bound or abs(s1) > bound or s1 == 0:
        return None
    if gcd(r1, abs(s1)) != 1:
        return None
    if s1 < 0:
        return (-r1, -s1)
    return (r1, s1)


def rational_roots(coeffs):
    """The Q(zeta5)-roots of a nonzero univariate polynomial and the factor
    left after peeling them: (roots, residual).

    coeffs: list of CycloElem, low to high degree.  Each root that
    roots_in_qz5 finds is divided off exactly (`unipoly.peel_root`), and a
    linear factor left over gives one more root, so the residual has
    degree 0 or at least 2.  Roots come in the order roots_in_qz5 finds
    them, the linear factor's last.
    """
    g = unipoly.trim(coeffs, QZ5)
    roots = []
    if len(g) > 2:
        for r in roots_in_qz5(g):
            g2 = unipoly.peel_root(g, r, QZ5)
            if g2 is not None:
                roots.append(r)
                g = g2
    if len(g) == 2:
        roots.append(-g[0] / g[1])
        g = g[1:]
    return roots, g


def roots_in_qz5(coeffs):
    """All Q(zeta5)-roots of a squarefree univariate polynomial.

    coeffs: list of CycloElem, low to high degree.  Returns a list of
    CycloElem roots, each verified exactly by substitution.  Roots outside
    Q(zeta5) are silently ignored (the caller sees them as the factor left
    after peeling the roots returned).
    """
    coeffs = unipoly.trim(coeffs, QZ5)
    if len(coeffs) <= 1:
        return []
    rng = random.Random(SPLIT_SEED)
    for p in INERT_PRIMES:
        K = ZetaModM(p)
        try:
            fbar = [K.from_cyclo(c) for c in coeffs]
        except ZeroDivisionError:
            continue
        if K.is_zero(fbar[-1]):
            continue  # leading coefficient collapses; try another prime
        froots = _fq_roots(fbar, K, rng)
        if not froots:
            return []
        # derivative must not vanish at the roots (simple roots mod p)
        dbar = unipoly.derivative(fbar, K)
        if any(K.is_zero(unipoly.eval_poly(dbar, r, K)) for r in froots):
            continue  # collision mod p; next prime
        found = []
        for r in froots:
            root = _lift_root(coeffs, r, p)
            if root is not None:
                found.append(root)
        return found
    return []


def _lift_root(coeffs, root, p):
    """Newton-lift a simple root mod p to p^(2^MAX_LIFT) at most, and
    return the first rational reconstruction that is a root of coeffs
    exactly; a reconstruction that is not one only means the modulus is
    still too small for the root's coordinates."""
    M = p
    for _ in range(MAX_LIFT):
        M *= M
        ring = ZetaModM(M)
        f = [ring.from_cyclo(c) for c in coeffs]
        fx = unipoly.eval_poly(f, root, ring)
        dfx = unipoly.eval_poly(unipoly.derivative(f, ring), root, ring)
        try:
            step = ring.mul(fx, ring.inv(dfx))
        except ZeroDivisionError:
            return None
        root = ring.sub(root, step)
        cand = _try_reconstruct(root, M)
        if cand is not None and unipoly.eval_poly(coeffs, cand, QZ5).is_zero:
            return cand
    return None


def _try_reconstruct(root, M):
    cs = []
    for v in root:
        rec = rational_reconstruct(v, M)
        if rec is None:
            return None
        cs.append(ratio(rec[0], rec[1]))
    return CycloElem(cs)
