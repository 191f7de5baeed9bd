"""Exact mod-p machinery supporting point extraction.

Two independent tools:

* CycloModP -- reduction of Q(zeta5) at a split prime p = 1 (mod 5),
  mapping e to a chosen root of Phi5 in F_p.  Used as a fast exact
  prefilter (e.g. coplanarity ranks); every positive conclusion drawn
  from it is re-certified with exact arithmetic by the caller.

* roots_in_qz5 -- all roots in Q(zeta5) of a squarefree univariate
  polynomial over Q(zeta5).  Works at an inert prime (p = 2,3 mod 5):
  F_p[e]/Phi5 is the field F_{p^4}; roots are found there by a
  Cantor-Zassenhaus split, Hensel-lifted to Z[e]/(Phi5, p^2^k), and the
  four rational coordinates recovered by rational reconstruction.  Every
  candidate is verified exactly before being returned, so the lifting
  never affects soundness, only completeness; callers keep unresolved
  factors as tower branches.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

from .cyclofield import CycloElem, phi5_mul, ratio
from .multipoly import QZ5
from .unipoly import eval_poly as exact_eval

INERT_PRIMES = [7, 13, 17, 23, 37, 43, 47, 53, 67, 73, 83, 97, 103, 107]


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _inverse_mod(d, m):
    """d^-1 mod m for a denominator d; ZeroDivisionError if gcd(d, m) > 1."""
    if gcd(d, m) != 1:
        raise ZeroDivisionError("denominator %d not invertible mod %d" % (d, m))
    return pow(d, -1, m)


def split_primes(start=10006):
    """Primes p = 1 (mod 5), ascending, starting above `start`."""
    p = start + 1
    while True:
        if p % 5 == 1 and _is_prime(p):
            yield p
        p += 1


class CycloModP:
    """Reduction of Q(zeta5) at a split prime (e -> fixed root of Phi5)."""

    def __init__(self, p, zeta=None):
        if p % 5 != 1:
            raise ValueError("need p = 1 (mod 5)")
        self.p = p
        if zeta is None:
            zeta = self._find_zeta(p)
        self.zeta = zeta
        self._zpow = [pow(zeta, i, p) for i in range(4)]

    @staticmethod
    def _find_zeta(p):
        for a in range(2, p):
            z = pow(a, (p - 1) // 5, p)
            if z != 1:
                return z
        raise AssertionError("no 5th root of unity mod %d" % p)

    def reduce(self, x: CycloElem) -> int:
        """Image in F_p; raises ZeroDivisionError if the denominator hits p."""
        p = self.p
        dinv = _inverse_mod(x.d, p)
        return sum(n * z for n, z in zip(x.n, self._zpow)) * dinv % p

    def reduce_vector(self, xs):
        return [self.reduce(x) for x in xs]

    def matrix_rank(self, rows):
        """Rank over F_p of a matrix of CycloElem (or pre-reduced int) entries."""
        p = self.p
        m = [
            [v % p if isinstance(v, int) else self.reduce(v) for v in row]
            for row in rows
        ]
        rank = 0
        ncols = len(m[0]) if m else 0
        r = 0
        for c in range(ncols):
            piv = None
            for i in range(r, len(m)):
                if m[i][c] % p:
                    piv = i
                    break
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = pow(m[r][c], p - 2, p)
            m[r] = [v * inv % p for v in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] % p:
                    f = m[i][c]
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
            r += 1
            rank += 1
        return rank


# ---------------------------------------------------------------------------
# F_{p^4} = F_p[e]/Phi5 arithmetic (vectors of 4 ints mod p)


class Fp4:
    def __init__(self, p):
        self.p = p
        self.zero = (0, 0, 0, 0)
        self.one = (1, 0, 0, 0)

    def from_cyclo(self, x: CycloElem):
        p = self.p
        dinv = _inverse_mod(x.d, p)
        return tuple(n * dinv % p for n in x.n)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p = self.p
        return tuple(v % p for v in phi5_mul(a, b))

    def is_zero(self, a):
        return not any(a)

    def inv(self, a):
        # a^(q-2) with q = p^4
        q = self.p**4
        return self.pow(a, q - 2)

    def pow(self, a, n):
        acc = self.one
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc


def _fq_poly_trim(f, K):
    while f and K.is_zero(f[-1]):
        f.pop()
    return f


def _fq_poly_divmod(a, b, K):
    a = list(a)
    db = len(b) - 1
    inv = K.inv(b[db])
    q = [K.zero] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = K.mul(a[i + db], inv)
        if not K.is_zero(c):
            q[i] = c
            for j in range(db + 1):
                a[i + j] = K.sub(a[i + j], K.mul(c, b[j]))
    return q, _fq_poly_trim(a[:db], K)


def _fq_poly_gcd(a, b, K):
    a = _fq_poly_trim(list(a), K)
    b = _fq_poly_trim(list(b), K)
    while b:
        _, r = _fq_poly_divmod(a, b, K)
        a, b = b, r
    if a:
        inv = K.inv(a[-1])
        a = [K.mul(c, inv) for c in a]
    return a


def _fq_poly_mul(a, b, K):
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if K.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not K.is_zero(y):
                out[i + j] = K.add(out[i + j], K.mul(x, y))
    return _fq_poly_trim(out, K)


def _fq_powmod(base, n, mod, K):
    """base(T)^n modulo mod(T) over F_q."""
    acc = [K.one]
    b = list(base)
    _, b = _fq_poly_divmod(b, mod, K)
    while n:
        if n & 1:
            acc = _fq_poly_divmod(_fq_poly_mul(acc, b, K), mod, K)[1]
        b = _fq_poly_divmod(_fq_poly_mul(b, b, K), mod, K)[1]
        n >>= 1
    return acc


def _fq_roots(f, K, rng):
    """All roots in F_q of a squarefree f (Cantor-Zassenhaus)."""
    f = _fq_poly_trim(list(f), K)
    if len(f) <= 1:
        return []
    inv = K.inv(f[-1])
    f = [K.mul(c, inv) for c in f]
    q = K.p**4
    # linear-factor part: gcd(T^q - T, f)
    tq = _fq_powmod([K.zero, K.one], q, f, K)
    tq_minus_t = list(tq)
    while len(tq_minus_t) < 2:
        tq_minus_t.append(K.zero)
    tq_minus_t[1] = K.sub(tq_minus_t[1], K.one)
    tq_minus_t = _fq_poly_trim(tq_minus_t, K)
    lin = _fq_poly_gcd(tq_minus_t, f, K)
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
            r = tuple(rng.randrange(K.p) for _ in range(4))
            h = _fq_powmod([r, K.one], (q - 1) // 2, g, K)
            h = list(h) if h else [K.zero]
            h[0] = K.sub(h[0], K.one)
            h = _fq_poly_trim(h, K)
            if not h:
                continue
            g1 = _fq_poly_gcd(h, g, K)
            if 0 < len(g1) - 1 < d:
                g2, rem = _fq_poly_divmod(g, g1, K)
                assert not rem
                stack.append(g1)
                stack.append(_fq_poly_trim(g2, K))
                break
    return roots


# ---------------------------------------------------------------------------
# Hensel lifting in Z[e]/(Phi5, p^k) and rational reconstruction


class ZetaModM:
    """Arithmetic in Z[e]/(Phi5, M) with M = p^k; elements are 4-tuples."""

    def __init__(self, M):
        self.M = M
        self.zero = (0, 0, 0, 0)
        self.one = (1, 0, 0, 0)

    def add(self, a, b):
        M = self.M
        return tuple((x + y) % M for x, y in zip(a, b))

    def sub(self, a, b):
        M = self.M
        return tuple((x - y) % M for x, y in zip(a, b))

    def mul(self, a, b):
        M = self.M
        return tuple(v % M for v in phi5_mul(a, b))

    def from_cyclo(self, x: CycloElem):
        M = self.M
        dinv = _inverse_mod(x.d, M)
        return tuple(n * dinv % M for n in x.n)

    def inv(self, a):
        """Inverse via the adjugate of the 4x4 multiplication matrix."""
        M = self.M
        cols = []
        basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        for b in basis:
            cols.append(self.mul(a, b))
        mat = [[cols[j][i] % M for j in range(4)] for i in range(4)]
        det, adj = _det_adjugate_4x4(mat, M)
        g = gcd(det, M)
        if g != 1:
            raise ZeroDivisionError("element not invertible mod M")
        dinv = pow(det, -1, M)
        one = (1, 0, 0, 0)
        vec = [one[i] for i in range(4)]
        out = [0, 0, 0, 0]
        for i in range(4):
            acc = 0
            for j in range(4):
                acc += adj[i][j] * vec[j]
            out[i] = acc * dinv % M
        return tuple(out)

    def eval_poly(self, coeffs, x):
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc


def _det_adjugate_4x4(m, M):
    """Determinant and adjugate of a 4x4 integer matrix modulo M."""

    def minor3(mm, rows, cols):
        (a, b, c), (d, e, f), (g, h, i) = (
            [mm[r][cc] for cc in cols] for r in rows
        )
        return (
            a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        ) % M

    rows = range(4)
    cof = [[0] * 4 for _ in range(4)]
    det = 0
    for i in rows:
        for j in rows:
            rr = [r for r in rows if r != i]
            cc = [ccc for ccc in rows if ccc != j]
            mm = minor3(m, rr, cc)
            cof[i][j] = (-mm if (i + j) % 2 else mm) % M
    for j in rows:
        det = (det + m[0][j] * cof[0][j]) % M
    adj = [[cof[j][i] for j in rows] for i in rows]
    return det, adj


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


def roots_in_qz5(coeffs, rng_seed=20240, max_lift=9, primes=None):
    """All Q(zeta5)-roots of a squarefree univariate polynomial.

    coeffs: list of CycloElem, low to high degree.  Returns a list of
    CycloElem roots, each verified exactly by substitution.  Roots outside
    Q(zeta5) are silently ignored (the caller retains them in towers).
    """
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg].is_zero:
        deg -= 1
    if deg <= 0:
        return []
    coeffs = coeffs[: deg + 1]
    rng = random.Random(rng_seed)
    for p in primes or INERT_PRIMES:
        try:
            K = Fp4(p)
            fbar = [K.from_cyclo(c) for c in coeffs]
        except ZeroDivisionError:
            continue
        if K.is_zero(fbar[-1]):
            continue  # leading coefficient collapses; try another prime
        froots = _fq_roots(fbar, K, rng)
        if not froots:
            return []
        # derivative must not vanish at the roots (simple roots mod p)
        dbar = [
            K.mul(K.from_cyclo(CycloElem.from_int(i)), fbar[i])
            for i in range(1, len(fbar))
        ]
        ok_roots = [
            r
            for r in froots
            if not K.is_zero(_fq_eval(dbar, r, K))
        ]
        if len(ok_roots) != len(froots):
            continue  # collision mod p; next prime
        found = []
        for r in ok_roots:
            root = _lift_root(coeffs, r, p, max_lift)
            if root is None:
                continue
            val = exact_eval(coeffs, root, QZ5)
            if val.is_zero:
                found.append(root)
        return found
    return []


def _fq_eval(f, x, K):
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


def _lift_root(coeffs, r0, p, max_lift):
    """Newton-lift a simple root mod p and rationally reconstruct it."""
    M = p
    root = tuple(int(v) % p for v in r0)
    for _ in range(max_lift):
        M2 = M * M
        ring = ZetaModM(M2)
        f = [ring.from_cyclo(c) for c in coeffs]
        fp = [
            ring.mul(ring.from_cyclo(CycloElem.from_int(i)), f[i])
            for i in range(1, len(f))
        ]
        x = tuple(v % M2 for v in root)
        fx = ring.eval_poly(f, x)
        dfx = ring.eval_poly(fp, x)
        try:
            step = ring.mul(fx, ring.inv(dfx))
        except ZeroDivisionError:
            return None
        x = ring.sub(x, step)
        root, M = x, M2
        cand = _try_reconstruct(root, M)
        if cand is not None:
            return cand
    return None


def _try_reconstruct(root, M):
    cs = []
    for v in root:
        rec = rational_reconstruct(v % M, M)
        if rec is None:
            return None
        cs.append(ratio(rec[0], rec[1]))
    return CycloElem(cs)
