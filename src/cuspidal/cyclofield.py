"""Exact arithmetic in the cyclotomic field Q(zeta5).

Elements are stored in the power basis {1, e, e^2, e^3} where e is a fixed
primitive 5th root of unity, reduced by e^4 = -1 - e - e^2 - e^3.  All
coefficients are exact rationals (gmpy2.mpq when available, else
fractions.Fraction); values are immutable and hashable.
"""

from __future__ import annotations

import math

try:  # gmpy2 is an optional accelerator; the stdlib fallback is exact too
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def ratio(num, den=1) -> Rat:
    """Build an exact rational; den must be nonzero."""
    return Rat(num, den)


def _isqrt_exact(n: int):
    """Integer square root of n >= 0, or None when n is not a square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rat_sqrt(r):
    """Exact square root of a rational, or None if it is not a square."""
    if r < 0:
        return None
    n = _isqrt_exact(int(r.numerator))
    if n is None:
        return None
    d = _isqrt_exact(int(r.denominator))
    if d is None:
        return None
    return Rat(n, d)


class CycloElem:
    """An element c0 + c1*e + c2*e^2 + c3*e^3 of Q(zeta5)."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = tuple(coeffs)
        if len(c) != 4:
            raise ValueError("CycloElem needs exactly 4 coefficients")
        object.__setattr__(self, "c", c)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycloElem is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rat(r) -> "CycloElem":
        return CycloElem((Rat(r), RAT_ZERO, RAT_ZERO, RAT_ZERO))

    @staticmethod
    def from_int(n: int) -> "CycloElem":
        return CycloElem((Rat(n), RAT_ZERO, RAT_ZERO, RAT_ZERO))

    @staticmethod
    def e_power(k: int) -> "CycloElem":
        """e^k reduced to the power basis (any integer k)."""
        k %= 5
        if k < 4:
            c = [RAT_ZERO] * 4
            c[k] = RAT_ONE
            return CycloElem(c)
        return CycloElem((-RAT_ONE, -RAT_ONE, -RAT_ONE, -RAT_ONE))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        c = self.c
        return not (c[0] or c[1] or c[2] or c[3])

    @property
    def is_rational(self) -> bool:
        c = self.c
        return not (c[1] or c[2] or c[3])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        return CycloElem((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        return CycloElem((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        a = self.c
        return CycloElem((-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        # convolution: raw coefficients of e^0..e^6
        r = [RAT_ZERO] * 7
        for i in range(4):
            ai = a[i]
            if not ai:
                continue
            for j in range(4):
                bj = b[j]
                if bj:
                    r[i + j] += ai * bj
        # e^5 = 1, e^6 = e
        c0 = r[0] + r[5]
        c1 = r[1] + r[6]
        c2, c3, c4 = r[2], r[3], r[4]
        # e^4 = -1 - e - e^2 - e^3
        if c4:
            return CycloElem((c0 - c4, c1 - c4, c2 - c4, c3 - c4))
        return CycloElem((c0, c1, c2, c3))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "CycloElem":
        """Multiplicative inverse via extended Euclid modulo Phi5."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta5)")
        if self.is_rational:
            return CycloElem.from_rat(RAT_ONE / self.c[0])
        # xgcd(a(t), Phi5(t)) over Q[t]; Phi5 irreducible so gcd is a unit
        phi = [RAT_ONE] * 5
        a = list(self.c)
        s_prev, s_cur = [RAT_ONE], []  # coefficients multiplying a(t)
        r_prev, r_cur = a, phi
        while _poly_deg(r_cur) >= 0:
            q, rem = _poly_divmod(r_prev, r_cur)
            r_prev, r_cur = r_cur, rem
            s_prev, s_cur = s_cur, _poly_sub(s_prev, _poly_mul(q, s_cur))
            if _poly_deg(r_cur) < 1 and _poly_deg(r_cur) >= 0:
                break
        # now r_cur is a nonzero constant: a*s_cur = r_cur mod Phi5
        const = r_cur[0]
        inv = [ci / const for ci in s_cur]
        inv = _poly_phi5_reduce(inv)
        return CycloElem(tuple(inv + [RAT_ZERO] * (4 - len(inv)))[:4])

    # -- Galois ------------------------------------------------------------

    def galois(self, k: int) -> "CycloElem":
        """Field automorphism e -> e^k for gcd(k,5) = 1."""
        k %= 5
        if k == 0:
            raise ValueError("galois index must be prime to 5")
        if k == 1:
            return self
        out = [RAT_ZERO] * 5
        for i, ci in enumerate(self.c):
            if ci:
                out[(i * k) % 5] += ci
        if out[4]:
            c4 = out[4]
            return CycloElem((out[0] - c4, out[1] - c4, out[2] - c4, out[3] - c4))
        return CycloElem(tuple(out[:4]))

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self):
        return not self.is_zero

    # -- text form (grammar: p/q literals, e, + - * ^) ----------------------

    def __str__(self):
        return cyclo_to_str(self)

    def __repr__(self):
        return "CycloElem(%s)" % cyclo_to_str(self)


def _coerce(x):
    if isinstance(x, CycloElem):
        return x
    if isinstance(x, int):
        return CycloElem.from_int(x)
    if isinstance(x, Rat) or type(x).__name__ in ("Fraction", "mpq"):
        return CycloElem.from_rat(x)
    return NotImplemented


ZERO = CycloElem.from_int(0)
ONE = CycloElem.from_int(1)
E = CycloElem.e_power(1)
# alpha = e^3 + e^2 = -(1+sqrt5)/2 satisfies alpha^2 = 1 - alpha
ALPHA = CycloElem.e_power(3) + CycloElem.e_power(2)


def cyclo_mul(a: CycloElem, b: CycloElem) -> CycloElem:
    return a * b


def cyclo_inv(a: CycloElem) -> CycloElem:
    return a.inverse()


def galois_map(a: CycloElem, k: int) -> CycloElem:
    return a.galois(k)


# ---------------------------------------------------------------------------
# small dense Q[t] helpers (internal; degree <= 4 throughout)


def _poly_deg(p):
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else RAT_ZERO
        y = b[i] if i < len(b) else RAT_ZERO
        out.append(x - y)
    return out


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [RAT_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _poly_divmod(a, b):
    db = _poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [RAT_ZERO] * (max(_poly_deg(a) - db + 1, 0))
    lead = b[db]
    for i in range(_poly_deg(a) - db, -1, -1):
        c = a[i + db] / lead
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    return q, a[:db] if db > 0 else []


def _poly_phi5_reduce(p):
    """Reduce a Q[t] list modulo Phi5 = 1+t+t^2+t^3+t^4."""
    p = list(p)
    for i in range(len(p) - 1, 3, -1):
        c = p[i]
        if c:
            # t^i = -(t^(i-1) + t^(i-2) + t^(i-3) + t^(i-4))
            p[i] = RAT_ZERO
            for j in range(i - 4, i):
                p[j] -= c
    out = p[:4]
    while len(out) < 4:
        out.append(RAT_ZERO)
    return out


# ---------------------------------------------------------------------------
# square roots
#
# Q(zeta5) contains the quadratic field Q(sqrt5) with alpha = e^2+e^3 and
# beta = e+e^4 = -1-alpha; sqrt5 = beta - alpha = -1-2*alpha.  The sigma^2
# conjugation e -> e^4 fixes exactly Q(sqrt5), and the anti-fixed part is
# Q(sqrt5)*(e - e^4).  sqrt computation descends to Q(sqrt5) and then to Q.


def _quad_sqrt(a, b):
    """Square root of a + b*sqrt5 in Q(sqrt5): returns (p, q) or None."""
    if not b:
        r = rat_sqrt(a)
        if r is not None:
            return (r, RAT_ZERO)
        r = rat_sqrt(a / 5)
        if r is not None:
            return (RAT_ZERO, r)
        return None
    # (p + q sqrt5)^2 = p^2+5q^2 + 2pq sqrt5; so p^2 is a root of
    # X^2 - a X + 5 b^2/4 = 0
    disc = a * a - 5 * b * b
    d = rat_sqrt(disc)
    if d is None:
        return None
    for sign in (1, -1):
        p2 = (a + sign * d) / 2
        p = rat_sqrt(p2)
        if p is not None and p:
            q = b / (2 * p)
            if p * p + 5 * q * q == a:
                return (p, q)
    return None


def _to_quad(x: CycloElem):
    """Write a sigma^2-fixed element as (a, b) meaning a + b*sqrt5, or None."""
    # fixed subspace is spanned by 1 and beta = e + e^4 = (-1+sqrt5)/2;
    # x = c0 + c1 e + c2 e^2 + c3 e^3 is fixed iff c1 = -c2 = -c3 ... derive:
    # sigma2: e->e^4=-1-e-e^2-e^3, e^2->e^3, e^3->e^2.
    c0, c1, c2, c3 = x.c
    y = x.galois(4)
    if y != x:
        return None
    # x = r + s*beta with beta = e+e^4 = -1 - e^2 - e^3 ... in power basis
    # beta = (-1, 0, -1, -1)+ ... compute: e + e^4 = e + (-1-e-e^2-e^3)
    #      = -1 - e^2 - e^3
    # so x = r - s - s e^2 - s e^3 => c1 must be 0 here? beta has no e term.
    if c1:
        return None
    s = -c2
    if -c3 != s:
        return None
    r = c0 + s
    # beta = (-1+sqrt5)/2: x = r + s*beta = (r - s/2) + (s/2) sqrt5
    return (r - s / 2, s / 2)


def _from_quad(a, b) -> CycloElem:
    """Build a + b*sqrt5 as a CycloElem (sqrt5 = -1 - 2*alpha)."""
    # sqrt5 = beta - alpha, alpha = e^2+e^3, beta = -1-alpha
    # = -1 - 2 e^2 - 2 e^3
    return CycloElem((a - b, RAT_ZERO, -2 * b, -2 * b))


def cyclo_sqrt(x: CycloElem):
    """Exact square root in Q(zeta5), or None when none exists there."""
    if x.is_zero:
        return ZERO
    # decompose x = f + g*v with f, g sigma^2-fixed and v = e - e^4
    y = x.galois(4)
    two = CycloElem.from_int(2)
    f = (x + y) / two
    gv = (x - y) / two
    v = E - CycloElem.e_power(4)
    g = gv / v  # sigma^2(gv) = -gv and sigma^2(v) = -v, so g is fixed
    fq = _to_quad(f)
    gq = _to_quad(g)
    if fq is None or gq is None:  # pragma: no cover - f,g are fixed by design
        return None
    v2q = _to_quad(v * v)  # v^2 = (e-e^4)^2 is fixed
    # seek c = s + w*v with s,w in Q(sqrt5):
    #   c^2 = s^2 + w^2 v^2 + 2 s w v  =>  s^2 + w^2 v^2 = f, 2 s w = g
    a_f, b_f = fq
    a_g, b_g = gq
    if not a_g and not b_g:
        # c fixed or anti-fixed: try s with s^2 = f, then w with w^2 = f/v^2
        r = _quad_sqrt(a_f, b_f)
        if r is not None:
            return _from_quad(*r)
        # f / v^2 in Q(sqrt5)
        den = _quad_inv(v2q)
        t = _quad_mul(fq, den)
        r = _quad_sqrt(*t)
        if r is not None:
            return _from_quad(*r) * v
        return None
    # s != 0; w = g/(2s); s^2 + g^2 v^2/(4 s^2) = f
    # => (s^2)^2 - f (s^2) + g^2 v^2/4 = 0  over Q(sqrt5)
    g2v2 = _quad_mul(_quad_mul(gq, gq), v2q)
    cte = (g2v2[0] / 4, g2v2[1] / 4)
    # solve X^2 - f X + cte = 0 in Q(sqrt5)
    disc = _quad_sub(_quad_mul(fq, fq), (4 * cte[0], 4 * cte[1]))
    rd = _quad_sqrt(*disc)
    if rd is None:
        return None
    for sign in (1, -1):
        s2 = ((a_f + sign * rd[0]) / 2, (b_f + sign * rd[1]) / 2)
        s = _quad_sqrt(*s2)
        if s is None:
            continue
        if not (s[0] or s[1]):
            continue
        w = _quad_mul(gq, _quad_inv((2 * s[0], 2 * s[1])))
        cand = _from_quad(*s) + _from_quad(*w) * v
        if cand * cand == x:
            return cand
    return None


def _quad_mul(p, q):
    a, b = p
    c, d = q
    return (a * c + 5 * b * d, a * d + b * c)


def _quad_sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _quad_inv(p):
    a, b = p
    n = a * a - 5 * b * b
    if not n:
        raise ZeroDivisionError("inverse of zero in Q(sqrt5)")
    return (a / n, -b / n)


# ---------------------------------------------------------------------------
# text form


def cyclo_to_str(x: CycloElem) -> str:
    """Serialize in the shared grammar: rationals, `e`, `+ - * ^`."""
    if x.is_zero:
        return "0"
    parts = []
    for i, ci in enumerate(x.c):
        if not ci:
            continue
        neg = ci < 0
        mag = -ci if neg else ci
        if i == 0:
            body = _rat_str(mag)
        else:
            epart = "e" if i == 1 else "e^%d" % i
            body = epart if mag == 1 else "%s*%s" % (_rat_str(mag), epart)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


def _rat_str(r) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def cyclo_from_str(text: str) -> CycloElem:
    """Parse the scalar grammar; inverse of cyclo_to_str."""
    from .multipoly import parse_scalar

    return parse_scalar(text)
