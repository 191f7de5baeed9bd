"""Exact arithmetic in the cyclotomic field Q(zeta5).

Elements are stored in the power basis {1, e, e^2, e^3} where e is a fixed
primitive 5th root of unity, reduced by e^4 = -1 - e - e^2 - e^3.  An
element is four integers over one positive common denominator,
(n0 + n1*e + n2*e^2 + n3*e^3) / d, kept in lowest terms:
gcd(n0, n1, n2, n3, d) == 1, and zero is (0, 0, 0, 0) / 1.  Equal values
therefore have equal fields.  Values are immutable and hashable.

`phi5_mul` is the one integer product in Z[e]/(Phi5), 4 integer products
when an operand is rational and 16 otherwise; the modular rings in `modp`
reduce its output mod p or mod p^k.  `canon` is the one step to
lowest terms; `multipoly`'s products, substitutions and evaluation sum
raw numerators and call it once per monomial.  `conj_product` turns an
integer 4-vector into a positive rational integer by one product: for
inverses, for the pivots of the raw echelon in `linalg`, and for making a
new Groebner basis element monic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def ratio(num, den=1) -> Fraction:
    """Build an exact rational; den must be nonzero."""
    return Fraction(num, den)


def _isqrt_exact(n: int):
    """Integer square root of n >= 0, or None when n is not a square."""
    if n < 0:
        return None
    r = isqrt(n)
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
    return Fraction(n, d)


def phi5_mul(a, b):
    """Product of two integer 4-vectors in Z[e]/(Phi5), as a 4-tuple.

    When either operand is rational (e-coefficients 0), 4 integer
    products scale the other.  Otherwise 16: the convolution's e^5 and
    e^6 terms fold onto 1 and e, and its e^4 term is subtracted from all
    four by e^4 = -1 - e - e^2 - e^3.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if not (a1 or a2 or a3):
        return (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
    if not (b1 or b2 or b3):
        return (a0 * b0, a1 * b0, a2 * b0, a3 * b0)
    r4 = a1 * b3 + a2 * b2 + a3 * b1
    return (
        a0 * b0 + a2 * b3 + a3 * b2 - r4,
        a0 * b1 + a1 * b0 + a3 * b3 - r4,
        a0 * b2 + a1 * b1 + a2 * b0 - r4,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - r4,
    )


def _galois_int(n, k):
    """Image of an integer 4-vector under e -> e^k (k prime to 5)."""
    out = [0] * 5
    for i, c in enumerate(n):
        out[i * k % 5] += c
    c4 = out[4]
    return (out[0] - c4, out[1] - c4, out[2] - c4, out[3] - c4)


def conj_product(n):
    """s2(a) s3(a) s4(a) for the integer 4-vector a = n, s_k the
    automorphism e -> e^k: a times it is the norm N(a), a rational integer
    (its e-coefficients vanish) that is positive for a != 0 because
    Q(zeta5) has no real embedding."""
    return phi5_mul(phi5_mul(_galois_int(n, 2), _galois_int(n, 3)), _galois_int(n, 4))


class CycloElem:
    """An element (n0 + n1*e + n2*e^2 + n3*e^3) / d of Q(zeta5).

    `n` is a tuple of four ints and `d` a positive int, in lowest terms.
    """

    __slots__ = ("n", "d")

    def __init__(self, coeffs):
        """Build from four int or Fraction coefficients of 1, e, e^2, e^3."""
        c = tuple(coeffs)
        if len(c) != 4:
            raise ValueError("CycloElem needs exactly 4 coefficients")
        d = 1
        for x in c:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(
                    "CycloElem coefficients must be int or Fraction, not %s"
                    % type(x).__name__
                )
            d = lcm(d, x.denominator)
        # already in lowest terms: each x is, and d is the lcm of their denominators
        _set(self, "n", tuple(x.numerator * (d // x.denominator) for x in c))
        _set(self, "d", d)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("CycloElem is immutable")

    @property
    def c(self):
        """The four coefficients as Fractions."""
        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rat(r) -> "CycloElem":
        if not isinstance(r, (int, Fraction)):
            raise TypeError("not an int or Fraction: %r" % (r,))
        return _raw((r.numerator, 0, 0, 0), r.denominator)

    @staticmethod
    def from_int(n: int) -> "CycloElem":
        return _raw((n, 0, 0, 0), 1)

    @staticmethod
    def e_power(k: int) -> "CycloElem":
        """e^k reduced to the power basis (any integer k)."""
        k %= 5
        if k < 4:
            n = [0] * 4
            n[k] = 1
            return _raw(tuple(n), 1)
        return _raw((-1, -1, -1, -1), 1)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.n)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycloElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        da, db = self.d, other.d
        if da == db:
            return canon((a0 + b0, a1 + b1, a2 + b2, a3 + b3), da)
        return canon(
            (a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da, a3 * db + b3 * da),
            da * db,
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CycloElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        da, db = self.d, other.d
        if da == db:
            return canon((a0 - b0, a1 - b1, a2 - b2, a3 - b3), da)
        return canon(
            (a0 * db - b0 * da, a1 * db - b1 * da, a2 * db - b2 * da, a3 * db - b3 * da),
            da * db,
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        a0, a1, a2, a3 = self.n
        return _raw((-a0, -a1, -a2, -a3), self.d)

    def __mul__(self, other):
        if type(other) is not CycloElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return canon(phi5_mul(self.n, other.n), self.d * other.d)

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
        """Multiplicative inverse: a^-1 = s2(a) s3(a) s4(a) / N(a), N the
        norm (see `conj_product`)."""
        n, d = self.n, self.d
        if n[1] or n[2] or n[3]:
            conj = conj_product(n)
            norm = phi5_mul(n, conj)[0]
            return canon(tuple(q * d for q in conj), norm)
        n0 = n[0]
        if not n0:
            raise ZeroDivisionError("inverse of zero in Q(zeta5)")
        if n0 < 0:
            return _raw((-d, 0, 0, 0), -n0)
        return _raw((d, 0, 0, 0), n0)

    # -- Galois ------------------------------------------------------------

    def galois(self, k: int) -> "CycloElem":
        """Field automorphism e -> e^k for gcd(k,5) = 1."""
        k %= 5
        if k == 0:
            raise ValueError("galois index must be prime to 5")
        if k == 1:
            return self
        # an automorphism of Z[e]: the numerators' content is unchanged
        return _raw(_galois_int(self.n, k), self.d)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        if type(other) is not CycloElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.n, self.d))

    def __bool__(self):
        return any(self.n)

    # -- text form (grammar: p/q literals, e, + - * ^) ----------------------

    def __str__(self):
        return cyclo_to_str(self)

    def __repr__(self):
        return "CycloElem(%s)" % cyclo_to_str(self)


_set = object.__setattr__
_new = object.__new__


def _raw(n, d):
    """The CycloElem n/d; the caller guarantees lowest terms and d > 0."""
    x = _new(CycloElem)
    _set(x, "n", n)
    _set(x, "d", d)
    return x


def canon(n, d):
    """The CycloElem n/d for d > 0, brought to lowest terms."""
    g = gcd(d, *n)
    if g != 1:
        n = (n[0] // g, n[1] // g, n[2] // g, n[3] // g)
        d //= g
    return _raw(n, d)


def as_cyclo(x) -> CycloElem:
    """x as a CycloElem: a CycloElem as it is, an int or Fraction as that
    rational (`CycloElem.from_rat`); TypeError for anything else."""
    return x if type(x) is CycloElem else CycloElem.from_rat(x)


def _coerce(x):
    """`as_cyclo` for the operators: NotImplemented for other types."""
    if isinstance(x, (CycloElem, int, Fraction)):
        return as_cyclo(x)
    return NotImplemented


ZERO = CycloElem.from_int(0)
ONE = CycloElem.from_int(1)
E = CycloElem.e_power(1)
# alpha = e^3 + e^2 = -(1+sqrt5)/2 satisfies alpha^2 = 1 - alpha
ALPHA = CycloElem.e_power(3) + CycloElem.e_power(2)


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
            return (r, Fraction(0))
        r = rat_sqrt(a / 5)
        if r is not None:
            return (Fraction(0), r)
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
    """Write a sigma^2-fixed element as (a, b) meaning a + b*sqrt5, or None.

    sigma^2 maps c0 + c1 e + c2 e^2 + c3 e^3 to (c0 - c1) - c1 e +
    (c3 - c1) e^2 + (c2 - c1) e^3, so x is fixed exactly when c1 = 0 and
    c2 = c3 = -s; then x = r + s*beta with r = c0 + s and
    beta = e + e^4 = -1 - e^2 - e^3 = (-1 + sqrt5)/2.
    """
    c0, c1, c2, c3 = x.c
    if c1 or c2 != c3:
        return None
    s = -c2
    r = c0 + s
    return (r - s / 2, s / 2)


def _from_quad(a, b) -> CycloElem:
    """Build a + b*sqrt5 as a CycloElem (sqrt5 = -1 - 2*alpha)."""
    # sqrt5 = beta - alpha, alpha = e^2+e^3, beta = -1-alpha
    # = -1 - 2 e^2 - 2 e^3
    return CycloElem((a - b, Fraction(0), -2 * b, -2 * b))


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
    ff = _quad_mul(fq, fq)
    disc = (ff[0] - 4 * cte[0], ff[1] - 4 * cte[1])
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
