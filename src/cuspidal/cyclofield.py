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
from math import gcd, lcm


def ratio(num, den=1) -> Fraction:
    """Build an exact rational; den must be nonzero."""
    return Fraction(num, den)


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
