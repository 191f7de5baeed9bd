"""Sparse multivariate polynomials over Q(zeta5).

A monomial is a plain tuple of exponents (one slot per ring variable); a
polynomial stores its terms as a tuple of (monomial, coefficient) pairs,
strictly decreasing in degrevlex, the only term order (docs/DECISIONS.md
D18), with no zero coefficients.  Q(zeta5) is the only coefficient field
(D17): every coefficient is a CycloElem, and the arithmetic is its
operators.  The order is module functions cached for the life of the
process: the sort key ``degrevlex_key``, and ``pack``, ``unpack`` and
``guard``, which pack a monomial into one int, the form the Groebner
kernel computes with.  Products, substitutions and evaluation sum raw
integer numerators per monomial and bring each output coefficient to
lowest terms once (D15).  ``QZ5`` is the field context of Q(zeta5) that
`unipoly`'s routines take (D22).

The text grammar matches the catalog equations: explicit `*`, `^`, integer
and `p/q` literals, the constant `e`, parentheses; implicit multiplication
is a syntax error.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations
from fractions import Fraction
from math import lcm

from .cyclofield import ONE, ZERO, CycloElem, as_cyclo, canon, cyclo_to_str, phi5_mul


# ---------------------------------------------------------------------------
# the field context of `unipoly`


class BaseFieldQZ5:
    """Field context for Q(zeta5) itself, for `unipoly`; elements are
    CycloElem."""

    zero = ZERO
    one = ONE

    coerce = staticmethod(as_cyclo)

    # C-level operators: no Python frame per coefficient operation
    is_zero = staticmethod(operator.not_)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    eq = staticmethod(operator.eq)

    @staticmethod
    def inv(a):
        return a.inverse()

    @staticmethod
    def scale_rat(a, r):
        """a times the int or Fraction r, by 4 integer products."""
        k, (n0, n1, n2, n3) = r.numerator, a.n
        return canon((n0 * k, n1 * k, n2 * k, n3 * k), a.d * r.denominator)


QZ5 = BaseFieldQZ5()

_ONE4 = (1, 0, 0, 0)  # the raw numerator of 1


# ---------------------------------------------------------------------------
# degrevlex, and monomials packed into one int


SLOT_BITS = 16
SLOT_BOUND = (1 << (SLOT_BITS - 1)) - 1
_SLOT_MASK = (1 << SLOT_BITS) - 1


@lru_cache(maxsize=None)
def degrevlex_key(exp):
    """Sort key of degrevlex, the one monomial order: bigger is leading."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


@lru_cache(maxsize=None)
def pack(exp):
    """One int for the exponent tuple whose integer order is degrevlex.

    Fixed SLOT_BITS-wide slots, each with a guard bit on top, hold the
    total degree in the top slot and then SLOT_BOUND - e for the
    variables from last to first.  The product of x^a and x^b packs to
    pack(a) + pack(b) - pack(0), and x^a divides x^b exactly when
    (pack(b) - pack(a) + pack(0)) & guard(n) == 0 (docs/DECISIONS.md D6).
    ValueError when an exponent is negative or the total degree passes
    SLOT_BOUND.
    """
    if exp and min(exp) < 0:
        raise ValueError("negative exponent in %r" % (exp,))
    p = sum(exp)
    if p > SLOT_BOUND:
        raise ValueError("degree of %r exceeds the slot bound" % (exp,))
    for e in reversed(exp):
        p = (p << SLOT_BITS) | (SLOT_BOUND - e)
    return p


@lru_cache(maxsize=None)
def unpack(p, n):
    """Exponent tuple of n variables packed in p."""
    slots = []
    for _ in range(n):
        slots.append(SLOT_BOUND - (p & _SLOT_MASK))
        p >>= SLOT_BITS
    return tuple(slots)


@lru_cache(maxsize=None)
def guard(n):
    """Mask of the guard bits of a monomial in n variables."""
    top = 1 << (SLOT_BITS - 1)
    return sum(top << (SLOT_BITS * i) for i in range(n + 1))


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)


def mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


class Ring:
    """Polynomial ring descriptor over Q(zeta5) in degrevlex: ordered
    variables."""

    def __init__(self, variables):
        self.vars = tuple(variables)
        self.nvars = len(self.vars)
        self._zero_mono = (0,) * self.nvars

    def __repr__(self):
        return "Ring(%s)" % ",".join(self.vars)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    # -- constructors ------------------------------------------------------

    @property
    def zero(self):
        return Poly(self, ())

    @property
    def one(self):
        return self.from_scalar(ONE)

    def from_scalar(self, c):
        c = as_cyclo(c)
        if not c:
            return Poly(self, ())
        return Poly(self, ((self._zero_mono, c),))

    def var(self, name):
        i = self.vars.index(name)
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, ((tuple(exp), ONE),))

    def gens(self):
        return [self.var(v) for v in self.vars]

    def linear_form(self, coeffs):
        """sum(coeffs[i] * x_i); `Poly.linear_coeffs` reads it back."""
        n = self.nvars
        return self.from_terms(
            (tuple([int(j == i) for j in range(n)]), c) for i, c in enumerate(coeffs)
        )

    def from_terms(self, pairs):
        """Build from (exp, coeff) pairs, merging duplicates."""
        acc = {}
        for exp, c in pairs:
            c = as_cyclo(c)
            acc[exp] = acc[exp] + c if exp in acc else c
        exps = sorted(acc, key=degrevlex_key, reverse=True)
        return Poly(self, tuple([(e, acc[e]) for e in exps if acc[e]]))

    def _from_products(self, acc):
        """The polynomial of a dict filled by `_mul_terms_into`."""
        out = []
        for e in sorted(acc, key=degrevlex_key, reverse=True):
            n0, n1, n2, n3, d = acc[e]
            if n0 or n1 or n2 or n3:
                out.append((e, canon((n0, n1, n2, n3), d)))
        return Poly(self, tuple(out))

    def parse(self, text):
        return parse_poly(text, self)


class Poly:
    """Immutable sparse polynomial; terms strictly decreasing in the order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lt(self):
        return self.terms[0]

    def lm(self):
        return self.terms[0][0]

    def lc(self):
        return self.terms[0][1]

    def degree(self):
        """Total degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(mono_deg(e) for e, _ in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        d = mono_deg(self.terms[0][0])
        return all(mono_deg(e) == d for e, _ in self.terms)

    def coeff_of(self, exp):
        for e, c in self.terms:
            if e == exp:
                return c
        return ZERO

    def support(self):
        return [e for e, _ in self.terms]

    def linear_coeffs(self):
        """The coefficients of x_0, ..., x_(n-1): the vector that
        `Ring.linear_form` builds from."""
        out = [ZERO] * self.ring.nvars
        for e, c in self.terms:
            if sum(e) == 1:
                out[e.index(1)] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.ring, _merge(self.terms, other.terms, 1))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.ring, _merge(self.terms, other.terms, -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Poly(self.ring, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero
        if len(a) > len(b):
            a, b = b, a
        return self.ring._from_products(_mul_terms_into({}, _raw_terms(a), b))

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n by repeated squaring: n.bit_length() - 1 squares and one
        product for each further set bit of n, so no square is formed past
        the top bit and no product is taken with 1 (docs/DECISIONS.md D28)."""
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return self.ring.one
        acc = None
        base = self
        while True:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if not n:
                return acc
            base = base * base

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            return NotImplemented
        if isinstance(other, (int, Fraction, CycloElem)):
            return self.ring.from_scalar(other)
        return NotImplemented

    def scale(self, c):
        """Multiply by a field scalar."""
        c = as_cyclo(c)
        if not c:
            return self.ring.zero
        return Poly(self.ring, tuple((e, cc * c) for e, cc in self.terms))

    def sub_mul_mono(self, c, mono, g):
        """self - c * x^mono * g; uncalled, kept for perfbench's tracer."""
        return self - g * Poly(self.ring, ((mono, c),))

    def monic(self):
        """Divide by the leading coefficient; a monic polynomial is
        returned as it is."""
        if not self.terms:
            return self
        if self.lc() == ONE:
            return self
        inv = self.lc().inverse()
        return Poly(
            self.ring,
            ((self.terms[0][0], ONE),) + tuple((e, c * inv) for e, c in self.terms[1:]),
        )

    # -- calculus ----------------------------------------------------------

    def partial(self, var):
        """Formal partial derivative; var is a name or an index.  Lowering
        one exponent keeps the terms' order, so nothing is re-sorted."""
        i = var if isinstance(var, int) else self.ring.vars.index(var)
        out = []
        for e, c in self.terms:
            k = e[i]
            if k:
                n0, n1, n2, n3 = c.n
                kc = canon((n0 * k, n1 * k, n2 * k, n3 * k), c.d)
                out.append((e[:i] + (k - 1,) + e[i + 1 :], kc))
        return Poly(self.ring, tuple(out))

    # -- substitution ------------------------------------------------------

    def subs(self, assignment):
        """Substitute {var index or name: Poly or scalar} simultaneously.

        Unassigned variables stay.  The powers of each image are built by
        successive products and cached per variable; each term's product
        of image powers is expanded into one dict of raw sums, which is
        sorted and brought to lowest terms once.
        """
        ring = self.ring
        images = [ring.var(v) for v in ring.vars]
        for k, v in assignment.items():
            i = k if isinstance(k, int) else ring.vars.index(k)
            images[i] = v if isinstance(v, Poly) else ring.from_scalar(v)
        one = ring.one
        powers = [[one, v] for v in images]
        zero = ring._zero_mono
        out = {}
        for e, c in self.terms:
            factors = []
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(pw[-1] * images[i])
                    factors.append(pw[k].terms)
            part = _raw_terms(((zero, c),))
            for fac in factors[:-1]:
                part = _mul_terms_into({}, part, fac).items()
            _mul_terms_into(out, part, factors[-1] if factors else one.terms)
        return ring._from_products(out)

    def eval(self, coords):
        """Full evaluation at a point, on raw numerators (D15): the
        coordinates are integer 4-tuples over one denominator D, their
        powers and each term's product are `phi5_mul`s of 4-tuples, and a
        term of degree m lies over its coefficient's denominator times
        D^m.  The terms are summed over equal denominators, brought to a
        common multiple otherwise, and the sum to lowest terms once."""
        xs = [as_cyclo(c) for c in coords]
        D = lcm(*[x.d for x in xs])
        powers = [[_ONE4, tuple([n * (D // x.d) for n in x.n])] for x in xs]
        dpowers = [1, D]
        s0 = s1 = s2 = s3 = 0
        sd = 1
        for e, c in self.terms:
            v, m = c.n, 0
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(phi5_mul(pw[-1], pw[1]))
                    v = phi5_mul(v, pw[k])
                    m += k
            while len(dpowers) <= m:
                dpowers.append(dpowers[-1] * D)
            d = c.d * dpowers[m]
            b0, b1, b2, b3 = v
            if d != sd:
                L = lcm(sd, d)
                f, g = L // sd, L // d
                s0, s1, s2, s3, sd = s0 * f, s1 * f, s2 * f, s3 * f, L
                b0, b1, b2, b3 = b0 * g, b1 * g, b2 * g, b3 * g
            s0, s1, s2, s3 = s0 + b0, s1 + b1, s2 + b2, s3 + b3
        return canon((s0, s1, s2, s3), sd)

    # -- comparisons / printing ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple((e, str(c)) for e, c in self.terms)))

    def __str__(self):
        return print_poly(self)

    def __repr__(self):
        return "Poly(%s)" % print_poly(self)


def _raw_terms(terms):
    """Each coefficient n/d as the raw 5-tuple (n0, ..., d)."""
    return [(e, c.n + (c.d,)) for e, c in terms]


def _mul_terms_into(acc, a, b):
    """Add the product of the term sequences a (from `_raw_terms`) and b
    into the dict acc of raw 5-tuples for `Ring._from_products`
    (docs/DECISIONS.md D15): a product is a `phi5_mul`, or 4 integer
    products when a's factor is rational, and is added over an equal
    denominator, cross-multiplied over another."""
    get, plus = acc.get, operator.add
    for ea, (a0, a1, a2, a3, da) in a:
        na, scale = (a0, a1, a2, a3), not (a1 or a2 or a3)
        for eb, cb in b:
            m, nb, d = tuple(map(plus, ea, eb)), cb.n, da * cb.d
            if scale:
                b0, b1, b2, b3 = a0 * nb[0], a0 * nb[1], a0 * nb[2], a0 * nb[3]
            else:
                b0, b1, b2, b3 = phi5_mul(na, nb)
            old = get(m)
            if old is None:
                acc[m] = (b0, b1, b2, b3, d)
                continue
            o0, o1, o2, o3, od = old
            if od == d:
                acc[m] = (o0 + b0, o1 + b1, o2 + b2, o3 + b3, od)
            else:
                acc[m] = (o0 * d + b0 * od, o1 * d + b1 * od,
                          o2 * d + b2 * od, o3 * d + b3 * od, od * d)
    return acc


def _merge(a, b, sign):
    """Merge two descending term tuples; sign applies to b."""
    key = degrevlex_key
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea == eb:
            c = ca + cb if sign > 0 else ca - cb
            if c:
                out.append((ea, c))
            i += 1
            j += 1
        elif key(ea) > key(eb):
            out.append((ea, ca))
            i += 1
        else:
            out.append((eb, cb if sign > 0 else -cb))
            j += 1
    out.extend(a[i:])
    if sign > 0:
        out.extend(b[j:])
    else:
        out.extend((e, -c) for e, c in b[j:])
    return tuple(out)


# ---------------------------------------------------------------------------
# calculus on several polynomials


def jacobian(p: Poly):
    """All partial derivatives, in ring variable order."""
    return [p.partial(i) for i in range(p.ring.nvars)]


def hessian(p: Poly):
    """Symmetric matrix of second partials."""
    n = p.ring.nvars
    firsts = [p.partial(i) for i in range(n)]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            h = firsts[i].partial(j)
            out[i][j] = h
            out[j][i] = h
    return out


def det_poly(m):
    """Determinant of a small square matrix of Poly (cofactor expansion)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    ring = m[0][0].ring
    out = ring.zero
    for j in range(n):
        if m[0][j].is_zero:
            continue
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        cof = m[0][j] * det_poly(sub)
        out = out + (cof if j % 2 == 0 else -cof)
    return out


def minors(m, k: int):
    """All k x k minor determinants, rows then columns in lex index order."""
    rows = len(m)
    cols = len(m[0])
    if not (1 <= k <= min(rows, cols)):
        raise ValueError("minor order out of range")
    out = []
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[m[i][j] for j in ci] for i in ri]
            out.append(det_poly(sub))
    return out


def restrict_to_plane(p: Poly, plane: Poly):
    """Substitute the plane's leading variable using plane = 0.

    The plane must be a nonzero linear form; the result no longer involves
    the solved variable.
    """
    if plane.is_zero or plane.degree() != 1:
        raise ValueError("plane must be a nonzero linear form")
    ring = p.ring
    lead_i = None
    lead_c = None
    rest = []
    for e, c in plane.terms:
        d = mono_deg(e)
        if d == 0:
            raise ValueError("plane must be homogeneous linear")
        i = next(j for j, k in enumerate(e) if k)
        if lead_i is None:
            lead_i = i
            lead_c = c
        else:
            rest.append((e, c))
    sub = Poly(ring, tuple(rest)).scale(-lead_c.inverse())
    return p.subs({lead_i: sub})


def proportional(p: Poly, q: Poly) -> bool:
    """Projective equality of two nonzero polynomials."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    return p.scale(q.lc()) == q.scale(p.lc())


# ---------------------------------------------------------------------------
# projective points


class ProjPoint:
    """Point of P^(n-1) over Q(zeta5); normalized so the last nonzero
    coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(map(as_cyclo, coords))
        if not any(coords):
            raise ValueError("projective point needs a nonzero coordinate")
        last = max(i for i, c in enumerate(coords) if c)
        inv = coords[last].inverse()
        coords = tuple(c * inv for c in coords)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("ProjPoint is immutable")

    def chart(self):
        """Index of the last nonzero (== 1 after normalization) coordinate."""
        return max(i for i, c in enumerate(self.coords) if c)

    def affine(self):
        """Coordinates with the chart slot removed."""
        i = self.chart()
        return self.coords[:i] + self.coords[i + 1 :]

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(tuple(str(c) for c in self.coords))

    def __repr__(self):
        return "(" + " : ".join(map(cyclo_to_str, self.coords)) + ")"


# ---------------------------------------------------------------------------
# parser / printer


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        t, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and t[j].isdigit():
                    j += 1
                if j < n and t[j] == "/":
                    k = j + 1
                    if k >= n or not t[k].isdigit():
                        raise ParseError("expected digits after '/'", j + 1)
                    while k < n and t[k].isdigit():
                        k += 1
                    self.tokens.append(("rat", (int(t[i:j]), int(t[j + 1 : k])), i))
                    i = k
                else:
                    self.tokens.append(("rat", (int(t[i:j]), 1), i))
                    i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("name", t[i:j], i))
                i = j
                continue
            if ch in "+-*^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError("unexpected character %r" % ch, i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


def parse_poly(text: str, ring: Ring) -> Poly:
    """Parse the shared grammar into a polynomial of the given ring."""
    tz = _Tokenizer(text)
    p = _parse_expr(tz, ring)
    kind, _, pos = tz.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return p


def _parse_expr(tz, ring):
    kind, _, _ = tz.peek()
    negate = False
    if kind in ("+", "-"):
        tz.next()
        negate = kind == "-"
    p = _parse_term(tz, ring)
    if negate:
        p = -p
    while True:
        kind, _, _ = tz.peek()
        if kind == "+":
            tz.next()
            p = p + _parse_term(tz, ring)
        elif kind == "-":
            tz.next()
            p = p - _parse_term(tz, ring)
        else:
            return p


def _parse_term(tz, ring):
    p = _parse_factor(tz, ring)
    while True:
        kind, _, pos = tz.peek()
        if kind == "*":
            tz.next()
            p = p * _parse_factor(tz, ring)
        elif kind in ("rat", "name", "("):
            raise ParseError("implicit multiplication is not allowed", pos)
        else:
            return p


def _parse_factor(tz, ring):
    p = _parse_atom(tz, ring)
    kind, _, _ = tz.peek()
    if kind == "^":
        tz.next()
        k2, val, pos = tz.next()
        if k2 != "rat" or val[1] != 1 or val[0] < 0:
            raise ParseError("exponent must be a non-negative integer", pos)
        p = p ** val[0]
    return p


def _parse_atom(tz, ring):
    kind, val, pos = tz.next()
    if kind == "rat":
        return ring.from_scalar(Fraction(val[0], val[1]))
    if kind == "name":
        if val == "e":
            return ring.from_scalar(CycloElem.e_power(1))
        if val in ring.vars:
            return ring.var(val)
        raise ParseError("unknown identifier %r" % val, pos)
    if kind == "(":
        p = _parse_expr(tz, ring)
        k2, _, pos2 = tz.next()
        if k2 != ")":
            raise ParseError("expected ')'", pos2)
        return p
    if kind == "-":
        return -_parse_factor(tz, ring)
    raise ParseError("expected a value", pos)


def _mono_str(ring, exp):
    parts = []
    for v, k in zip(ring.vars, exp):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append("%s^%d" % (v, k))
    return "*".join(parts)


def print_poly(p: Poly) -> str:
    """Serialize in the shared grammar; parse(print(p)) == p."""
    if p.is_zero:
        return "0"
    chunks = []
    for e, c in p.terms:
        mono = _mono_str(p.ring, e)
        cs = cyclo_to_str(c)
        simple = "+" not in cs[1:] and "-" not in cs[1:]
        if not mono:
            body = cs if simple else "(%s)" % cs
            sign = ""
        elif simple:
            if cs == "1":
                body, sign = mono, ""
            elif cs == "-1":
                body, sign = mono, "-"
            else:
                if cs.startswith("-"):
                    sign, cs = "-", cs[1:]
                else:
                    sign = ""
                body = "%s*%s" % (cs, mono)
        else:
            sign = ""
            body = "(%s)*%s" % (cs, mono)
        if not chunks:
            chunks.append(sign + body)
        else:
            chunks.append(("-" if sign == "-" else "+") + body)
    return "".join(chunks)
