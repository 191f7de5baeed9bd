"""Sparse multivariate polynomials over Q(zeta5) or a triangular extension.

A monomial is a plain tuple of exponents (one slot per ring variable); a
polynomial stores its terms as a tuple of (monomial, coefficient) pairs,
strictly decreasing in the ring's term order, with no zero coefficients.
The term order also packs a monomial into one int (``TermOrder.pack``),
the form the Groebner kernel computes with.
Coefficient arithmetic is delegated to a field context so the same code
runs over Q(zeta5) and over dynamic towers (see extfield); over Q(zeta5),
products and evaluation sum raw integer numerators per monomial and bring
each output coefficient to lowest terms once (docs/DECISIONS.md D15).

The text grammar matches the catalog equations: explicit `*`, `^`, integer
and `p/q` literals, the constant `e`, parentheses; implicit multiplication
is a syntax error.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import combinations
from fractions import Fraction
from math import gcd, lcm, prod

from .cyclofield import CycloElem, canon, cyclo_to_str, phi5_mul


# ---------------------------------------------------------------------------
# field contexts


class BaseFieldQZ5:
    """Field context for Q(zeta5) itself; elements are CycloElem."""

    name = "QQ(zeta5)"

    zero = CycloElem.from_int(0)
    one = CycloElem.from_int(1)

    @staticmethod
    def coerce(x):
        if isinstance(x, CycloElem):
            return x
        if isinstance(x, int):
            return CycloElem.from_int(x)
        return CycloElem.from_rat(x)

    # C-level operators: no Python frame per coefficient operation
    is_zero = staticmethod(operator.not_)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    eq = staticmethod(operator.eq)

    to_str = staticmethod(cyclo_to_str)

    @staticmethod
    def inv(a):
        return a.inverse()

    @staticmethod
    def content(a):
        """(gcd of the integer numerators, common denominator) of a."""
        return gcd(*a.n), a.d

    @staticmethod
    def scale_rat(a, r):
        """a times the int or Fraction r, by 4 integer products."""
        k, (n0, n1, n2, n3) = r.numerator, a.n
        return canon((n0 * k, n1 * k, n2 * k, n3 * k), a.d * r.denominator)


QZ5 = BaseFieldQZ5()


# ---------------------------------------------------------------------------
# term orders


SLOT_BITS = 16
SLOT_BOUND = (1 << (SLOT_BITS - 1)) - 1
_SLOT_MASK = (1 << SLOT_BITS) - 1


class TermOrder:
    """Monomial order; key(exp) is monotone for the order (bigger = leading).

    pack(exp) maps an exponent tuple to one int whose integer order is the
    term order, in fixed SLOT_BITS-wide slots whose top bit is a guard
    bit.  A graded order puts the total degree in the top slot and then
    SLOT_BOUND - e for the variables from last to first; LEX puts the
    exponents themselves, first variable on top.  Either way the product
    of x^a and x^b packs to pack(a) + pack(b) - pack(0), and x^a divides
    x^b exactly when (pack(b) - pack(a) + pack(0)) & guard(n) == 0
    (docs/DECISIONS.md D6).
    """

    def __init__(self, name, key_fn, graded):
        self.name = name
        self.key = lru_cache(maxsize=None)(key_fn)
        self.graded = graded

    def __repr__(self):
        return "TermOrder(%r)" % self.name

    def pack(self, exp):
        """One int for the exponent tuple; ValueError when an exponent is
        negative or a slot (the total degree, when graded) passes
        SLOT_BOUND."""
        if exp and min(exp) < 0:
            raise ValueError("negative exponent in %r" % (exp,))
        if self.graded:
            p = sum(exp)
            if p > SLOT_BOUND:
                raise ValueError("degree of %r exceeds the slot bound" % (exp,))
            for e in reversed(exp):
                p = (p << SLOT_BITS) | (SLOT_BOUND - e)
            return p
        p = 0
        for e in exp:
            if e > SLOT_BOUND:
                raise ValueError("exponent of %r exceeds the slot bound" % (exp,))
            p = (p << SLOT_BITS) | e
        return p

    def unpack(self, p, n):
        """Exponent tuple of n variables packed in p."""
        slots = []
        for _ in range(n):
            slots.append(p & _SLOT_MASK)
            p >>= SLOT_BITS
        if self.graded:
            return tuple([SLOT_BOUND - s for s in slots])
        return tuple(reversed(slots))

    def guard(self, n):
        """Mask of the guard bits of a monomial in n variables."""
        top = 1 << (SLOT_BITS - 1)
        return sum(top << (SLOT_BITS * i) for i in range(n + self.graded))


def _degrevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _lex_key(exp):
    return exp


DEGREVLEX = TermOrder("degrevlex", _degrevlex_key, graded=True)
LEX = TermOrder("lex", _lex_key, graded=False)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)


def mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a):
    return sum(a)


class Ring:
    """Polynomial ring descriptor: ordered variables, term order, field."""

    def __init__(self, variables, order=DEGREVLEX, field=QZ5):
        self.vars = tuple(variables)
        self.order = order
        self.field = field
        self.nvars = len(self.vars)
        self._zero_mono = (0,) * self.nvars

    def __repr__(self):
        return "Ring(%s; %s; %s)" % (",".join(self.vars), self.order.name, self.field.name)

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.vars == other.vars
            and self.order.name == other.order.name
            and self.field is other.field
        )

    def __hash__(self):
        return hash((self.vars, self.order.name, id(self.field)))

    # -- constructors ------------------------------------------------------

    @property
    def zero(self):
        return Poly(self, ())

    @property
    def one(self):
        return self.from_scalar(self.field.one)

    def from_scalar(self, c):
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return Poly(self, ())
        return Poly(self, ((self._zero_mono, c),))

    def var(self, name):
        i = self.vars.index(name)
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, ((tuple(exp), self.field.one),))

    def gens(self):
        return [self.var(v) for v in self.vars]

    def from_terms(self, pairs):
        """Build from (exp, coeff) pairs, merging duplicates."""
        acc = {}
        for exp, c in pairs:
            c = self.field.coerce(c)
            if exp in acc:
                acc[exp] = self.field.add(acc[exp], c)
            else:
                acc[exp] = c
        return self.from_dict(acc)

    def from_dict(self, d):
        is_zero = self.field.is_zero
        exps = sorted(d, key=self.order.key, reverse=True)
        return Poly(self, tuple([(e, d[e]) for e in exps if not is_zero(d[e])]))

    def _from_products(self, acc):
        """The polynomial of a dict filled by `_mul_terms_into`."""
        if self.field is not QZ5:
            return self.from_dict(acc)
        out = []
        for e in sorted(acc, key=self.order.key, reverse=True):
            n0, n1, n2, n3, d = acc[e]
            if n0 or n1 or n2 or n3:
                out.append((e, canon((n0, n1, n2, n3), d)))
        return Poly(self, tuple(out))

    def parse(self, text):
        return parse_poly(text, self)

    def with_field(self, field):
        return Ring(self.vars, self.order, field)


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

    def involves(self, var_index):
        return any(e[var_index] for e, _ in self.terms)

    def coeff_of(self, exp):
        for e, c in self.terms:
            if e == exp:
                return c
        return self.ring.field.zero

    def support(self):
        return [e for e, _ in self.terms]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.ring, _merge(self.ring, self.terms, other.terms, 1))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(self.ring, _merge(self.ring, self.terms, other.terms, -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        neg = self.ring.field.neg
        return Poly(self.ring, tuple((e, neg(c)) for e, c in self.terms))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero
        if len(a) > len(b):
            a, b = b, a
        f = self.ring.field
        return self.ring._from_products(_mul_terms_into({}, _raw_terms(a, f), b, f))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = self.ring.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

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
        f = self.ring.field
        c = f.coerce(c)
        if f.is_zero(c):
            return self.ring.zero
        return Poly(self.ring, tuple((e, f.mul(cc, c)) for e, cc in self.terms))

    def sub_mul_mono(self, c, mono, g):
        """self - c * x^mono * g; uncalled, kept for perfbench's tracer."""
        return self - g * Poly(self.ring, ((mono, c),))

    def monic(self):
        """Divide by the leading coefficient (may split over towers)."""
        if not self.terms:
            return self
        f = self.ring.field
        inv = f.inv(self.lc())
        return Poly(
            self.ring,
            ((self.terms[0][0], f.one),)
            + tuple((e, f.mul(c, inv)) for e, c in self.terms[1:]),
        )

    def primitive(self):
        """Remove rational content (exact unit scaling; keeps field class)."""
        if not self.terms:
            return self
        f = self.ring.field
        num_gcd = 0
        den_lcm = 1
        for _, c in self.terms:
            g, d = f.content(c)
            num_gcd = gcd(num_gcd, g)
            den_lcm = lcm(den_lcm, d)
        if num_gcd == 0:
            return self
        factor = Fraction(den_lcm, num_gcd)
        if factor == 1:
            return self
        return Poly(
            self.ring, tuple((e, f.scale_rat(c, factor)) for e, c in self.terms)
        )

    # -- calculus ----------------------------------------------------------

    def partial(self, var):
        """Formal partial derivative; var is a name or an index.  Lowering
        one exponent keeps the terms' order, so nothing is re-sorted."""
        i = var if isinstance(var, int) else self.ring.vars.index(var)
        scale = self.ring.field.scale_rat
        out = []
        for e, c in self.terms:
            k = e[i]
            if k:
                out.append((e[:i] + (k - 1,) + e[i + 1 :], scale(c, k)))
        return Poly(self.ring, tuple(out))

    # -- substitution ------------------------------------------------------

    def subs(self, assignment, ring=None):
        """Substitute {var index or name: Poly or scalar} simultaneously.

        Unassigned variables stay.  With ``ring``, a ring map into that
        ring: the images and scalars live there, and every variable must
        be assigned (ValueError otherwise).  The powers of each image are
        built by successive products and cached per variable; each term's
        product of image powers is expanded into one dict of raw sums,
        which is sorted and brought to lowest terms once.
        """
        src = self.ring
        target = src if ring is None else ring
        f = target.field
        images = [None] * src.nvars
        for k, v in assignment.items():
            i = k if isinstance(k, int) else src.vars.index(k)
            images[i] = v if isinstance(v, Poly) else target.from_scalar(v)
        for i, v in enumerate(images):
            if v is None:
                if ring is not None:
                    raise ValueError("ring map leaves %s unassigned" % src.vars[i])
                images[i] = target.var(src.vars[i])
        one = target.one
        powers = [[one, v] for v in images]
        zero = target._zero_mono
        out = {}
        for e, c in self.terms:
            factors = []
            for i, k in enumerate(e):
                if k:
                    pw = powers[i]
                    while len(pw) <= k:
                        pw.append(pw[-1] * images[i])
                    factors.append(pw[k].terms)
            part = _raw_terms(((zero, f.coerce(c)),), f)
            for fac in factors[:-1]:
                part = _mul_terms_into({}, part, fac, f).items()
            _mul_terms_into(out, part, factors[-1] if factors else one.terms, f)
        return target._from_products(out)

    def eval(self, coords, field=None):
        """Full evaluation at a point (coords in this or a larger field);
        over Q(zeta5) the terms' values are summed on raw numerators."""
        f = field if field is not None else self.ring.field
        pow_cache = {}
        vals = []
        for e, c in self.terms:
            v = [f.coerce(c)]
            for i, k in enumerate(e):
                if k:
                    p = pow_cache.get((i, k))
                    if p is None:
                        p = base = f.coerce(coords[i])
                        for _ in range(k - 1):
                            p = f.mul(p, base)
                        pow_cache[i, k] = p
                    v.append(p)
            vals.append(v)
        if f is not QZ5:
            return reduce(f.add, [reduce(f.mul, v) for v in vals], f.zero)
        s0, s1, s2, s3, sd = 0, 0, 0, 0, 1
        for v in vals:
            b0, b1, b2, b3 = reduce(phi5_mul, [p.n for p in v])
            d = prod([p.d for p in v])
            if d == sd:
                s0, s1, s2, s3 = s0 + b0, s1 + b1, s2 + b2, s3 + b3
            else:
                s0, s1, s2, s3, sd = (s0 * d + b0 * sd, s1 * d + b1 * sd,
                                      s2 * d + b2 * sd, s3 * d + b3 * sd, sd * d)
        return canon((s0, s1, s2, s3), sd)

    def dehomogenize(self, chart):
        """Set the chart variable to 1."""
        i = chart if isinstance(chart, int) else self.ring.vars.index(chart)
        out = []
        for e, c in self.terms:
            e2 = e[:i] + (0,) + e[i + 1 :]
            out.append((e2, c))
        return self.ring.from_terms(out)

    def map_coeffs(self, fn, new_ring=None):
        ring = new_ring if new_ring is not None else self.ring
        return ring.from_terms((e, fn(c)) for e, c in self.terms)

    # -- comparisons / printing ---------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.terms) != len(other.terms):
            return False
        f = self.ring.field
        return all(
            e1 == e2 and f.eq(c1, c2)
            for (e1, c1), (e2, c2) in zip(self.terms, other.terms)
        )

    def __hash__(self):
        return hash((self.ring, tuple((e, str(c)) for e, c in self.terms)))

    def __str__(self):
        return print_poly(self)

    def __repr__(self):
        return "Poly(%s)" % print_poly(self)


def _raw_terms(terms, field):
    """Over Q(zeta5), each coefficient n/d as the raw 5-tuple (n0, ..., d)."""
    if field is not QZ5:
        return terms
    return [(e, c.n + (c.d,)) for e, c in terms]


def _mul_terms_into(acc, a, b, field):
    """Add the product of the term sequences a (from `_raw_terms`) and b
    into the dict acc.  Over Q(zeta5) acc holds raw 5-tuples for
    `Ring._from_products` (docs/DECISIONS.md D15): a product is a
    `phi5_mul`, or 4 integer products when a's factor is rational, and is
    added over an equal denominator, cross-multiplied over another."""
    if field is not QZ5:
        mul, add = field.mul, field.add
        for ea, ca in a:
            for eb, cb in b:
                m = tuple(map(operator.add, ea, eb))
                p = mul(ca, cb)
                acc[m] = add(acc[m], p) if m in acc else p
        return acc
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


def _merge(ring, a, b, sign):
    """Merge two descending term tuples; sign applies to b."""
    f = ring.field
    key = ring.order.key
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ea, ca = a[i]
        eb, cb = b[j]
        if ea == eb:
            c = f.add(ca, cb) if sign > 0 else f.sub(ca, cb)
            if not f.is_zero(c):
                out.append((ea, c))
            i += 1
            j += 1
        elif key(ea) > key(eb):
            out.append((ea, ca))
            i += 1
        else:
            out.append((eb, cb if sign > 0 else f.neg(cb)))
            j += 1
    out.extend(a[i:])
    if sign > 0:
        out.extend(b[j:])
    else:
        out.extend((e, f.neg(c)) for e, c in b[j:])
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
    f = ring.field
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
    inv = f.inv(lead_c)
    sub = Poly(ring, tuple(rest)).scale(f.neg(inv))
    return p.subs({lead_i: sub})


# ---------------------------------------------------------------------------
# projective points


class ProjPoint:
    """Point of P^(n-1); normalized so the last nonzero coordinate is 1."""

    __slots__ = ("field", "coords")

    def __init__(self, coords, field=QZ5, normalize=True):
        coords = tuple(field.coerce(c) for c in coords)
        if all(field.is_zero(c) for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        if normalize:
            last = max(i for i, c in enumerate(coords) if not field.is_zero(c))
            inv = field.inv(coords[last])
            coords = tuple(field.mul(c, inv) for c in coords)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("ProjPoint is immutable")

    def chart(self):
        """Index of the last nonzero (== 1 after normalization) coordinate."""
        f = self.field
        return max(i for i, c in enumerate(self.coords) if not f.is_zero(c))

    def affine(self):
        """Coordinates with the chart slot removed."""
        i = self.chart()
        return self.coords[:i] + self.coords[i + 1 :]

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.field is not other.field:
            return NotImplemented
        f = self.field
        return all(f.eq(a, b) for a, b in zip(self.coords, other.coords))

    def __hash__(self):
        return hash(tuple(str(c) for c in self.coords))

    def __repr__(self):
        f = self.field
        return "(" + " : ".join(f.to_str(c) for c in self.coords) + ")"


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


def parse_scalar(text: str) -> CycloElem:
    """Parse a scalar (no ring variables) in the same grammar."""
    ring = Ring((), field=QZ5)
    p = parse_poly(text, ring)
    if p.is_zero:
        return QZ5.zero
    return p.terms[0][1]


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
    f = p.ring.field
    chunks = []
    for e, c in p.terms:
        mono = _mono_str(p.ring, e)
        cs = f.to_str(c)
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
