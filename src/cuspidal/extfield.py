"""Simple extensions Q(zeta5)[b]/(m) with dynamic splitting (D5-style
evaluation).

The defining polynomial m is monic and squarefree over Q(zeta5) but need
not be irreducible: the extension then represents a product of fields,
and inverting a zero divisor a raises SplitEvent carrying the extensions
by g = gcd(a, m) and m / g, whose degrees add up to deg m.  An element is
the tuple of the deg m CycloElem coefficients of its representative,
always reduced mod m, so it is zero in every branch iff it is the zero
tuple.  An extension has one level over Q(zeta5): only the base adjoins
(docs/DECISIONS.md D18).

No other module imports this one: every ring, point and matrix of the
pipeline is over Q(zeta5) (D17).  The extensions stay for the
dynamic-split property of acceptance criterion 9.
"""

from __future__ import annotations

from .cyclofield import ONE, ZERO, as_cyclo
from .multipoly import QZ5, BaseFieldQZ5
from . import unipoly


class SplitEvent(Exception):
    """The defining polynomial factored; carries the two branch extensions."""

    def __init__(self, branches):
        super().__init__("extension split as %s" % " * ".join(map(repr, branches)))
        self.branches = branches


class BaseField(BaseFieldQZ5):
    """Q(zeta5) as the base of the extensions: `multipoly.QZ5`, the field
    context `unipoly` runs on, with `adjoin` and `degree`.  Q(zeta5),
    `modp.ZetaModM` and `Extension` are the three rings that implement
    that context (docs/DECISIONS.md D22)."""

    @staticmethod
    def degree():
        return 1

    def adjoin(self, name, minpoly):
        """Q(zeta5)[name]/(minpoly); minpoly is a list of Q(zeta5)
        coefficients, low degree first, monic and squarefree."""
        mp = [self.coerce(c) for c in minpoly]
        if len(mp) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if not self.eq(mp[-1], self.one):
            raise ValueError("defining polynomial must be monic")
        if unipoly.deg(unipoly.gcd_monic(mp, unipoly.derivative(mp, self), self), self):
            raise ValueError("defining polynomial must be squarefree")
        return Extension(name, mp)


BASE_TOWER = BaseField()


class Extension:
    """Field context for Q(zeta5)[name]/(minpoly), minpoly monic and
    squarefree of degree d; elements are d-tuples of CycloElems."""

    def __init__(self, name, minpoly):
        self.name = name
        self.minpoly = tuple(minpoly)
        d = len(self.minpoly) - 1
        self.zero = (ZERO,) * d
        self.one = (ONE,) + self.zero[1:]

    def __repr__(self):
        return "Extension(QQ(zeta5)[%s], degree %d)" % (self.name, self.degree())

    def degree(self):
        return len(self.minpoly) - 1

    def gen(self):
        """The class of the generator: -minpoly[0] when the degree is 1."""
        if self.degree() == 1:
            return (-self.minpoly[0],)
        return (ZERO, ONE) + self.zero[2:]

    def coerce(self, x):
        """An element as it is, or a Q(zeta5) scalar as a constant."""
        if isinstance(x, tuple):
            return x
        return (as_cyclo(x),) + self.zero[1:]

    def _reduce(self, p):
        """The element of a coefficient list: its remainder mod minpoly,
        padded to d entries."""
        _, r = unipoly.divmod_poly(p, list(self.minpoly), QZ5)
        return tuple(r) + self.zero[len(r):]

    # -- arithmetic -----------------------------------------------------------

    def is_zero(self, a):
        return not any(a)

    def eq(self, a, b):
        return a == b

    def add(self, a, b):
        return tuple([x + y for x, y in zip(a, b)])

    def sub(self, a, b):
        return tuple([x - y for x, y in zip(a, b)])

    def mul(self, a, b):
        return self._reduce(unipoly.mul(list(a), list(b), QZ5))

    def inv(self, a):
        """The inverse of a by the extended Euclidean algorithm on (minpoly,
        a); raises SplitEvent when a is a zero divisor."""
        r_prev, r_cur = list(self.minpoly), unipoly.trim(list(a), QZ5)
        if not r_cur:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        s_prev, s_cur = [], [ONE]
        while unipoly.deg(r_cur, QZ5) > 0:
            q, r_next = unipoly.divmod_poly(r_prev, r_cur, QZ5)
            r_prev, r_cur = r_cur, r_next
            s_prev, s_cur = s_cur, unipoly.sub(s_prev, unipoly.mul(q, s_cur, QZ5), QZ5)
        if not r_cur:
            g = unipoly.monic(r_prev, QZ5)
            q, _ = unipoly.divmod_poly(list(self.minpoly), g, QZ5)
            raise SplitEvent([Extension(self.name, g), Extension(self.name, q)])
        return self._reduce(unipoly.scale(s_cur, r_cur[0].inverse(), QZ5))


def ext_invert_or_split(ctx: Extension, a):
    """Inverse of a valid in the whole extension, or the SplitEvent
    refining it.

    Raises ZeroDivisionError when a is identically zero.
    """
    if ctx.is_zero(a):
        raise ZeroDivisionError("element is identically zero")
    try:
        return ctx.inv(a)
    except SplitEvent as ev:
        return ev
