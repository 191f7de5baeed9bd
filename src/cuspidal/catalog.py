"""Built-in surface catalog.

new_quartic / new_quintic are embedded as verbatim equation strings; the
Van der Geer-Zagier pair lives on s1 = 0 in P^4(x,y,z,w,t) and is realized
in P^3 by eliminating t = -(x+y+z+w) from 12 s5 - 5 s2 s3 and 4 s4 - s2^2,
where s_i = x^i + y^i + z^i + w^i + t^i.
"""

from __future__ import annotations

from .multipoly import DEGREVLEX, Poly, ProjPoint, QZ5, Ring
from .zfive import ActionK, LinearAction

XYZW = Ring(("x", "y", "z", "w"), DEGREVLEX, QZ5)

NEW_QUARTIC_TEXT = (
    "x^4+2*x^2*z*w-8*x*y*z^2+4*y^3*z-4*y*w^3+5*z^2*w^2+(e^3+e^2)*"
    "(-4*x^2*z*w-4*x*y^2*w+12*x*y*z^2-4*y^3*z+8*y*w^3-8*z^2*w^2)"
)

NEW_QUINTIC_TEXT = (
    "x^5+10/3*x^3*z*w-20*x^2*y*z^2+20*x*y^3*z-20*x*y*w^3+25*x*z^2*w^2-"
    "4/3*y^5-140/3*y^2*z*w^2+80*y*z^3*w-136/3*z^5+4*w^5+(e^3+e^2)*"
    "(-20/3*x^3*z*w-10*x^2*y^2*w+30*x^2*y*z^2-20*x*y^3*z+40*x*y*w^3-"
    "40*x*z^2*w^2+70*y^2*z*w^2-130*y*z^3*w+220/3*z^5-20/3*w^5)"
)


def _power_sum(k: int) -> Poly:
    """s_k = x^k + y^k + z^k + w^k + t^k with t = -(x+y+z+w)."""
    x, y, z, w = XYZW.gens()
    t = -(x + y + z + w)
    return x**k + y**k + z**k + w**k + t**k


def _vdgz_quintic() -> Poly:
    return 12 * _power_sum(5) - 5 * _power_sum(2) * _power_sum(3)


def _vdgz_quartic() -> Poly:
    return 4 * _power_sum(4) - _power_sum(2) ** 2


# the permutation (x,y,z,w,t) -> (y,z,w,t,x) on s1 = 0, eliminated to P^3
VDGZ_ACTION = LinearAction(
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]], order=5
)


class SurfaceEntry:
    def __init__(self, name, poly, action, expected_degree, companion=None):
        self.name = name
        self.poly = poly
        self.action = action
        self.expected_degree = expected_degree
        self.companion = companion  # name of the paired quartic, if any

    def __repr__(self):
        return "SurfaceEntry(%s)" % self.name


# each entry is built on first use: the VdGZ power sums are expanded only
# by the commands that ask for a VdGZ surface
_BUILDERS = {
    "new_quartic": lambda: SurfaceEntry(
        "new_quartic", XYZW.parse(NEW_QUARTIC_TEXT), ActionK(0), 4
    ),
    "new_quintic": lambda: SurfaceEntry(
        "new_quintic",
        XYZW.parse(NEW_QUINTIC_TEXT),
        ActionK(0),
        5,
        companion="new_quartic",
    ),
    "vdgz_quartic": lambda: SurfaceEntry(
        "vdgz_quartic", _vdgz_quartic(), VDGZ_ACTION, 4
    ),
    "vdgz_quintic": lambda: SurfaceEntry(
        "vdgz_quintic", _vdgz_quintic(), VDGZ_ACTION, 5, companion="vdgz_quartic"
    ),
}

_ENTRIES = {}


def get(name: str) -> SurfaceEntry:
    if name not in _BUILDERS:
        raise KeyError("unknown catalog surface %r" % name)
    entry = _ENTRIES.get(name)
    if entry is None:
        entry = _ENTRIES[name] = _BUILDERS[name]()
    return entry


def names():
    """The catalog names, sorted; builds no entry."""
    return sorted(_BUILDERS)


# distinguished points of the new quartic (fixed node and the chosen node)
FIXED_NODE = ProjPoint([0, 0, 1, 0])
CHOSEN_NODE = ProjPoint([1, 1, 1, 1])


def vdgz_lines():
    """The 15 lines on the Van der Geer-Zagier quintic.

    In P^4 they are spanned by pairing two coordinate pairs with opposite
    signs and zeroing the remaining coordinate; each is cut in P^3 by two
    linear forms.
    """
    ring = XYZW
    x, y, z, w = ring.gens()
    t = -(x + y + z + w)
    coords = [x, y, z, w, t]
    names5 = ["x", "y", "z", "w", "t"]
    lines = []
    for zero_i in range(5):
        rest = [i for i in range(5) if i != zero_i]
        seen = set()
        for pair in _pairings(rest):
            key = tuple(sorted(tuple(sorted(p)) for p in pair))
            if key in seen:
                continue
            seen.add(key)
            (a, b), (c, d) = pair
            forms = [coords[a] + coords[b], coords[c] + coords[d], coords[zero_i]]
            # the three forms have rank 2 on s1 = 0; keep two independent ones
            label = "%s+%s=%s+%s=%s=0" % (
                names5[a],
                names5[b],
                names5[c],
                names5[d],
                names5[zero_i],
            )
            lines.append((label, forms))
    return lines


def _pairings(items):
    """All ways to split 4 items into two unordered pairs."""
    a, b, c, d = items
    return [
        ((a, b), (c, d)),
        ((a, c), (b, d)),
        ((a, d), (b, c)),
    ]


def vdgz_cusps():
    """The 15 cusps of the Van der Geer-Zagier quintic in P^3: the
    distinct projective points whose P^4 coordinates (x,y,z,w,t), with
    t = -(x+y+z+w), are the permutations of (0, 1, 1, -1, -1)."""
    from itertools import permutations

    seen = []
    for perm in set(permutations((0, 1, 1, -1, -1))):
        p = ProjPoint(list(perm[:4]))
        if all(p != q for q in seen):
            seen.append(p)
    seen.sort(key=repr)
    return seen
