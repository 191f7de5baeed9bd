"""Intersection lattice on the Godeaux quotient and the 3-divisibility
certificate.

The nine classes are A1, A1', A2, A2', A3, A3' (exceptional (-2)-curves
over the three cusp orbits) and T1, T2, T3 (curve-orbit classes).  The
quotient intersection numbers are orbit sums divided by 5 (the action is
free); the A-block is three disjoint [[-2,1],[1,-2]] blocks by
construction from certified A2 resolutions.

The certificate searches the 2^3 per-cusp label swaps (and the T1/T2
swap) for a labelling in which the primitive nullspace generator reduces
mod 3 to the pattern (2,1) on every cusp pair and 0 on the T classes;
with the recorded five-torsion assumption t = 6t this rewrites the
numerically trivial combination as Sum(2 A_i + A_i') = 3L with
L = 2t - M for an explicit integral divisor M.

PUBLISHED_MATRIX is the paper's display, kept verbatim.  Its (T3,T3)
entry -1 contradicts the display's own T3 row: the projection formula
applied to that row gives 7 (t3_self_intersection), and the lattice is
checked against the display read with that one erratum
(erratum_mismatches).  The derivation and the decision are recorded in
docs/DECISIONS.md.
"""

from __future__ import annotations

from itertools import permutations, product
from math import gcd, lcm

from . import linalg
from .cyclofield import as_cyclo

LABELS = ("A1", "A1'", "A2", "A2'", "A3", "A3'", "T1", "T2", "T3")

# recorded classification inputs, never recomputed here
ASSUMPTIONS = {
    "b2_of_quotient": 9,
    "q_of_quotient": 0,
    "torsion_group": "Z/5",
}

PUBLISHED_MATRIX = [
    [-2, 1, 0, 0, 0, 0, 1, 1, 2],
    [1, -2, 0, 0, 0, 0, 0, 2, 2],
    [0, 0, -2, 1, 0, 0, 0, 2, 1],
    [0, 0, 1, -2, 0, 0, 2, 0, 1],
    [0, 0, 0, 0, -2, 1, 1, 1, 2],
    [0, 0, 0, 0, 1, -2, 2, 0, 2],
    [1, 0, 0, 2, 1, 2, -4, 0, 0],
    [1, 2, 2, 0, 1, 0, 0, -4, 0],
    [2, 2, 1, 1, 2, 2, 0, 0, -1],
]

PUBLISHED_NULLSPACE = (2, 4, 2, -2, -2, -4, -3, 3, 0)


class IntersectionLattice:
    """A symmetric integer matrix on the classes of `LABELS`."""

    def __init__(self, matrix):
        self.matrix = [list(map(int, row)) for row in matrix]
        n = len(self.matrix)
        for row in self.matrix:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise ValueError("matrix must be symmetric")

    def determinant(self):
        return det_int(self.matrix)

    def relabelled(self, cusp_permutation, per_cusp_swaps, t_swap):
        """The same lattice presented with cusps permuted/swapped."""
        idx = _relabel_index(cusp_permutation, per_cusp_swaps, t_swap)
        m = [[self.matrix[i][j] for j in idx] for i in idx]
        return IntersectionLattice(m)


def _relabel_index(cusp_permutation, per_cusp_swaps, t_swap):
    """Class i of a relabelling is class idx[i] of the original: cusp
    block b is block cusp_permutation[b], its pair reversed when
    per_cusp_swaps[b] is set, and T1/T2 exchanged when t_swap is set."""
    idx = []
    for src, swap in zip(cusp_permutation, per_cusp_swaps):
        idx += [2 * src + 1, 2 * src] if swap else [2 * src, 2 * src + 1]
    idx += [7, 6] if t_swap else [6, 7]
    idx.append(8)
    return idx


def det_int(m):
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def nullspace_int(m):
    """Primitive integer basis of the right nullspace, deterministic:
    `linalg.kernel_basis` over Q (one vector per free column of the
    reduced row echelon form), each vector cleared of denominators and
    made primitive with its first nonzero entry positive."""
    basis = []
    for v in linalg.kernel_basis([[as_cyclo(x) for x in row] for row in m]):
        D = lcm(*[c.d for c in v])
        basis.append(_primitive_int([c.n[0] * (D // c.d) for c in v]))
    return basis


def _primitive_int(v):
    """The integer vector v divided by its content, first nonzero entry
    positive; None for the zero vector."""
    g = gcd(*v)
    if not g:
        return None
    if next(x for x in v if x) < 0:
        g = -g
    return [x // g for x in v]


class DivisibilityCertificate:
    """The 3-divisibility relation extracted from the nullspace vector."""

    def __init__(self, vector, swaps, t_swap, mod3, M):
        self.vector = tuple(vector)
        self.swaps = tuple(swaps)  # per-cusp label swaps applied
        self.t_swap = t_swap
        self.mod3 = tuple(mod3)
        self.M = tuple(M)  # integral divisor coefficients: L = 2t - M
        self.assumptions = dict(ASSUMPTIONS)

    def relation_text(self):
        """The divisibility relation in the lattice's own labels (the mod-3
        pattern is (2,1) per cusp after the recorded swaps)."""
        parts = []
        for i in range(3):
            a, ap = "A%d" % (i + 1), "A%d'" % (i + 1)
            if self.swaps[i]:
                parts.append("%s + 2*%s" % (a, ap))
            else:
                parts.append("2*%s + %s" % (a, ap))
        return " + ".join(parts) + " == 3*L"

    def transcript(self):
        labels = [
            LABELS[i] for i in _relabel_index(range(3), self.swaps, self.t_swap)
        ]
        terms = " + ".join(
            "%d*%s" % (c, l) for c, l in zip(self.vector, labels) if c
        ).replace("+ -", "- ")
        lines = [
            "nullspace relation (numerically trivial combination):",
            "  D := %s" % terms,
            "assumptions: b2 = %(b2_of_quotient)d, q = %(q_of_quotient)d,"
            " torsion = %(torsion_group)s" % self.assumptions,
            "q = 0 makes numerical triviality a torsion relation: D == t,"
            " a 5-torsion class",
            "mod 3, after the label swaps %s, D reduces to the cusp pattern"
            " (2,1) on every A-pair and 0 on T-classes" % (self.swaps,),
            "with P := sum(2*A_i + A_i') and M := (D - P)/3 integral:",
            "  P == D - 3*M == t - 3*M == 6*t - 3*M == 3*(2*t - M)",
            "hence P == 3*L with L := 2*t - M:",
            "  " + self.relation_text(),
        ]
        return "\n".join(lines)


class NoDivisibilityPattern(Exception):
    pass


def divisibility_certificate(lattice: IntersectionLattice, v) -> DivisibilityCertificate:
    """Search label swaps making v mod 3 match the (2,1)-per-cusp pattern."""
    v = list(v)
    if any(x for x in mat_vec(lattice.matrix, v)):
        raise ValueError("vector is not in the nullspace")
    if lattice.determinant() != 0:
        raise ValueError("lattice determinant is nonzero")
    for t_swap in (False, True):
        for swaps in product((0, 1), repeat=3):
            w = [v[i] for i in _relabel_index(range(3), swaps, t_swap)]
            mod3 = [x % 3 for x in w]
            if all(mod3[2 * i] == 2 and mod3[2 * i + 1] == 1 for i in range(3)) and all(
                mod3[j] == 0 for j in (6, 7, 8)
            ):
                pattern = [2, 1, 2, 1, 2, 1, 0, 0, 0]
                M = [(a - b) // 3 for a, b in zip(w, pattern)]
                return DivisibilityCertificate(w, swaps, t_swap, mod3, M)
    raise NoDivisibilityPattern(
        "no mod-3 labelling produces the (2,1) cusp pattern"
    )


def find_divisibility_vector(lat: IntersectionLattice, basis):
    """A primitive nullspace vector admitting the mod-3 pattern.

    Scans small integer combinations of the basis (content-reduced, sign
    normalized, minimal L1 norm first) and returns (vector, certificate).
    """
    if not basis:
        raise NoDivisibilityPattern("nullspace is trivial")
    cands = []
    seen = set()
    rng = range(-2, 3)
    for coeffs in product(rng, repeat=len(basis)):
        if not any(coeffs):
            continue
        v = [0] * len(basis[0])
        for c, b in zip(coeffs, basis):
            if c:
                for i, x in enumerate(b):
                    v[i] += c * x
        v = _primitive_int(v)
        if v is None:
            continue
        key = tuple(v)
        if key in seen:
            continue
        seen.add(key)
        cands.append(v)
    cands.sort(key=lambda v: (sum(abs(x) for x in v), v))
    for v in cands:
        try:
            cert = divisibility_certificate(lat, v)
            return v, cert
        except NoDivisibilityPattern:
            continue
    raise NoDivisibilityPattern(
        "no nullspace combination matches the (2,1) cusp pattern"
    )


def t3_corrections(row):
    """Coefficients (a_i, b_i) of E' = Sum(a_i A_i + b_i A_i') forced by a
    T3 row of the display (labels as in LABELS).

    K_Z.A = 0 gives T3.A_i = 2a_i - b_i and T3.A_i' = 2b_i - a_i, hence
    a_i = (2 m1 + m2)/3 and b_i = (m1 + 2 m2)/3; a non-integral value
    means the row is not of the form 5 K_Z - E' and raises ValueError.
    See docs/DECISIONS.md.
    """
    out = []
    for i in range(3):
        m1, m2 = row[2 * i], row[2 * i + 1]
        a, ra = divmod(2 * m1 + m2, 3)
        b, rb = divmod(m1 + 2 * m2, 3)
        if ra or rb:
            raise ValueError(
                "T3 row entries (%d, %d) on cusp orbit %d give non-integral"
                " corrections" % (m1, m2, i + 1)
            )
        out.append((a, b))
    return out


def t3_self_intersection(row):
    """The (T3,T3) entry the projection formula forces on a T3 row.

    T3 is the orbit of five plane sections, so q*T3 = 5 pi*H - E on the
    resolution Y, and K_Y = pi*H (cusps are rational double points); on
    Z = Y/Z5, T3 == 5 K_Z - E' numerically with K_Z^2 = H^2/5 = 1, hence
    T3^2 = 25 + Sum(-2a^2 - 2b^2 + 2ab) over t3_corrections(row).
    """
    e2 = sum(-2 * a * a - 2 * b * b + 2 * a * b for a, b in t3_corrections(row))
    return 25 + e2


def erratum_mismatches(matrix):
    """Positions (i, j) where matrix differs from the published display
    read with its one erratum: the (T3,T3) entry replaced by
    t3_self_intersection of the display's own T3 row (docs/DECISIONS.md).
    """
    expected = [row[:] for row in PUBLISHED_MATRIX]
    expected[8][8] = t3_self_intersection(PUBLISHED_MATRIX[8])
    return [
        (i, j)
        for i in range(9)
        for j in range(9)
        if matrix[i][j] != expected[i][j]
    ]


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def match_published(matrix, skip_entries=()):
    """Find a relabelling carrying matrix onto the published display.

    Searched: permutations of the three cusp blocks, per-cusp swaps, and
    the T1/T2 exchange.  skip_entries: positions (i, j) of the published
    display excluded from the comparison.  Returns a dict with the
    relabelling and the list of mismatches at skipped positions, or None.
    """
    skip = set(skip_entries)
    for perm in permutations(range(3)):
        for swaps in product((0, 1), repeat=3):
            for t_swap in (False, True):
                idx = _relabel_index(perm, swaps, t_swap)
                if all(
                    matrix[idx[i]][idx[j]] == PUBLISHED_MATRIX[i][j]
                    for i in range(9)
                    for j in range(9)
                    if (i, j) not in skip
                ):
                    mismatches = [
                        {
                            "position": [i, j],
                            "computed": matrix[idx[i]][idx[j]],
                            "published": PUBLISHED_MATRIX[i][j],
                        }
                        for (i, j) in sorted(skip)
                        if matrix[idx[i]][idx[j]] != PUBLISHED_MATRIX[i][j]
                    ]
                    return {
                        "cusp_permutation": list(perm),
                        "per_cusp_swaps": list(swaps),
                        "t1_t2_swap": t_swap,
                        "skipped_mismatches": mismatches,
                    }
    return None


def assemble(a_rows, t_pair_totals, t_self) -> IntersectionLattice:
    """Build the 9x9 quotient lattice.

    a_rows: per cusp orbit i (0..2), per T family j (0..2), the pair
    (m1_sum, m2_sum) of exceptional-line intersections summed over the
    T-family members; t_pair_totals: dict (i, j) -> integer for i < j;
    t_self: list of the three T self-intersections on the quotient.
    """
    m = [[0] * 9 for _ in range(9)]
    for i in range(3):
        m[2 * i][2 * i] = -2
        m[2 * i + 1][2 * i + 1] = -2
        m[2 * i][2 * i + 1] = 1
        m[2 * i + 1][2 * i] = 1
    for i in range(3):
        for j in range(3):
            m1, m2 = a_rows[i][j]
            m[2 * i][6 + j] = m1
            m[6 + j][2 * i] = m1
            m[2 * i + 1][6 + j] = m2
            m[6 + j][2 * i + 1] = m2
    for (i, j), val in t_pair_totals.items():
        m[6 + i][6 + j] = val
        m[6 + j][6 + i] = val
    for j in range(3):
        m[6 + j][6 + j] = t_self[j]
    return IntersectionLattice(m)
