import random
from fractions import Fraction

import pytest

from cuspidal import catalog, linalg
from cuspidal.curvegeom import tangent_cone_lines
from cuspidal.cyclofield import CycloElem, phi5_mul
from cuspidal.multipoly import ProjPoint
from cuspidal.singcert import local_surface

ZERO = CycloElem.from_int(0)
ONE = CycloElem.from_int(1)


def reference_rref(m):
    """The CycloElem Gauss-Jordan `linalg.rref` ran over Q(zeta5) before
    the raw echelon (docs/DECISIONS.md D16): pivot on the first nonzero
    entry of each column, scale the pivot row to 1, clear the column."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = next((i for i in range(r, rows) if not m[i][c].is_zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_kernel_basis(m):
    cols = len(m[0])
    red, pivots = reference_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def reference_solve(m, rhs):
    cols = len(m[0])
    red, pivots = reference_rref([row + [b] for row, b in zip(m, rhs)])
    for row in red:
        if all(v.is_zero for v in row[:cols]) and not row[cols].is_zero:
            return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        if pc < cols:
            x[pc] = red[r][cols]
    return x


def rational_entry(rng):
    return CycloElem.from_rat(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def mixed_entry(rng):
    """0, a rational, or a sum of one or two (a/b) e^k with b in 1..6."""
    kind = rng.randrange(3)
    if kind == 0:
        return ZERO
    if kind == 1:
        return rational_entry(rng)
    terms = [
        CycloElem.e_power(rng.randrange(5)) * Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        for _ in range(rng.randint(1, 2))
    ]
    return sum(terms, ZERO)


def random_matrix(rng, entry):
    """Wide, tall or square; some rows are combinations of others or zero."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    m = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        kind = rng.randrange(4)
        if kind == 0 and i >= 2:  # a combination of two earlier rows
            a, b = entry(rng), entry(rng)
            m[i] = [a * x + b * y for x, y in zip(m[i - 1], m[i - 2])]
        elif kind == 1:
            m[i] = [ZERO] * cols
    return m


@pytest.mark.parametrize("entry", [rational_entry, mixed_entry], ids=["rational", "mixed"])
def test_raw_echelon_matches_reference_gauss_jordan(entry):
    # rank, the unique reduced form with its pivots, the kernel basis and
    # one solution of a consistent and of an inconsistent system, entry
    # for entry as the CycloElem Gauss-Jordan gave them
    rng = random.Random(1601 if entry is rational_entry else 1602)
    seen = set()
    for _ in range(150):
        m = random_matrix(rng, entry)
        rows, cols = len(m), len(m[0])
        red, pivots = reference_rref(m)
        assert linalg.rref(m) == (red, pivots)
        assert linalg.rank(m) == len(pivots)
        assert linalg.kernel_basis(m) == reference_kernel_basis(m)
        x = [entry(rng) for _ in range(cols)]
        consistent = [sum((a * b for a, b in zip(row, x)), ZERO) for row in m]
        got = linalg.solve(m, consistent)
        assert got == reference_solve(m, consistent) and got is not None
        rhs = [entry(rng) for _ in range(rows)]
        got = linalg.solve(m, rhs)
        assert got == reference_solve(m, rhs)
        seen.add(("deficient" if len(pivots) < min(rows, cols) else "full", got is None))
        seen.add("wide" if cols > rows else "tall" if rows > cols else "square")
        if any(all(c.is_zero for c in row) for row in m):
            seen.add("zero row")
    assert seen >= {
        ("deficient", True), ("deficient", False), ("full", False),
        "wide", "tall", "square", "zero row",
    }


def test_apply_rational_loop_matches_general_loop():
    # a rational operator (n1 = n2 = n3 = 0 at every entry) gives the same
    # image by its 4-product loop as by the general loop, and both give
    # the sum of phi5_mul products
    rng = random.Random(2811)
    zero = (0, 0, 0, 0)
    for _ in range(80):
        n = rng.randint(1, 7)
        rows = []
        for _ in range(n):
            cols = sorted(rng.sample(range(n), rng.randint(0, n)))
            rows.append([(j, (rng.randint(-9, 9), 0, 0, 0)) for j in cols])
        v = [
            zero if rng.random() < 0.3 else tuple(rng.randint(-9, 9) for _ in range(4))
            for _ in range(n)
        ]
        want = []
        for row in rows:
            acc = zero
            for j, m in row:
                acc = tuple(a + b for a, b in zip(acc, phi5_mul(m, v[j])))
            want.append(acc)
        assert linalg._apply(rows, v, True) == linalg._apply(rows, v, False) == want


def test_raw_echelon_edge_shapes():
    assert linalg.rank([]) == 0
    assert linalg.kernel_basis([]) == []
    assert linalg.rref([[ZERO, ZERO]]) == ([[ZERO, ZERO]], [])
    assert linalg.kernel_basis([[ZERO, ZERO]]) == [[ONE, ZERO], [ZERO, ONE]]
    assert linalg.solve([[ZERO]], [ONE]) is None
    e = CycloElem.e_power(1)
    assert linalg.solve([[e]], [ONE]) == [e.inverse()]


# tangent_cone_lines at three VdGZ cusps, one per orbit, as the CycloElem
# Gauss-Jordan and the augmented-matrix inverse gave them
TANGENT_CONES = {
    (-1, -1, 0, 1): ("x+1/2*z", "y+1/2*z", ["-1/2", "-1/2", "1"]),
    (-1, -1, 1, 0): ("x+1/2*w", "y+1/2*w", ["-1/2", "-1/2", "1"]),
    (-1, 1, -1, 1): ("x+y-z", "x-y-z", ["1", "0", "1"]),
}


@pytest.mark.parametrize("coords", list(TANGENT_CONES), ids=str)
def test_tangent_cone_lines_unchanged_on_vdgz_cusps(coords):
    S = catalog.get("vdgz_quintic").poly
    cusp = ProjPoint(list(coords))
    assert cusp in catalog.vdgz_cusps()
    flocal, cring, _, _ = local_surface(S, cusp)
    l1, l2, kern = tangent_cone_lines(flocal, cring)
    assert (str(l1), str(l2), [str(c) for c in kern]) == TANGENT_CONES[coords]
