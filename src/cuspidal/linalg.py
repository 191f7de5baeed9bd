"""Exact dense linear algebra over Q(zeta5) on one raw Z[zeta5] echelon.

Matrices are lists of lists of CycloElems; all routines are
deterministic, and `rref` returns the unique reduced row echelon form.

Every routine runs on the raw-row echelon that the quotient algebra
also uses (docs/DECISIONS.md D9, D16, D17).  A vector is a
list of integer 4-tuples, numerators in Z[e] with no denominator, so a
span does not depend on the scale.  An echelon row is (pivot, N, row,
its nonzero entries): the row is multiplied by s2 s3 s4 of its pivot
entry (`cyclofield.conj_product`), so the pivot becomes a positive
rational integer N, then divided by its content.  Reducing v by a row is
v <- N * v - v[pivot] * row, with no gcd; a remainder takes one content
gcd when it becomes a row.  The Z[e] products of a reduction
(`_lincomb`) and of an operator applied to a vector (`_apply`) are
`phi5_mul`'s written out, with no call per entry (D20), and each takes
4 integer products an entry when its multiplier, or the whole operator,
is rational (D12, D28).  `rref` sorts the rows by pivot, clears each
pivot column in the other rows, and divides each row by its pivot:
CycloElems are built only there.
"""

from __future__ import annotations

from math import gcd, lcm

from .cyclofield import ONE, ZERO, canon, conj_product, phi5_mul

_ZERO4 = (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# raw Z[zeta5] rows


def _int_vector(vec):
    """A vector of CycloElems as integer 4-tuples over their common
    denominator: (vector, denominator)."""
    D = lcm(1, *(c.d for c in vec))
    return [tuple([x * (D // c.d) for x in c.n]) for c in vec], D


def _lincomb(N, v, b, nz):
    """N * v + b * row over Z[e], N an int, b a 4-tuple and the row given
    by its nonzero entries nz = [(i, r), ...].  Like the reduction
    kernel's `_accumulate`, it has one loop for a rational b and one for
    any other, with `phi5_mul`'s product written out (D20)."""
    if N == 1:
        out = list(v)
    else:
        out = [(N * x0, N * x1, N * x2, N * x3) for x0, x1, x2, x3 in v]
    b0, b1, b2, b3 = b
    if b1 or b2 or b3:
        for i, (r0, r1, r2, r3) in nz:
            r4 = b1 * r3 + b2 * r2 + b3 * r1
            x0, x1, x2, x3 = out[i]
            out[i] = (
                x0 + b0 * r0 + b2 * r3 + b3 * r2 - r4,
                x1 + b0 * r1 + b1 * r0 + b3 * r3 - r4,
                x2 + b0 * r2 + b1 * r1 + b2 * r0 - r4,
                x3 + b0 * r3 + b1 * r2 + b2 * r1 + b3 * r0 - r4,
            )
    else:
        for i, (r0, r1, r2, r3) in nz:
            x0, x1, x2, x3 = out[i]
            out[i] = (x0 + b0 * r0, x1 + b0 * r1, x2 + b0 * r2, x3 + b0 * r3)
    return out


def _nonzero(v):
    return [(i, x) for i, x in enumerate(v) if x != _ZERO4]


def _pivot(v):
    """Index of the first nonzero entry, or None."""
    for i, x in enumerate(v):
        if x != _ZERO4:
            return i
    return None


def _normalised(v, piv):
    """v times s2 s3 s4 of v[piv] (`conj_product`), so the pivot becomes a
    positive rational integer, then divided by its content."""
    p = v[piv]
    if p[1] or p[2] or p[3]:
        conj = conj_product(p)
        v = [phi5_mul(conj, x) for x in v]
    elif p[0] < 0:
        v = [(-x0, -x1, -x2, -x3) for x0, x1, x2, x3 in v]
    return _primitive(v)[0]


def _primitive(v):
    """(v / g, g), g the content of v: the gcd of all its integers (0 for
    the zero vector)."""
    g = gcd(*[x for t in v for x in t])
    if g > 1:
        v = [(x0 // g, x1 // g, x2 // g, x3 // g) for x0, x1, x2, x3 in v]
    return v, g


def _reduce(v, rows):
    """v reduced against echelon rows (pivot, N, row, nonzero entries),
    N the positive rational integer at the pivot: v <- N * v -
    v[pivot] * row, with no content taken."""
    for piv, N, _, nz in rows:
        b0, b1, b2, b3 = v[piv]
        if b0 or b1 or b2 or b3:
            v = _lincomb(N, v, (-b0, -b1, -b2, -b3), nz)
    return v


def _reduce_tracked(v, rows):
    """v reduced against Krylov rows (pivot, N, row entries, combo
    entries), the row being sum(combo[j] * (power vector j)), the entries
    nonzero ones as in `_reduce`.  Returns (r, combo, f) with
    r = f * v - sum(combo[j] * power vector j), f a positive int and
    combo of length len(rows)."""
    combo = [_ZERO4] * len(rows)
    f = 1
    for piv, N, nz, cnz in rows:
        b0, b1, b2, b3 = v[piv]
        if b0 or b1 or b2 or b3:
            v = _lincomb(N, v, (-b0, -b1, -b2, -b3), nz)
            combo = _lincomb(N, combo, (b0, b1, b2, b3), cnz)
            f *= N
    return v, combo, f


def _echelon_add(rows, v):
    """Reduce v against the echelon rows; append the normalised remainder
    and return it, or None if v lies in their span."""
    v = _reduce(v, rows)
    piv = _pivot(v)
    if piv is None:
        return None
    v = _normalised(v, piv)
    rows.append((piv, v[piv][0], v, _nonzero(v)))
    return v


def _echelon(vectors):
    rows = []
    for v in vectors:
        _echelon_add(rows, v)
    return rows


def _apply(op_rows, v, rational):
    """M * v for M given by sparse integer rows [(j, n), ...]; the zero
    entries of v are skipped.  Like `_lincomb`, it has one loop for a
    rational M (every n1 = n2 = n3 = 0), 4 products an entry, and one for
    any other, with `phi5_mul`'s product written out (D12, D20)."""
    out = []
    if rational:
        for row in op_rows:
            a0 = a1 = a2 = a3 = 0
            for j, (n0, _, _, _) in row:
                x = v[j]
                if x != _ZERO4:
                    x0, x1, x2, x3 = x
                    a0 += n0 * x0
                    a1 += n0 * x1
                    a2 += n0 * x2
                    a3 += n0 * x3
            out.append((a0, a1, a2, a3))
        return out
    for row in op_rows:
        a0 = a1 = a2 = a3 = 0
        for j, (n0, n1, n2, n3) in row:
            x = v[j]
            if x != _ZERO4:
                x0, x1, x2, x3 = x
                r4 = n1 * x3 + n2 * x2 + n3 * x1
                a0 += n0 * x0 + n2 * x3 + n3 * x2 - r4
                a1 += n0 * x1 + n1 * x0 + n3 * x3 - r4
                a2 += n0 * x2 + n1 * x1 + n2 * x0 - r4
                a3 += n0 * x3 + n1 * x2 + n2 * x1 + n3 * x0 - r4
        out.append((a0, a1, a2, a3))
    return out


def _reduced_echelon(m):
    """The echelon rows of the rows of m (CycloElems), sorted by pivot and
    each cleared at every other pivot column.

    The pivots of an echelon are the columns where the rank of the
    leading columns grows, whatever the order of the rows, so they are
    those of the reduced row echelon form.  Clearing runs from the last
    pivot up: a row is reduced against the rows of the larger pivots,
    which are already zero at every pivot but their own, so its own
    pivot entry only gains positive integer factors and stays a positive
    rational integer after its content is taken.
    """
    rows = sorted(_echelon(_int_vector(row)[0] for row in m))
    done = []
    for piv, _, v, _ in reversed(rows):
        v = _primitive(_reduce(v, done))[0]
        done.append((piv, v[piv][0], v, _nonzero(v)))
    done.reverse()
    return done


# ---------------------------------------------------------------------------
# the public routines


def rref(m):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns).
    The matrix keeps m's number of rows, the zero rows last."""
    rows = _reduced_echelon(m)
    cols = len(m[0]) if m else 0
    out = [[canon(x, N) for x in v] for _, N, v, _ in rows]
    out += [[ZERO] * cols for _ in range(len(m) - len(rows))]
    return out, [piv for piv, _, _, _ in rows]


def rank(m):
    if not m:
        return 0
    return len(_echelon(_int_vector(row)[0] for row in m))


def kernel_basis(m):
    """Basis of the right kernel {v : m v = 0}: one vector per free column
    c, with 1 at c, 0 at the other free columns, and minus the reduced
    row's entry in column c at each pivot."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(m, rhs):
    """One solution of m x = rhs, or None when inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [m[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x
