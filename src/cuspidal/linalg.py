"""Exact dense linear algebra over a field context (no pivoting heuristics).

Matrices are lists of lists of field elements; all routines are
deterministic: pivots are chosen as the first nonzero entry in column
order.  Over dynamic towers an inversion of a zero divisor raises a
SplitEvent which callers handle branch by branch.
"""

from __future__ import annotations


def mat_copy(m):
    return [row[:] for row in m]


def rref(m, field):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = mat_copy(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = None
        for i in range(r, rows):
            if not field.is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(v, inv) for v in m[r]]
        for i in range(rows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(m, field):
    if not m:
        return 0
    _, pivots = rref(m, field)
    return len(pivots)


def kernel_basis(m, field):
    """Basis of the right kernel {v : m v = 0}, deterministic order."""
    if not m:
        return []
    cols = len(m[0])
    red, pivots = rref(m, field)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


def solve(m, rhs, field):
    """One solution of m x = rhs, or None when inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [m[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = rref(aug, field)
    for row in red:
        if all(field.is_zero(v) for v in row[:cols]) and not field.is_zero(row[cols]):
            return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        if pc < cols:
            x[pc] = red[r][cols]
    return x

