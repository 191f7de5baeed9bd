"""Dense univariate polynomial helpers over any field context.

Polynomials are plain lists of field elements, index = degree.  The
field context supplies zero, one, is_zero, eq, add, sub, mul, inv and
scale_rat, and all division-like routines invert leading coefficients
through it.  Three rings implement it (docs/DECISIONS.md D22): Q(zeta5)
(`multipoly.QZ5`, also `extfield.BASE_TOWER`), the rings Z[e]/(Phi5, M)
of `modp`, and the extensions of `extfield`, whose arithmetic runs these
routines over Q(zeta5) (D18).
"""

from __future__ import annotations


def deg(p, field):
    d = len(p) - 1
    while d >= 0 and field.is_zero(p[d]):
        d -= 1
    return d


def trim(p, field):
    d = deg(p, field)
    return list(p[: d + 1])


def sub(p, q, field):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else field.zero
        b = q[i] if i < len(q) else field.zero
        out.append(field.sub(a, b))
    return trim(out, field)


def mul(p, q, field):
    if not p or not q:
        return []
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if field.is_zero(a):
            continue
        for j, b in enumerate(q):
            if not field.is_zero(b):
                out[i + j] = field.add(out[i + j], field.mul(a, b))
    return trim(out, field)


def scale(p, c, field):
    return trim([field.mul(a, c) for a in p], field)


def monic(p, field):
    d = deg(p, field)
    if d < 0:
        return []
    lead = p[d]
    inv = field.inv(lead)
    return [field.mul(a, inv) for a in p[: d + 1]]


def divmod_poly(a, b, field):
    """Quotient and remainder; inverts the divisor's leading coefficient."""
    db = deg(b, field)
    if db < 0:
        raise ZeroDivisionError("univariate division by zero")
    lead = b[db]
    if field.eq(lead, field.one):
        inv = field.one
    else:
        inv = field.inv(lead)
    a = list(a)
    da = deg(a, field)
    if da < db:
        return [], trim(a, field)
    q = [field.zero] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = field.mul(a[i + db], inv)
        if field.is_zero(c):
            continue
        q[i] = c
        for j in range(db + 1):
            a[i + j] = field.sub(a[i + j], field.mul(c, b[j]))
    return trim(q, field), trim(a, field)


def gcd_monic(a, b, field):
    """Monic gcd by the Euclidean algorithm."""
    a = trim(a, field)
    b = trim(b, field)
    while b:
        _, r = divmod_poly(a, b, field)
        a, b = b, r
    if not a:
        return []
    return monic(a, field)


def derivative(p, field):
    out = []
    for i in range(1, len(p)):
        out.append(field.scale_rat(p[i], i))
    return trim(out, field)


def squarefree_part(p, field):
    """p / gcd(p, p') made monic."""
    d = deg(p, field)
    if d <= 0:
        return monic(p, field) if d == 0 else []
    g = gcd_monic(p, derivative(p, field), field)
    if deg(g, field) == 0:
        return monic(p, field)
    q, r = divmod_poly(p, g, field)
    assert deg(r, field) < 0
    return monic(q, field)


def eval_poly(p, x, field):
    acc = field.zero
    for c in reversed(p):
        acc = field.add(field.mul(acc, x), c)
    return acc


def peel_root(p, r, field):
    """Divide by (T - r); returns quotient or None when r is not a root."""
    d = deg(p, field)
    if d < 1:
        return None
    out = [field.zero] * d
    acc = p[d]
    out[d - 1] = acc
    for i in range(d - 1, 0, -1):
        acc = field.add(p[i], field.mul(r, acc))
        out[i - 1] = acc
    rem = field.add(p[0], field.mul(r, acc))
    if not field.is_zero(rem):
        return None
    return trim(out, field)
