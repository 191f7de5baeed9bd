import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from cuspidal.catalog import NEW_QUARTIC_TEXT, NEW_QUINTIC_TEXT, XYZW
from cuspidal.cyclofield import (
    ALPHA,
    ONE,
    ZERO,
    CycloElem,
    as_cyclo,
    canon,
    phi5_mul,
    ratio,
)
from cuspidal.groebner import buchberger, normal_form, zero_dim_analyze
from cuspidal.multipoly import (
    SLOT_BOUND,
    ParseError,
    Poly,
    ProjPoint,
    QZ5,
    Ring,
    degrevlex_key,
    guard,
    hessian,
    jacobian,
    minors,
    pack,
    print_poly,
    restrict_to_plane,
    unpack,
)

R = XYZW


def rand_poly(rng, ring, deg=3, nterms=5, span=6):
    terms = []
    for _ in range(nterms):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(ring.nvars)] += 1
        coeff = CycloElem(
            [ratio(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(4)]
        )
        terms.append((tuple(exp), coeff))
    return ring.from_terms(terms)


def rand_homogeneous(rng, ring, deg, nterms=6, span=6):
    terms = []
    for _ in range(nterms):
        exp = [0] * ring.nvars
        for _ in range(deg):
            exp[rng.randrange(ring.nvars)] += 1
        coeff = CycloElem(
            [ratio(rng.randint(-span, span)) for _ in range(4)]
        )
        terms.append((tuple(exp), coeff))
    return ring.from_terms(terms)


# -- parsing the catalog equations ------------------------------------------


def test_parse_published_quartic_support():
    q = R.parse(NEW_QUARTIC_TEXT)
    assert q.is_homogeneous() and q.degree() == 4
    want = {
        (4, 0, 0, 0),
        (2, 0, 1, 1),
        (1, 1, 2, 0),
        (0, 3, 1, 0),
        (0, 1, 0, 3),
        (0, 0, 2, 2),
        (1, 2, 0, 1),
    }
    assert set(q.support()) == want


def test_parse_zero():
    assert R.parse("0").is_zero


def test_parse_published_quintic_z5_coefficient():
    s = R.parse(NEW_QUINTIC_TEXT)
    assert s.is_homogeneous() and s.degree() == 5
    c = s.coeff_of((0, 0, 5, 0))
    want = CycloElem.from_rat(ratio(-136, 3)) + ratio(220, 3) * ALPHA
    assert c == want


def test_print_parse_roundtrip_catalog():
    for text in (NEW_QUARTIC_TEXT, NEW_QUINTIC_TEXT):
        p = R.parse(text)
        assert R.parse(print_poly(p)) == p


def test_print_parse_roundtrip_random():
    rng = random.Random(13)
    for _ in range(200):
        p = rand_poly(rng, R)
        assert R.parse(print_poly(p)) == p


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as ei:
        R.parse("x^2 + q")
    assert "unknown identifier" in str(ei.value)
    with pytest.raises(ParseError):
        R.parse("2x")  # implicit multiplication
    with pytest.raises(ParseError):
        R.parse("x^-1")
    with pytest.raises(ParseError):
        R.parse("(x + y")


# -- calculus ----------------------------------------------------------------


def test_partial_simple():
    x = R.var("x")
    assert (x**4).partial("x") == 4 * x**3


def test_euler_relation_random():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 5)
        p = rand_homogeneous(rng, R, d)
        lhs = R.zero
        for i, v in enumerate(R.vars):
            lhs = lhs + R.var(v) * p.partial(i)
        assert lhs == p.scale(CycloElem.from_int(d))


def test_hessian_symmetric_and_commuting():
    rng = random.Random(19)
    for _ in range(30):
        p = rand_poly(rng, R, deg=4)
        h = hessian(p)
        for i in range(4):
            for j in range(4):
                assert h[i][j] == h[j][i]
                assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_quartic_partials_vanish_at_known_nodes():
    q = R.parse(NEW_QUARTIC_TEXT)
    one = CycloElem.from_int(1)
    zero = CycloElem.from_int(0)
    for pt in ([one, one, one, one], [zero, zero, one, zero]):
        for g in jacobian(q):
            assert QZ5.is_zero(g.eval(pt))


def test_hessian_annihilates_singular_point():
    # rows of the projective Hessian contract with a singular point to zero
    q = R.parse(NEW_QUARTIC_TEXT)
    h = hessian(q)
    one = CycloElem.from_int(1)
    pt = [one, one, one, one]
    for i in range(4):
        acc = QZ5.zero
        for j in range(4):
            acc = QZ5.add(acc, QZ5.mul(h[i][j].eval(pt), pt[j]))
        assert QZ5.is_zero(acc)


# -- minors -------------------------------------------------------------------


def test_minors_order_one():
    x, y = Ring(("x", "y")).gens()
    m = [[x, y], [y, x]]
    assert minors(m, 1) == [x, y, y, x]


def test_minors_against_sympy():
    # sympy's determinant over QQ[t, x, y], reduced modulo Phi5(t)
    rng = random.Random(23)
    ring = Ring(("x", "y"))
    qq_ring = QQ[sympy.symbols("t x y")]
    t = qq_ring.gens[0]
    phi = t**4 + t**3 + t**2 + t + 1
    for _ in range(10):
        m = [[rand_poly(rng, ring, deg=2, nterms=3) for _ in range(3)] for _ in range(3)]
        got = minors(m, 3)[0]
        sm = DomainMatrix(
            [[_to_qq_ring(m[i][j], qq_ring) for j in range(3)] for i in range(3)],
            (3, 3),
            qq_ring,
        )
        want = sm.det().rem(phi)
        assert _to_qq_ring(got, qq_ring) == want


def _to_qq_ring(p, qq_ring):
    """The element of QQ[t, x, ...] with t standing for e (degree < 4 in t)."""
    terms = {}
    for e, c in p.terms:
        for i, ci in enumerate(c.c):
            if ci:
                terms[(i,) + e] = QQ(ci.numerator, ci.denominator)
    return qq_ring.ring.from_dict(terms)


def _to_sympy(p, syms):
    """Model the element in QQ[x,...,t]/(Phi5(t)) with t standing for e."""
    t = sympy.Symbol("t")
    phi = t**4 + t**3 + t**2 + t + 1
    out = 0
    for e, c in p.terms:
        mono = 1
        for s, k in zip(syms, e):
            mono *= s**k
        coeff = sum(sympy.Rational(str(ci)) * t**i for i, ci in enumerate(c.c))
        out += coeff * mono
    return sympy.expand(sympy.rem(sympy.expand(out), phi, t))


# -- restriction / dehomogenization -------------------------------------------


def test_restrict_quartic_to_trope_plane():
    # restriction to y = 0 equals (x^2 + (1-2a)zw)^2 with a = e^3+e^2
    q = R.parse(NEW_QUARTIC_TEXT)
    y = R.var("y")
    r = restrict_to_plane(q, y)
    x, _, z, w = R.gens()
    conic = x**2 + (z * w).scale(CycloElem.from_int(1) - 2 * ALPHA)
    assert r == conic**2
    # independent oracle: expand with sympy over the cyclotomic field
    xs, ys, zs, ws = sympy.symbols("x y z w")
    lhs = _to_sympy(r, (xs, ys, zs, ws))
    want = _to_sympy(conic**2, (xs, ys, zs, ws))
    assert sympy.expand(lhs - want) == 0


def test_dehomogenize():
    x, y, z, w = R.gens()
    assert restrict_to_plane(x**2 + y**2 + z**2 + w**2, x) == y**2 + z**2 + w**2


def test_restrict_degree_does_not_increase():
    rng = random.Random(29)
    x, y = R.var("x"), R.var("y")
    plane = x + y.scale(CycloElem.from_int(2))
    for _ in range(20):
        p = rand_poly(rng, R, deg=4)
        assert restrict_to_plane(p, plane).degree() <= max(p.degree(), -1)


# -- projective points ---------------------------------------------------------


def test_linear_form_and_linear_coeffs_round_trip():
    # the builder drops zero coefficients and takes ints or CycloElems;
    # the reader ignores terms of other degrees and gives zeros for
    # missing variables
    x, y, z, w = R.gens()
    e = CycloElem.e_power(1)
    assert R.linear_form([1, 0, -3, e]) == x - 3 * z + w.scale(e)
    assert R.linear_form([0, 0, 0, 0]).is_zero
    assert (x - 3 * z + w.scale(e)).linear_coeffs() == [ONE, ZERO, ONE * -3, e]
    assert (x * y + y - 2).linear_coeffs() == [ZERO, ONE, ZERO, ZERO]
    rng = random.Random(41)
    for _ in range(20):
        coeffs = [CycloElem([ratio(rng.randint(-3, 3)) for _ in range(4)]) for _ in range(4)]
        assert R.linear_form(coeffs).linear_coeffs() == coeffs


def test_projpoint_normalization():
    p = ProjPoint([2, 4, 0, 2])
    assert p.coords[3] == CycloElem.from_int(1)
    assert p == ProjPoint([1, 2, 0, 1])
    q = ProjPoint([0, 0, 3, 0])
    assert q.chart() == 2
    with pytest.raises(ValueError):
        ProjPoint([0, 0, 0, 0])


# -- packed monomials -----------------------------------------------------------


def test_pack_order_product_and_divisibility():
    rng = random.Random(31)
    for n in (1, 2, 3, 4):
        exps = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(40)]
        one = pack((0,) * n)
        mask = guard(n)
        assert sorted(exps, key=pack) == sorted(exps, key=degrevlex_key)
        for a in exps[:15]:
            pa = pack(a)
            assert unpack(pa, n) == a
            for b in exps[:15]:
                pb = pack(b)
                ab = tuple(x + y for x, y in zip(a, b))
                assert pa + pb - one == pack(ab)
                divides = all(x <= y for x, y in zip(a, b))
                assert ((pb - pa + one) & mask == 0) == divides


def test_pack_slot_bound_round_trips():
    for exp in [(SLOT_BOUND, 0, 0), (0, 0, SLOT_BOUND), (SLOT_BOUND - 2, 1, 1)]:
        assert unpack(pack(exp), 3) == exp


def test_pack_over_slot_bound_raises():
    # the total degree is a slot, so it is the bounded quantity
    for exp in [(SLOT_BOUND + 1, 0, 0), (SLOT_BOUND, 1, 0), (0, 1, -1)]:
        with pytest.raises(ValueError):
            pack(exp)


def test_reduction_at_and_over_slot_bound():
    # reduction never raises the degree: x^B -> y^B modulo x - y
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    assert normal_form(x**SLOT_BOUND, [x - y]) == y**SLOT_BOUND
    # a product seed can pass the bound: x^k * x^k modulo (x - 1, y) is 1
    # for 2k <= B, and the kernel's guard test raises for 2k > B
    alg = zero_dim_analyze(buchberger([x - 1, y])).algebra
    k = SLOT_BOUND // 2
    half = alg._red.packed((x**k).terms)
    assert alg.raw_nf_products([(1, half, half)]) == alg.raw_nf(ring.one)
    over = alg._red.packed((x ** (k + 1)).terms)
    with pytest.raises(ValueError, match="slot bound"):
        alg.raw_nf_products([(1, over, over)])


# -- substitution -------------------------------------------------------------


def reference_subs(p, assignment):
    """The term-by-term `Poly.subs` of before docs/DECISIONS.md D12: each
    term the product of its coefficient and cached image powers (binary
    powering), added to the running sum one term at a time."""
    ring = p.ring
    table = {}
    for k, v in assignment.items():
        i = k if isinstance(k, int) else ring.vars.index(k)
        table[i] = v if isinstance(v, Poly) else ring.from_scalar(v)
    out = ring.zero
    pow_cache = {}
    for e, c in p.terms:
        term = ring.from_scalar(c)
        for i, k in enumerate(e):
            if not k:
                continue
            if i in table:
                if (i, k) not in pow_cache:
                    pow_cache[(i, k)] = table[i] ** k
                term = term * pow_cache[(i, k)]
            else:
                mono = [0] * ring.nvars
                mono[i] = k
                term = term * Poly(ring, ((tuple(mono), ONE),))
        out = out + term
    return out


def _rand_scalar(rng):
    return CycloElem([ratio(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])


def _rand_image(rng, ring, kind):
    gens = ring.gens()
    if kind == "zero":
        return ring.zero
    if kind == "scalar":
        return _rand_scalar(rng)
    if kind == "shift":
        v = rng.choice(gens)
        return v + ring.from_scalar(_rand_scalar(rng))
    if kind == "linear":
        out = ring.from_scalar(_rand_scalar(rng))
        for v in gens:
            if rng.random() < 0.6:
                out = out + v.scale(_rand_scalar(rng))
        return out
    return rand_poly(rng, ring, deg=2, nterms=3)


def test_subs_matches_reference_random():
    # affine shifts, linear forms, scalars, zero, quadrics and unassigned
    # variables, keyed by index or by name
    rng = random.Random(5151)
    kinds = ("zero", "scalar", "shift", "linear", "poly")
    seen = set()
    for trial in range(80):
        ring = Ring(("x", "y", "z", "w")[: 3 + trial % 2])
        p = rand_poly(rng, ring, deg=5, nterms=8)
        assignment = {}
        for i in rng.sample(range(ring.nvars), rng.randint(1, ring.nvars)):
            kind = kinds[rng.randrange(5)]
            seen.add(kind)
            key = i if rng.random() < 0.5 else ring.vars[i]
            assignment[key] = _rand_image(rng, ring, kind)
        got = p.subs(assignment)
        want = reference_subs(p, assignment)
        assert got == want and str(got) == str(want)
    assert seen == set(kinds)


# -- raw Q(zeta5) arithmetic against the element-wise loop (D15) --------------


def elementwise_mul(a, b):
    """The product by the element-wise loop that D15 replaced: every term
    product and partial sum a field element (over Q(zeta5) a
    CycloElem in lowest terms), sorted by `from_terms`."""
    acc = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            m = tuple(x + y for x, y in zip(ea, eb))
            p = ca * cb
            acc[m] = acc[m] + p if m in acc else p
    return a.ring.from_terms(acc.items())


def elementwise_subs(p, images):
    """The substitution sending variable i to images[i], term by term on
    `elementwise_mul`, the terms added one at a time."""
    ring = p.ring
    out = ring.zero
    for e, c in p.terms:
        term = ring.from_scalar(c)
        for i, k in enumerate(e):
            for _ in range(k):
                term = elementwise_mul(term, images[i])
        out = out + term
    return out


def elementwise_partial(p, i):
    return p.ring.from_terms(
        (e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i])
        for e, c in p.terms
        if e[i]
    )


def elementwise_eval(p, coords):
    out = ZERO
    for e, c in p.terms:
        for x, k in zip(coords, e):
            for _ in range(k):
                c = c * x
        out = out + c
    return out


RAW_KINDS = ("rational", "cyclo", "mixed", "any")


def kind_coeff(rng, kind):
    """A coefficient of the given kind: "rational" (rational only, mixed
    denominators), "cyclo" (four integers), "mixed" (four rationals over
    mixed denominators) or "any" (one of those three)."""
    if kind == "any":
        kind = rng.choice(RAW_KINDS[:3])
    r = lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9, 12)))
    if kind == "rational":
        return CycloElem.from_rat(r())
    if kind == "cyclo":
        return CycloElem([rng.randint(-4, 4) for _ in range(4)])
    return CycloElem([r() for _ in range(4)])


def kind_poly(rng, ring, kind, deg=3, nterms=5):
    terms = []
    for _ in range(nterms):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(ring.nvars)] += 1
        terms.append((tuple(exp), kind_coeff(rng, kind)))
    return ring.from_terms(terms)


def kind_linear(rng, ring, kind):
    """A random affine form: constant term and some variables."""
    out = ring.from_scalar(kind_coeff(rng, kind))
    for v in ring.gens():
        if rng.random() < 0.7:
            out = out + v.scale(kind_coeff(rng, kind))
    return out


# the ids keep the names the test had when it was parametrised by the term
# order too
@pytest.mark.parametrize("kind", RAW_KINDS, ids=lambda kind: "degrevlex-" + kind)
def test_raw_products_and_powers_match_elementwise(kind, assert_canonical):
    rng = random.Random(1515)
    for trial in range(40):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3])
        a = kind_poly(rng, ring, kind, nterms=rng.randint(1, 8))
        b = kind_poly(rng, ring, kind, nterms=rng.randint(1, 8))
        got, want = a * b, elementwise_mul(a, b)
        assert got == want and str(got) == str(want)
        assert_canonical(got)
        n = trial % 5
        want = ring.one
        for _ in range(n):
            want = elementwise_mul(want, a)
        got = a**n
        assert got == want and str(got) == str(want)
        assert_canonical(got)


def test_pow_matches_repeated_products_with_fewest_products(monkeypatch):
    # n = 0..9: the repeated product, from n.bit_length() - 1 squares and
    # one product per further set bit, so no square past the top bit
    # (s_5 of the VdGZ quintic once built (x+y+z+w)^8) and no product by 1
    rng = random.Random(2821)
    ring = Ring(("x", "y", "z"))
    p = rand_poly(rng, ring, deg=2, nterms=4)
    wants = [ring.one]
    for _ in range(9):
        wants.append(wants[-1] * p)
    calls = []
    mul = Poly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for n, want in enumerate(wants):
        calls.clear()
        got = p**n
        assert got == want and str(got) == str(want)
        products = n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0
        assert len(calls) == products
    with pytest.raises(ValueError):
        p ** -1


@pytest.mark.parametrize("kind", RAW_KINDS)
def test_raw_subs_match_elementwise(kind, assert_canonical):
    # substitutions of scalars and linear forms that leave some variables
    # as they are
    rng = random.Random(1616)
    cring = Ring(("x", "y", "z"))
    for trial in range(24):
        p = kind_poly(rng, cring, kind, deg=4, nterms=8)
        assignment = {}
        for i in rng.sample(range(3), rng.randint(1, 3)):
            if rng.random() < 0.3:
                assignment[i] = kind_coeff(rng, kind)
            else:
                assignment[i] = kind_linear(rng, cring, kind)
        images = [
            v if isinstance(v, Poly) else cring.from_scalar(v)
            for v in (assignment.get(i, g) for i, g in enumerate(cring.gens()))
        ]
        got = p.subs(assignment)
        want = elementwise_subs(p, images)
        assert got == want and str(got) == str(want)
        assert_canonical(got)


@pytest.mark.parametrize("kind", RAW_KINDS)
def test_raw_partial_and_eval_match_elementwise(kind, assert_canonical):
    rng = random.Random(1717)
    for trial in range(40):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3])
        p = kind_poly(rng, ring, kind, deg=5, nterms=8)
        for i in range(ring.nvars):
            got, want = p.partial(i), elementwise_partial(p, i)
            assert got.terms == want.terms
            assert_canonical(got)
        coords = [kind_coeff(rng, kind) for _ in range(ring.nvars)]
        got = p.eval(coords)
        assert got == elementwise_eval(p, coords)
        assert got.d > 0 and gcd(got.d, *got.n) == 1


def cyclo_power_eval(p, coords):
    """Reference: `Poly.eval` as it was before its powers and products
    stayed raw, with the coordinate powers as CycloElems and each term's
    product over the product of their denominators."""
    pow_cache = {}
    s0, s1, s2, s3, sd = 0, 0, 0, 0, 1
    for e, c in p.terms:
        v = [c]
        for i, k in enumerate(e):
            if k:
                if (i, k) not in pow_cache:
                    pw = base = as_cyclo(coords[i])
                    for _ in range(k - 1):
                        pw = pw * base
                    pow_cache[i, k] = pw
                v.append(pow_cache[i, k])
        b = v[0].n
        for f in v[1:]:
            b = phi5_mul(b, f.n)
        d = 1
        for f in v:
            d *= f.d
        if d == sd:
            s0, s1, s2, s3 = s0 + b[0], s1 + b[1], s2 + b[2], s3 + b[3]
        else:
            s0, s1, s2, s3, sd = (
                s0 * d + b[0] * sd,
                s1 * d + b[1] * sd,
                s2 * d + b[2] * sd,
                s3 * d + b[3] * sd,
                sd * d,
            )
    return canon((s0, s1, s2, s3), sd)


@pytest.mark.parametrize("kind", RAW_KINDS)
def test_raw_eval_matches_cyclo_powers(kind):
    # forms of degree 1..5 and mixed-degree polynomials, at points given
    # as CycloElems, ints and Fractions, against the CycloElem-power route
    rng = random.Random(3434)
    for trial in range(60):
        ring = Ring(("x", "y", "z", "w")[: 1 + trial % 4])
        p = kind_poly(rng, ring, kind, deg=5, nterms=rng.randint(1, 12))
        if trial % 2:
            d = 1 + trial % 5
            p = ring.from_terms((e, c) for e, c in p.terms if sum(e) == d)
        coords = []
        for _ in range(ring.nvars):
            pick = rng.randrange(3)
            if pick == 0:
                coords.append(kind_coeff(rng, kind))
            elif pick == 1:
                coords.append(rng.randint(-5, 5))
            else:
                coords.append(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
        got = p.eval(coords)
        want = cyclo_power_eval(p, coords)
        assert (got.n, got.d) == (want.n, want.d)


def test_raw_paths_cancel_exactly(assert_canonical):
    # the xy coefficient of (a x + b y)(c x + d y) is a d + b c, which is 0
    # for d = -b c / a; its two products lie over unequal denominators, so
    # the cancellation happens after a cross-multiplication
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    e = CycloElem.e_power(1)
    a = CycloElem([Fraction(1, 2), 0, Fraction(1, 3), 0])
    b = e * Fraction(3, 4)
    c = e * e * Fraction(-5, 6) + 1
    d = -b * c / a
    assert a.d * d.d != b.d * c.d
    got = (x.scale(a) + y.scale(b)) * (x.scale(c) + y.scale(d))
    assert got.terms == (((2, 0), a * c), ((0, 2), b * d))
    assert_canonical(got)
    # a substitution, an evaluation and a derivative that come out zero
    assert (x.scale(a) - y.scale(a)).subs({0: y}).is_zero
    q = (x - y.scale(a)) * (x - y.scale(b))
    assert q.eval([a, ONE]) == ZERO and q.eval([b * 7, ONE * 7]) == ZERO
    assert q.eval([a, ONE]).d == 1
    assert ring.from_scalar(c).partial(0).is_zero
