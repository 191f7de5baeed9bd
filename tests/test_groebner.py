import hashlib
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from cuspidal import catalog, groebner
from cuspidal.catalog import NEW_QUARTIC_TEXT, XYZW
from cuspidal.cyclofield import CycloElem
from cuspidal.extfield import BASE_TOWER, TowerContext
from cuspidal.groebner import (
    NotZeroDimensional,
    QuotientAlgebra,
    Reducers,
    buchberger,
    eliminant,
    extract_points,
    normal_form,
    radical_zero_dim,
    spoly,
    zero_dim_analyze,
)
from cuspidal.multipoly import DEGREVLEX, LEX, Poly, Ring, jacobian, mono_lcm
from cuspidal.singcert import chart_ring, to_chart


def small_int(rng, span):
    return CycloElem.from_int(rng.randint(-span, span))


def cyclo_coeff(rng, span):
    """A sum of one or two terms (a/b) e^k, b in 1..6."""
    return sum(
        (
            CycloElem.e_power(rng.randrange(5))
            * Fraction(rng.randint(-span, span), rng.randint(1, 6))
            for _ in range(rng.randint(1, 2))
        ),
        CycloElem.from_int(0),
    )


def rand_poly(rng, ring, deg=2, nterms=3, span=4, coeff=small_int):
    terms = []
    for _ in range(nterms):
        exp = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            exp[rng.randrange(ring.nvars)] += 1
        terms.append((tuple(exp), coeff(rng, span)))
    return ring.from_terms(terms)


def test_duplicate_generator():
    ring = Ring(("x",))
    x = ring.var("x")
    gb = buchberger([x, x])
    assert len(gb) == 1 and gb.polys[0] == x


def test_lex_backsubstitution():
    ring = Ring(("y", "x"), LEX)
    y, x = ring.gens()
    gb = buchberger([x - 1, y - x])
    assert set(gb.polys) == {y - 1, x - 1}


def test_zero_ideal():
    ring = Ring(("x",))
    gb = buchberger([ring.zero], ring=ring)
    assert len(gb) == 0


def test_gb_contract_random_ideals():
    # all S-polynomials of the output reduce to zero; inputs reduce to zero
    rng = random.Random(4242)
    ring = Ring(("x", "y", "z"))
    for trial in range(100):
        gens = [rand_poly(rng, ring) for _ in range(rng.randint(2, 4))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        for g in gens:
            assert normal_form(g, gb).is_zero
        polys = list(gb.polys)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert normal_form(spoly(polys[i], polys[j]), gb).is_zero


def test_membership_order_independence():
    rng = random.Random(99)
    drl = Ring(("x", "y"))
    lex = Ring(drl.vars, LEX)
    for _ in range(25):
        gens_d = [rand_poly(rng, drl) for _ in range(2)]
        gens_d = [g for g in gens_d if not g.is_zero]
        if not gens_d:
            continue
        gens_l = [lex.from_terms(g.terms) for g in gens_d]
        gb_d = buchberger(gens_d, ring=drl)
        gb_l = buchberger(gens_l, ring=lex)
        probe = rand_poly(rng, drl, deg=3)
        probe_l = lex.from_terms(probe.terms)
        assert normal_form(probe, gb_d).is_zero == normal_form(probe_l, gb_l).is_zero


def test_against_sympy_oracle():
    # rational-coefficient ideals: compare the reduced bases with sympy
    rng = random.Random(1234)
    ring = Ring(("x", "y"))
    xs, ys = sympy.symbols("x y")
    for _ in range(15):
        gens = []
        for _ in range(2):
            p = rand_poly(rng, ring, deg=2, nterms=3)
            # keep coefficients rational for the oracle
            p = ring.from_terms(
                (e, CycloElem.from_rat(c.c[0])) for e, c in p.terms
            )
            if not p.is_zero:
                gens.append(p)
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        sgens = []
        for g in gens:
            expr = 0
            for e, c in g.terms:
                expr += sympy.Rational(str(c.c[0])) * xs ** e[0] * ys ** e[1]
            sgens.append(expr)
        sgb = sympy.groebner(sgens, xs, ys, order="grevlex")

        def monic_terms(pairs):
            pairs = dict(pairs)
            lead = max(pairs, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
            lc = pairs[lead]
            return tuple(sorted((e, sympy.Rational(c) / lc) for e, c in pairs.items()))

        want = set()
        for expr in sgb.exprs:
            poly = sympy.Poly(expr, xs, ys)
            want.add(monic_terms(poly.terms()))
        got = set()
        for g in gb.polys:
            got.add(
                monic_terms(
                    [(e, sympy.Rational(str(c.c[0]))) for e, c in g.terms]
                )
            )
        assert got == want


def reference_normal_form(f, basis):
    """Tuple-monomial reduction: subtract hc * x^(hm - lm) * g from the
    whole polynomial for its leading term hm, g the first basis element
    whose lead lm divides hm; undivided leading terms go to the remainder."""
    ring = f.ring
    lead_info = [(g.lm(), g) for g in basis if not g.is_zero]
    rem = []
    h = f
    while not h.is_zero:
        hm, hc = h.lt()
        for lm, g in lead_info:
            if all(a <= b for a, b in zip(lm, hm)):
                q = tuple(b - a for a, b in zip(lm, hm))
                shifted = [(tuple(map(sum, zip(q, e))), hc * c) for e, c in g.terms]
                h = h - Poly(ring, tuple(shifted))
                break
        else:
            rem.append((hm, hc))
            h = Poly(ring, h.terms[1:])
    return Poly(ring, tuple(rem))


ORDERS_AND_COEFFS = [
    pytest.param(order, coeff, id=order.name + suffix)
    for coeff, suffix in ((small_int, ""), (cyclo_coeff, "-cyclo"))
    for order in (DEGREVLEX, LEX)
]


@pytest.mark.parametrize("order, coeff", ORDERS_AND_COEFFS)
def test_normal_form_matches_reference_random(order, coeff, assert_canonical):
    # heap division on packed monomials against the tuple loop, modulo a
    # reduced basis and modulo a bare (order-dependent) list of generators;
    # cyclo_coeff makes sums of unequal denominators meet at one monomial.
    # Remainders and reduced bases come out in lowest terms.
    rng = random.Random(7007)
    checked = 0
    for trial in range(60):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3], order)
        gens = [rand_poly(rng, ring, coeff=coeff) for _ in range(rng.randint(2, 3))]
        gens = [g.monic() for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        for g in gb:
            assert_canonical(g)
        for _ in range(3):
            f = rand_poly(rng, ring, deg=4, nterms=6, coeff=coeff)
            for basis in (gb, gens):
                got = normal_form(f, basis)
                want = reference_normal_form(f, list(basis))
                assert got == want and str(got) == str(want)
                assert_canonical(got)
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("order, coeff", ORDERS_AND_COEFFS)
def test_spair_reduction_matches_spoly_random(order, coeff):
    # every S-pair seeded from the two packed tails reduces to the normal
    # form of its spoly, modulo a basis grown as buchberger grows it;
    # cyclo_coeff's denominators 1..6 make unequal tail denominators meet
    # at one monomial
    rng = random.Random(8118)
    checked = 0
    for trial in range(40):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3], order)
        G = [rand_poly(rng, ring, nterms=4, coeff=coeff) for _ in range(rng.randint(2, 4))]
        G = [g.monic() for g in G if not g.is_zero]
        red = Reducers(ring, G)
        pairs = list(itertools.combinations(range(len(G)), 2))
        for i, j in pairs:
            L = order.pack(mono_lcm(G[i].lm(), G[j].lm()))
            got = red.spair_remainder(i, j, L)
            want = normal_form(spoly(G[i], G[j]), red)
            assert got == want and str(got) == str(want)
            checked += 1
            if not got.is_zero and len(G) < 6:
                pairs.extend((k, len(G)) for k in range(len(G)))
                G.append(got.monic())
                red.append(G[-1])
    assert checked > 300


def test_spair_tails_cancel_exactly():
    # z * (1/2)y from f and y * (1/2)z from g meet at yz over the tail
    # denominators 6 and 10 and cancel: yz must not be in the remainder
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    f = x * y + y.scale(Fraction(1, 2)) + x.scale(Fraction(1, 3))
    g = x * z + z.scale(Fraction(1, 2)) + Fraction(1, 5)
    red = Reducers(ring, [f, g])
    assert [D for _, _, D in red.entries] == [6, 10]
    got = red.spair_remainder(0, 1, ring.order.pack((1, 1, 1)))
    want = -y.scale(Fraction(1, 5)) - z.scale(Fraction(1, 6)) - Fraction(1, 15)
    assert got.terms == want.terms
    assert got == normal_form(spoly(f, g), red)


def reference_interreduce(basis):
    """The autoreduction buchberger ran before the one-pass reduced basis:
    replace each element by its monic normal form modulo the others,
    delete it when that is zero and start again, until nothing changes."""
    basis = list(basis)
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            r = normal_form(basis[i], basis[:i] + basis[i + 1 :])
            if r.is_zero:
                del basis[i]
                changed = True
                break
            r = r.monic()
            if r != basis[i]:
                basis[i] = r
                changed = True
    basis.sort(key=lambda g: g.ring.order.pack(g.lm()), reverse=True)
    return basis


@pytest.mark.parametrize("order, coeff", ORDERS_AND_COEFFS)
def test_reduced_basis_matches_reference_interreduce_random(order, coeff):
    # a reduced basis padded with a duplicate (the monic 2f), a redundant
    # x*f and, first of its lead, f + c*g with an unreduced tail: the
    # minimality sweep and the one tail pass give back the old fixpoint
    rng = random.Random(9119)
    perturbed = 0
    for trial in range(40):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3], order)
        gens = [rand_poly(rng, ring, coeff=coeff) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        G = list(gb.polys)
        f = G[rng.randrange(len(G))]
        v = ring.gens()[rng.randrange(ring.nvars)]
        padded = G + [f.scale(2).monic(), (v * f).monic()]
        rng.shuffle(padded)
        if len(G) > 1:
            c = coeff(rng, 4)
            if not c.is_zero:
                padded.insert(0, G[0] + G[-1].scale(c))
                perturbed += 1
        got = Reducers(ring, padded).reduced_basis()
        want = reference_interreduce(padded)
        assert got == want == G
        assert [str(p) for p in got] == [str(p) for p in want]
    assert perturbed > 10


def test_normal_form_exact_cancellation_leaves_no_term():
    # reducing (2/3)xy by x - y/2 + 1/4 adds (1/3)y^2 over the denominator
    # 12, which cancels f's own -(1/3)y^2 over 3: y^2 must not be in the
    # remainder.  The -(1/6)y it adds meets f's (e/4)y, and the sum must
    # come out in lowest terms, (-2 + 3e)/12.
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    e = CycloElem.e_power(1)
    g = x - y.scale(Fraction(1, 2)) + Fraction(1, 4)
    f = (x * y).scale(Fraction(2, 3)) - (y * y).scale(Fraction(1, 3)) + y.scale(e / 4)
    got = normal_form(f, [g])
    c = CycloElem((Fraction(-1, 6), Fraction(1, 4), 0, 0))
    assert (c.n, c.d) == ((-2, 3, 0, 0), 12)
    assert got.terms == (((0, 1), c),)
    assert got == reference_normal_form(f, [g])


def test_normal_form_needs_qz5():
    # the reduction kernel runs on Q(zeta5) numerators only
    tower = BASE_TOWER.adjoin("b", [BASE_TOWER.coerce(-2), BASE_TOWER.zero, BASE_TOWER.one])
    ring = Ring(("x", "y")).with_field(tower)
    x, y = ring.gens()
    with pytest.raises(TypeError):
        normal_form(x * y, [x - y])
    with pytest.raises(TypeError):
        buchberger([x - y, y])


# sha256 of the reduced basis text and the pairs processed, per chart
# Jacobian ideal, as computed by the tuple-monomial implementation
CHART_JACOBIAN_BASES = {
    ("new_quartic", "x"): ("bc70a059f1c95660cedf985ed762a85e0f83cb2d34d6bfd5ef53343de433e7fe", 16),
    ("new_quartic", "y"): ("b6106926c0130940ec4b3c7d258e58cfbaae2bc0977be5688a27afd78affd249", 15),
    ("new_quartic", "z"): ("5f45430c5564585b84a4bb3c521e28692c166093bfe5cc0db414116fde5c70cc", 15),
    ("new_quartic", "w"): ("99d6f6617bf194cd22524acadef0ebd748c1b7cc9b4f630cef523a4fee12499a", 19),
    ("new_quintic", "x"): ("391ea47236b0ffb247327fa3d6db5956c038b8470b7ad56969e450ba3c41edb3", 54),
    ("new_quintic", "y"): ("584d303872bb42714ff5fa1d42795902cc7aa4e5f7057cbf6097eefc88ede9dd", 56),
    ("new_quintic", "z"): ("28bda5e3bb0157f27a8b30dd483789ecd6ef96c2992221e33322a318e053b657", 59),
    ("new_quintic", "w"): ("d97939344e6ff167b0ddf48d7773e4f6c0a3352c05be73572134737155df0e56", 46),
    ("vdgz_quartic", "x"): ("0b00286413947f7861260730298469587e32231325f39fc9a57505b961126b8a", 29),
    ("vdgz_quartic", "y"): ("ffbfc871e09176e933a8f74bdf1d618bf4d0bb96dc01623080e648287a8d5e13", 29),
    ("vdgz_quartic", "z"): ("d2fac6aa02cbaacb91314894767fecf8de4d46f98974583aa965f4701b78f354", 29),
    ("vdgz_quartic", "w"): ("66a4ccd4bef9c098fc5e861465ea8a75b5f59aa7f5e9d6b415bfb29985ea927f", 29),
    ("vdgz_quintic", "x"): ("749cbacaa219b2fc5450a3614719494f592ba844f22b0d6b9b37270b21378a39", 61),
    ("vdgz_quintic", "y"): ("2ca5eff7497a7ae0698c97ed188fba14e4d7e2e5262089d8f3f4f2ce93a75c84", 61),
    ("vdgz_quintic", "z"): ("27fd4b152eb9c8e509b66cc99c67b9eb04a9781aed10521c5fe8ad8b2c05550e", 61),
    ("vdgz_quintic", "w"): ("50c1feb0b754b139a678736dcf5e84a4130abdd69efeac9294be8183b8f7fc90", 61),
}


# sha256 of the reduced basis text of each piece ideal J_ci + (later
# coordinates), as computed before zero coordinates were split off
PIECE_BASES = {
    ("new_quartic", "x"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("new_quartic", "y"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("new_quartic", "z"): "d1e709c7983fc56938b3f57e09e2e6f7ec563dd275c6dc3833d6b887b19ca0e5",
    ("new_quintic", "x"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("new_quintic", "y"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("new_quintic", "z"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("vdgz_quartic", "x"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("vdgz_quartic", "y"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("vdgz_quartic", "z"): "7ac2e6ac3b13848040b52b8526344c73459b3a97fb670ef79ef8eb1c21bc829b",
    ("vdgz_quintic", "x"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("vdgz_quintic", "y"): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("vdgz_quintic", "z"): "7ac2e6ac3b13848040b52b8526344c73459b3a97fb670ef79ef8eb1c21bc829b",
}


@pytest.mark.parametrize("name", catalog.names())
def test_chart_jacobian_bases_unchanged(name):
    # the same reduced bases after the same number of pairs
    F = catalog.get(name).poly
    ring = F.ring
    for ci, var in enumerate(ring.vars):
        cring = chart_ring(ring, ci)
        gens = [to_chart(p, ci, cring) for p in jacobian(F)]
        gens = [g for g in gens if not g.is_zero]
        groebner._BASES.clear()  # a fresh run, not one the table serves
        gb = buchberger(gens, ring=cring)
        text = "\n".join(str(p) for p in gb)
        got = (hashlib.sha256(text.encode()).hexdigest(), gb.stats["pairs_processed"])
        assert got == CHART_JACOBIAN_BASES[(name, var)], (name, var)
        if (name, var) in PIECE_BASES:
            # the piece ideal of singcert.singular_scheme: the later
            # coordinates are split off, and the basis stays the same
            later = [cring.var(v) for v in ring.vars[ci + 1 :]]
            text = "\n".join(str(p) for p in buchberger(gens + later, ring=cring))
            got = hashlib.sha256(text.encode()).hexdigest()
            assert got == PIECE_BASES[(name, var)], (name, var)



def _unsplit_run(gens, ring):
    """Reduced basis terms from the Buchberger run itself, nothing split
    off and no table."""
    return groebner._run([g.monic() for g in gens if not g.is_zero], ring)[0]


def _assert_split_exact(gens, var):
    # gens + [var] is split at var; gens + [var + gens[0]] is the same
    # ideal, and var + gens[0] is no variable
    ring = var.ring
    split = buchberger(gens + [var.scale(CycloElem.from_int(-3))], ring=ring)
    whole = buchberger(gens + [var + gens[0]], ring=ring)
    assert [p.terms for p in split] == [p.terms for p in whole]
    assert [p.terms for p in split] == list(_unsplit_run(gens + [var], ring))
    assert split.stats["size"] == len(split.polys)


def test_split_zero_coordinates_small_ideals():
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    cases = [
        ([x**2 - y * z, y**2 + x - 1], z),
        ([x * y - 1, y**2 - z], x),  # x y - 1 becomes -1: the unit ideal
        ([x * z + y**2, x**3], z),  # the rest is (y^2, x^3)
        ([y, z], x),  # every generator a variable
        ([x + y + z, y - z], y),  # the leads change when y is set to 0
        ([x**2 + z**2 + y * z], z),  # (x^2) and z
    ]
    for gens, var in cases:
        _assert_split_exact(gens, var)
    assert [str(p) for p in buchberger([y, z, x])] == ["x", "y", "z"]
    assert [str(p) for p in buchberger([x * y - 1, x])] == ["1"]


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["drl", "lex"])
def test_split_zero_coordinates_random(order):
    rng = random.Random(1515)
    ring = Ring(("x", "y", "z", "w"), order)
    for _ in range(40):
        gens = [rand_poly(rng, ring, deg=3, nterms=4, coeff=cyclo_coeff) for _ in range(3)]
        # no constant terms: ideals inside (x, y, z, w), which is no unit
        gens = [ring.from_terms(t for t in g.terms if sum(t[0])) for g in gens]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        var = ring.var(rng.choice(ring.vars))
        more = [ring.var(v) for v in ring.vars if rng.random() < 0.3]
        _assert_split_exact(gens + more, var)


def test_table_serves_renamed_permuted_ideal(monkeypatch):
    monkeypatch.setattr(groebner, "_BASES", {})
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    gens = [x**2 + y * z - 1, y**2 - x * z, z**2 + x - y]
    gb = buchberger(gens)
    assert len(groebner._BASES) == 1
    renamed = Ring(("a", "b", "c"))
    permuted = [Poly(renamed, g.terms).scale(CycloElem.e_power(2)) for g in reversed(gens)]
    hit = buchberger(permuted)
    assert len(groebner._BASES) == 1  # served, not run
    assert [p.terms for p in hit] == [p.terms for p in gb]
    assert all(p.ring is renamed for p in hit)
    assert hit.stats == gb.stats
    monkeypatch.setattr(groebner, "_BASES", {})
    fresh = buchberger(permuted)
    assert [str(p) for p in hit] == [str(p) for p in fresh]
    assert "a" in str(hit.polys[0]) and "x" not in str(hit.polys[0])


def test_normal_form_of_generator_is_zero():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    gens = [x**2 + y, x * y - 1]
    gb = buchberger(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero
    assert normal_form(x**2, buchberger([x])).is_zero


def test_zero_dim_analyze_basic():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    gb = buchberger([x**2, y])
    s = zero_dim_analyze(gb)
    assert s.degree == 2
    assert set(s.std_monomials) == {(0, 0), (1, 0)}


def test_not_zero_dimensional_witness():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    gb = buchberger([x**2])
    with pytest.raises(NotZeroDimensional) as ei:
        zero_dim_analyze(gb)
    assert ei.value.witness_var == "y"


def _whole_by_linear_algebra(gb, polys):
    alg = QuotientAlgebra(zero_dim_analyze(gb))
    return alg.generates_whole([alg.nf_coeffs(p) for p in polys])


def _whole_by_buchberger(gb, polys):
    return buchberger(list(gb.polys) + polys, ring=gb.ring).is_trivial()


def test_generates_whole_small_ideals():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    cases = [
        # non-radical, supported at the origin only
        ([x**2, y**2], [x], False),
        ([x**2, y**2], [x * y, y], False),
        ([x**2, y**2], [x + 1], True),  # nonzero constant term: a unit
        ([x**2, y**2], [], False),
        # two reduced points (1, 1) and (-1, -1)
        ([x**2 - 1, y - x], [x - 1], False),
        ([x**2 - 1, y - x], [x - 1, y + 1], True),
        # non-radical: a double point at the origin and a simple one at (1, 1)
        ([x**3 - x**2, y - x], [x**2], False),
        ([x**3 - x**2, y - x], [x**2, x - 1], True),
        ([x**3 - x**2, y - x], [x * (x - 1)], False),
        ([x**3 - x**2, y - x], [x**3 - x**2], False),  # zero in R/I
        # I = R: R/I = 0 is generated by nothing
        ([x - 1, x], [], True),
    ]
    for gens, polys, want in cases:
        gb = buchberger(gens, ring=ring)
        assert _whole_by_buchberger(gb, polys) is want
        assert _whole_by_linear_algebra(gb, polys) is want


def _generates_whole_agrees_with_buchberger(rng, coeff):
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    seen = set()
    for _ in range(30):
        # zero-dimensional: pure-power leading terms in every variable
        gens = [
            x**2 + rand_poly(rng, ring, deg=1, coeff=coeff),
            y**2 + rand_poly(rng, ring, deg=1, coeff=coeff),
            z**2 + rand_poly(rng, ring, deg=1, coeff=coeff),
        ]
        gb = buchberger(gens, ring=ring)
        polys = [
            rand_poly(rng, ring, deg=2, coeff=coeff) for _ in range(rng.randint(0, 2))
        ]
        polys = [p for p in polys if not p.is_zero]
        want = _whole_by_buchberger(gb, polys)
        assert _whole_by_linear_algebra(gb, polys) is want
        seen.add(want)
    assert seen == {True, False}


def test_generates_whole_agrees_with_buchberger_random():
    _generates_whole_agrees_with_buchberger(random.Random(2718), small_int)


def test_generates_whole_agrees_with_buchberger_random_cyclo():
    # Q(zeta5) coefficients: pivots with e-terms and mixed denominators
    _generates_whole_agrees_with_buchberger(random.Random(2719), cyclo_coeff)


def test_in_radical_small_ideals():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    cases = [
        # fat points whose nilpotency index is the whole degree: x^3 is
        # not in (x^4, y), so every squaring up to x^4 is needed
        ([x**4, y], x, True),
        ([x**4, y], x**3 + y, True),
        ([x**3, y], x, True),
        ([x**4, y], x + 1, False),
        ([x**2, y**2], x * y + y, True),
        ([x**2, y**2], x - 1, False),
        # a double point at the origin and a simple one at (1, 1)
        ([x**3 - x**2, y - x], x * (x - 1), True),
        ([x**3 - x**2, y - x], x, False),
        ([x**3 - x**2, y - x], x - 1, False),
        # two reduced points (1, 1) and (-1, -1)
        ([x**2 - 1, y - x], x**2 - 1, True),
        ([x**2 - 1, y - x], y + 1, False),
        # I = R: everything is in it
        ([x - 1, x], x + 5, True),
    ]
    for gens, f, want in cases:
        gb = buchberger(gens, ring=ring)
        rad = radical_zero_dim(zero_dim_analyze(gb))
        assert normal_form(f, rad.gb).is_zero is want
        assert QuotientAlgebra(zero_dim_analyze(gb)).in_radical(f) is want


def test_in_radical_agrees_with_radical_random():
    rng = random.Random(1618)
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    seen = set()
    for _ in range(20):
        # zero-dimensional, often non-reduced (repeated roots in x)
        a = rng.choice([0, 1, -1])
        gens = [
            (x - a) ** 2 * (x + 2),
            y**2 + rand_poly(rng, ring, deg=1),
            z**2 + rand_poly(rng, ring, deg=1),
        ]
        gb = buchberger(gens, ring=ring)
        scheme = zero_dim_analyze(gb)
        rad = radical_zero_dim(scheme)
        alg = QuotientAlgebra(scheme)
        inside = rng.choice(rad.gb.polys) * rand_poly(rng, ring, deg=1)
        for f in (rand_poly(rng, ring, deg=2), inside, inside + gens[0]):
            want = normal_form(f, rad.gb).is_zero
            assert alg.in_radical(f) is want
            seen.add(want)
    assert seen == {True, False}


def test_nf_products_matches_expanded_sum_random():
    # the NF of a signed sum of products seeded term by term equals the NF
    # of the expanded Poly sum; denominators 1..6 mix within each factor
    rng = random.Random(3141)
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    nonzero = 0
    for _ in range(20):
        gens = [
            x**3 + rand_poly(rng, ring, coeff=cyclo_coeff),
            y**2 + rand_poly(rng, ring, deg=1, coeff=cyclo_coeff),
            z**2 + rand_poly(rng, ring, deg=1, coeff=cyclo_coeff),
        ]
        alg = QuotientAlgebra(zero_dim_analyze(buchberger(gens, ring=ring)))
        products = [
            (
                rng.choice((1, -1)),
                rand_poly(rng, ring, nterms=rng.randint(1, 4), coeff=cyclo_coeff),
                rand_poly(rng, ring, deg=3, nterms=5, coeff=cyclo_coeff),
            )
            for _ in range(rng.randint(1, 3))
        ]
        want = alg.nf(sum((f * g).scale(sign) for sign, f, g in products))
        got = alg.nf_products(products)
        assert got == want and str(got) == str(want)
        assert alg.coeffs(got) == alg.coeffs(want)
        nonzero += not got.is_zero
        # f*g - g*f cancels to the zero vector
        _, f, g = products[0]
        zero = alg.nf_products([(1, f, g), (-1, g, f)])
        assert zero.is_zero
        assert all(c.is_zero for c in alg.coeffs(zero))
    assert nonzero > 15


def _supported_by_linear_algebra(gb, polys):
    return QuotientAlgebra(zero_dim_analyze(gb)).supported_length(polys)


def _supported_by_buchberger(gb, polys):
    # slice by g^deg: deg bounds every local multiplicity
    deg = zero_dim_analyze(gb).degree
    sliced = buchberger(list(gb.polys) + [g**deg for g in polys], ring=gb.ring)
    return 0 if sliced.is_trivial() else zero_dim_analyze(sliced).degree


def test_supported_length_small_ideals():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    cases = [
        # empty piece: x vanishes at neither of (1, 1), (-1, -1)
        ([x**2 - 1, y - x], [x], 0),
        ([x**2, y**2], [x + 1], 0),  # a unit
        # the whole scheme: a fat point at the origin
        ([x**2, y**2], [x], 4),
        ([x**2, y**2], [x * y, y], 4),
        ([x**2, y**2], [], 4),
        ([x**3 - x**2, y - x], [x**3 - x**2], 3),  # zero in R/I
        # non-radical: a double point at the origin and a simple one at (1, 1)
        ([x**3 - x**2, y - x], [x], 2),
        ([x**3 - x**2, y - x], [x - 1], 1),
        ([x**3 - x**2, y - x], [x * (x - 1)], 3),
        # several polynomials: lengths 2, 2, 1, 1 at (0, 0), (0, 1), (1, 0), (1, 1)
        ([x**3 - x**2, y**2 - y], [x, y], 2),
        ([x**3 - x**2, y**2 - y], [x, y - 1], 2),
        ([x**3 - x**2, y**2 - y], [x - 1, y], 1),
        ([x**3 - x**2, y**2 - y], [x, x - 1], 0),
        ([x**3 - x**2, y**2 - y], [y], 3),
        # I = R: nothing to measure
        ([x - 1, x], [x], 0),
    ]
    for gens, polys, want in cases:
        gb = buchberger(gens, ring=ring)
        assert _supported_by_buchberger(gb, polys) == want
        assert _supported_by_linear_algebra(gb, polys) == want


def _supported_length_agrees_with_buchberger(rng, coeff):
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    seen = set()
    for _ in range(30):
        # zero-dimensional, split into the slices x = 0 and x = a, and
        # sometimes non-reduced along z
        a = rng.choice([-2, -1, 1, 2])
        tail = (
            rand_poly(rng, ring, deg=1, coeff=coeff)
            if rng.random() < 0.7
            else ring.zero
        )
        gens = [
            x**2 - a * x,
            y**2 + rand_poly(rng, ring, deg=1, coeff=coeff),
            z**2 + tail,
        ]
        gb = buchberger(gens, ring=ring)
        pool = [
            x,
            x - a,
            y,
            z,
            rand_poly(rng, ring, deg=2, coeff=coeff),
            x * rand_poly(rng, ring, coeff=coeff),
            gens[0] * (y + 1),  # in I: vanishes on the whole scheme
        ]
        polys = rng.sample(pool, rng.randint(1, 2))
        want = _supported_by_buchberger(gb, polys)
        assert _supported_by_linear_algebra(gb, polys) == want
        deg = zero_dim_analyze(gb).degree
        seen.add("empty" if want == 0 else "whole" if want == deg else "part")
    assert seen == {"empty", "part", "whole"}


def test_supported_length_agrees_with_buchberger_random():
    _supported_length_agrees_with_buchberger(random.Random(3141), small_int)


def test_supported_length_agrees_with_buchberger_random_cyclo():
    # Q(zeta5) coefficients: pivots with e-terms and mixed denominators
    _supported_length_agrees_with_buchberger(random.Random(3142), cyclo_coeff)


def reference_krylov(alg, p):
    """The CycloElem elimination `QuotientAlgebra.krylov` ran before raw
    rows: (minpoly, rows), each row (pivot, row, combo) scaled to pivot 1
    with row = sum(combo[j] * p^j mod I)."""
    field = alg.field
    n = len(alg.basis)
    cols = alg.mult_columns(p)
    v = [field.zero] * n
    zero_mono = (0,) * alg.ring.nvars
    if zero_mono in alg.index:
        v[alg.index[zero_mono]] = field.one
    rows = []
    for step in range(n + 1):
        red, combo = _reference_reduce(v, [field.zero] * step + [field.one], rows)
        piv = next((i for i, c in enumerate(red) if not c.is_zero), None)
        if piv is None:
            return combo, rows
        inv = red[piv].inverse()
        rows.append((piv, [c * inv for c in red], [c * inv for c in combo]))
        v = [sum((cols[j][i] * v[j] for j in range(n)), field.zero) for i in range(n)]
    raise AssertionError("Krylov iteration failed to terminate")


def _reference_reduce(v, combo, rows):
    v, combo = list(v), list(combo)
    for piv, rv, rc in rows:
        c = v[piv]
        if c.is_zero:
            continue
        v = [a - c * b for a, b in zip(v, rv)]
        combo += [CycloElem.from_int(0)] * (len(rc) - len(combo))
        for i, b in enumerate(rc):
            combo[i] = combo[i] - c * b
    return v, combo


def reference_solve_in_krylov(vec, rows):
    red, combo = _reference_reduce(vec, [CycloElem.from_int(0)], rows)
    if any(not c.is_zero for c in red):
        return None
    return [-c for c in combo]


@pytest.mark.parametrize("coeff", [small_int, cyclo_coeff], ids=["int", "cyclo"])
def test_krylov_matches_reference_random(coeff):
    # the raw-row elimination gives the CycloElem elimination's monic
    # eliminant and Krylov coordinates, entry for entry
    rng = random.Random(2236)
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    outcomes = set()
    for _ in range(8):
        gens = [
            x**3 + rand_poly(rng, ring, coeff=coeff),
            y**2 + rand_poly(rng, ring, deg=1, coeff=coeff),
            z**2 + rand_poly(rng, ring, deg=1, coeff=coeff),
        ]
        scheme = zero_dim_analyze(buchberger(gens, ring=ring))
        alg = QuotientAlgebra(scheme)
        probes = [x, y, z, rand_poly(rng, ring, coeff=coeff)]
        for p in probes[2:]:
            want, ref_rows = reference_krylov(alg, p)
            mp, rows = alg.krylov(p)
            assert mp == want and eliminant(scheme, p) == want
            assert mp[-1] == CycloElem.from_int(1)
            for q in probes + [ring.one, ring.zero]:
                vec = alg.nf_coeffs(q)
                got = alg.solve_in_krylov(vec, rows)
                assert got == reference_solve_in_krylov(vec, ref_rows)
                if got is None:
                    outcomes.add("none")
                else:
                    outcomes.add("shape" if len(mp) - 1 == scheme.degree else "span")
    assert outcomes == {"none", "shape", "span"}


@pytest.mark.parametrize(
    "fixture",
    ["new_quartic_cert", "new_quintic_cert", "vdgz_quartic_cert", "vdgz_quintic_cert"],
)
def test_eliminant_matches_reference_krylov_on_charts(fixture, request):
    cert = request.getfixturevalue(fixture)
    charts = [c for c in cert.report.charts if c is not None and c.scheme.degree]
    assert charts
    for chart in charts:
        for scheme in (chart.scheme, chart.radical):
            alg = QuotientAlgebra(scheme)
            for v in scheme.ring.gens():
                want, _ = reference_krylov(alg, v)
                assert eliminant(scheme, v) == want


def test_radical_simple():
    ring = Ring(("x",))
    x = ring.var("x")
    s = zero_dim_analyze(buchberger([x**2]))
    r = radical_zero_dim(s)
    assert r.degree == 1
    assert set(r.gb.polys) == {x}
    # idempotence
    assert radical_zero_dim(r).degree == 1


def test_eliminant_is_annihilator():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    s = zero_dim_analyze(buchberger([x**2 - 2, y - x]))
    g = eliminant(s, x)
    # x satisfies t^2 - 2
    assert len(g) == 3
    assert g[0] == CycloElem.from_int(-2)
    assert g[2] == CycloElem.from_int(1)


def test_extract_points_two_rational():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    s = zero_dim_analyze(buchberger([x**2 - 2 * x, y - x]))
    pts = extract_points(s)
    assert len(pts) == 2
    got = sorted(str(p.coords[0].c[0]) for p in pts)
    assert got == ["0", "2"]
    for p in pts:
        assert p.is_rational
        assert p.coords[0] == p.coords[1]


def test_extract_points_tower_branch_unresolved():
    # x^2 = e: already in shape position; without resolution this stays a
    # degree-2 branch over the tower (t, t^2 - e)
    ring = Ring(("x",))
    x = ring.var("x")
    e = CycloElem.e_power(1)
    s = zero_dim_analyze(buchberger([x**2 - ring.from_scalar(e)]))
    pts = extract_points(s, resolve=False)
    assert len(pts) == 1
    br = pts[0]
    assert br.degree == 2
    assert isinstance(br.ctx, TowerContext)
    assert br.ctx.levels[0][1][2] == CycloElem.from_int(1)  # monic
    # same scheme with resolution: e = (e^3)^2 so the roots are rational
    pts2 = extract_points(s, resolve=True)
    assert sorted(p.degree for p in pts2) == [1, 1]
    roots = {p.coords[0] for p in pts2}
    assert CycloElem.e_power(3) in roots


def test_extract_points_known_point_peeling():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    gens = [(x - 1) * (x - 2) * (x - 3), y - x**2]
    s = zero_dim_analyze(buchberger(gens))
    pts = extract_points(
        s, known_points=[(CycloElem.from_int(1), CycloElem.from_int(1))]
    )
    assert len(pts) == 3
    assert sum(p.degree for p in pts) == 3
    assert all(p.is_rational for p in pts)


def test_dynamic_split_degree_additivity():
    # extraction over a branch that stays irrational keeps full degree
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    gens = [x**2 - 2, y - x]
    s = zero_dim_analyze(buchberger(gens))
    pts = extract_points(s)
    assert sum(p.degree for p in pts) == 2
    assert len(pts) == 1 and not pts[0].is_rational


def test_quartic_jacobian_chart_zero_dimensional():
    # the published quartic has 15 nodes away from x = 0
    q = XYZW.parse(NEW_QUARTIC_TEXT)
    chart = Ring(("y", "z", "w"))
    subs = {0: chart.one}
    gens = []
    for g in jacobian(q):
        gd = g.dehomogenize("x")
        gens.append(chart.from_terms((e[1:], c) for e, c in gd.terms))
    gb = buchberger(gens, ring=chart)
    s = zero_dim_analyze(gb)
    assert s.degree == 15
    r = radical_zero_dim(s)
    assert r.degree == 15
