import collections
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from cuspidal import catalog, groebner
from cuspidal.catalog import NEW_QUARTIC_TEXT, XYZW
from cuspidal.cyclofield import ONE, ZERO, CycloElem
from cuspidal.groebner import (
    NonRationalResidual,
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
from cuspidal.linalg import _apply, _echelon
from cuspidal.multipoly import Poly, Ring, jacobian, mono_lcm, pack, unpack
from cuspidal.pipeline import divisibility_pipeline
from cuspidal.singcert import ChartData, chart_piece, chart_ring, classify_all, to_chart


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


# the ids keep the names the tests had when they were parametrised by the
# term order too
COEFFS = [
    pytest.param(small_int, id="degrevlex"),
    pytest.param(cyclo_coeff, id="degrevlex-cyclo"),
]


@pytest.mark.parametrize("coeff", COEFFS)
def test_normal_form_matches_reference_random(coeff, assert_canonical):
    # heap division on packed monomials against the tuple loop, modulo a
    # reduced basis and modulo a bare (order-dependent) list of generators;
    # cyclo_coeff makes sums of unequal denominators meet at one monomial.
    # Remainders and reduced bases come out in lowest terms.
    rng = random.Random(7007)
    checked = 0
    for trial in range(60):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3])
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


@pytest.mark.parametrize("coeff", COEFFS)
def test_spair_reduction_matches_spoly_random(coeff):
    # every S-pair seeded from the two packed tails reduces to the normal
    # form of its spoly, modulo a basis grown as buchberger grows it, from
    # the raw remainder's monic entry; cyclo_coeff's denominators 1..6 make
    # unequal tail denominators meet at one monomial
    rng = random.Random(8118)
    checked = 0
    for trial in range(40):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3])
        G = [rand_poly(rng, ring, nterms=4, coeff=coeff) for _ in range(rng.randint(2, 4))]
        G = [g.monic() for g in G if not g.is_zero]
        red = Reducers(ring, G)
        pairs = list(itertools.combinations(range(len(G)), 2))
        for i, j in pairs:
            L = pack(mono_lcm(G[i].lm(), G[j].lm()))
            got = red.remainder(red.spair_seeds(i, j, L))
            want = normal_form(spoly(G[i], G[j]), red)
            assert got == want and str(got) == str(want)
            checked += 1
            if not got.is_zero and len(G) < 6:
                pairs.extend((k, len(G)) for k in range(len(G)))
                G.append(got.monic())
                entry = red.monic_entry(red.raw_remainder(red.spair_seeds(i, j, L)))
                assert entry == red.entry(G[-1])
                red.entries.append(entry)
    assert checked > 300


def lead_coeff(rng, span):
    """Leads of every kind: irrational, negative and positive rationals,
    over denominators 1..6."""
    c = cyclo_coeff(rng, span)
    return c if rng.randrange(2) else CycloElem.from_rat(Fraction(c.n[0] or 1, c.d))


def test_monic_entry_matches_entry_of_monic_remainder(assert_canonical):
    # a raw remainder appended by `monic_entry` is the entry of its monic
    # polynomial, `entry(r.monic())`: the same lead and the same tail
    # values over the same least denominator, so the basis it grows is
    # the one the Poly path grew
    rng = random.Random(6116)
    kinds = set()
    for trial in range(120):
        ring = Ring(("x", "y", "z")[: 2 + trial % 2])
        gens = [rand_poly(rng, ring, coeff=cyclo_coeff) for _ in range(2)]
        red = Reducers(ring, [g.monic() for g in gens if not g.is_zero])
        f = rand_poly(rng, ring, deg=3, nterms=5, coeff=lead_coeff)
        D, terms = red.packed(f.terms)
        seeds = [(0, (1, 0, 0, 0), D, terms)]
        raw = red.raw_remainder(seeds)
        r = red.remainder(seeds)
        if not raw:
            assert r.is_zero
            continue
        monic = r.monic()
        assert_canonical(r)
        assert_canonical(monic)
        got = red.monic_entry(raw)
        assert got == red.entry(monic)
        # the entry read back as a polynomial is the monic remainder
        lead, tail, den = got
        n, one = ring.nvars, red.one
        back = Poly(
            ring,
            ((unpack(lead + one, n), CycloElem.from_int(1)),)
            + tuple(
                (unpack(t + lead + one, n), CycloElem([Fraction(x, den) for x in c]))
                for t, c in tail
            ),
        )
        assert_canonical(back)
        assert back == monic and str(back) == str(monic)
        lc = r.lc()
        kinds.add("irrational" if any(lc.n[1:]) else "rational<0" if lc.n[0] < 0 else "rational>0")
        if len({c.d for _, c in r.terms[1:]}) > 1:
            kinds.add("mixed denominators")
    assert kinds == {"irrational", "rational<0", "rational>0", "mixed denominators"}


# pairs processed by `_run` on the 40 random ideals of
# test_raw_remainder_sugar_keeps_pair_counts, as they were counted when a
# new element came from `Poly.monic` with its sugar from `Poly.degree`
# (348 when the product and chain criteria were tested at pop time; 311
# under the Gebauer-Moeller update)
SUGAR_PAIRS = 311


def test_raw_remainder_sugar_keeps_pair_counts():
    # a new element takes its pair's sugar s, which in degrevlex is
    # max(s, deg r), the sugar the Poly path gave it
    rng = random.Random(5)
    counts = []
    for trial in range(40):
        ring = Ring(("x", "y", "z")[: 2 + trial % 2])
        coeff = cyclo_coeff if trial % 3 == 0 else small_int
        gens = [rand_poly(rng, ring, deg=3, nterms=4, coeff=coeff) for _ in range(3)]
        gens = [g.monic() for g in gens if not g.is_zero]
        counts.append(groebner._run(gens, ring)[1]["pairs_processed"])
    assert sum(counts) == SUGAR_PAIRS


def test_one_algebra_per_scheme_memoises_stable_images(monkeypatch):
    # one algebra per scheme; a second supported_length on the same
    # variable reuses the stable image, and two schemes, here with the same
    # ring and the same variable, never share an operator or an image
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    # lengths 2 at the origin and 4 elsewhere; 6 at the origin
    spread = zero_dim_analyze(buchberger([x**2 - y, y**3 - y], ring=ring))
    fat = zero_dim_analyze(buchberger([x**2 - y, y**3], ring=ring))
    assert spread.algebra is spread.algebra
    assert spread.algebra is not fat.algebra
    built = []
    products = QuotientAlgebra._products

    def counted(alg, p):
        built.append((alg.scheme, str(p)))
        return products(alg, p)

    monkeypatch.setattr(QuotientAlgebra, "_products", counted)
    assert spread.algebra.supported_length([y]) == 2
    image = spread.algebra._stable[y.terms]
    assert spread.algebra.supported_length([y]) == 2
    assert spread.algebra.supported_length([x, y]) == 2
    assert spread.algebra._stable[y.terms] is image
    assert built == [(spread, "y"), (spread, "x")]
    assert fat.algebra.supported_length([y]) == 6
    assert built[2:] == [(fat, "y")]
    assert fat.algebra._stable[y.terms] is not image
    # generates_whole closes under the memoised operators of x and y
    alg = spread.algebra
    assert alg.generates_whole([alg.nf_coeffs(x - 1)]) is False
    assert len(built) == 3


def test_spair_tails_cancel_exactly():
    # z * (1/2)y from f and y * (1/2)z from g meet at yz over the tail
    # denominators 6 and 10 and cancel: yz must not be in the remainder
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    f = x * y + y.scale(Fraction(1, 2)) + x.scale(Fraction(1, 3))
    g = x * z + z.scale(Fraction(1, 2)) + Fraction(1, 5)
    red = Reducers(ring, [f, g])
    assert [D for _, _, D in red.entries] == [6, 10]
    got = red.remainder(red.spair_seeds(0, 1, pack((1, 1, 1))))
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
    basis.sort(key=lambda g: pack(g.lm()), reverse=True)
    return basis


@pytest.mark.parametrize("coeff", COEFFS)
def test_reduced_basis_matches_reference_interreduce_random(coeff):
    # a reduced basis padded with a duplicate (the monic 2f), a redundant
    # x*f and, first of its lead, f + c*g with an unreduced tail: the
    # minimality sweep and the one tail pass give back the old fixpoint
    rng = random.Random(9119)
    perturbed = 0
    for trial in range(40):
        ring = Ring(("x", "y", "z", "w")[: 2 + trial % 3])
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


# sha256 of the reduced basis text, per chart Jacobian ideal, as computed
# by the tuple-monomial implementation, and the pairs processed under the
# Gebauer-Moeller update
CHART_JACOBIAN_BASES = {
    ("new_quartic", "x"): ("bc70a059f1c95660cedf985ed762a85e0f83cb2d34d6bfd5ef53343de433e7fe", 16),
    ("new_quartic", "y"): ("b6106926c0130940ec4b3c7d258e58cfbaae2bc0977be5688a27afd78affd249", 15),
    ("new_quartic", "z"): ("5f45430c5564585b84a4bb3c521e28692c166093bfe5cc0db414116fde5c70cc", 15),
    ("new_quartic", "w"): ("99d6f6617bf194cd22524acadef0ebd748c1b7cc9b4f630cef523a4fee12499a", 19),
    ("new_quintic", "x"): ("391ea47236b0ffb247327fa3d6db5956c038b8470b7ad56969e450ba3c41edb3", 49),
    ("new_quintic", "y"): ("584d303872bb42714ff5fa1d42795902cc7aa4e5f7057cbf6097eefc88ede9dd", 48),
    ("new_quintic", "z"): ("28bda5e3bb0157f27a8b30dd483789ecd6ef96c2992221e33322a318e053b657", 55),
    ("new_quintic", "w"): ("d97939344e6ff167b0ddf48d7773e4f6c0a3352c05be73572134737155df0e56", 45),
    ("vdgz_quartic", "x"): ("0b00286413947f7861260730298469587e32231325f39fc9a57505b961126b8a", 28),
    ("vdgz_quartic", "y"): ("ffbfc871e09176e933a8f74bdf1d618bf4d0bb96dc01623080e648287a8d5e13", 28),
    ("vdgz_quartic", "z"): ("d2fac6aa02cbaacb91314894767fecf8de4d46f98974583aa965f4701b78f354", 28),
    ("vdgz_quartic", "w"): ("66a4ccd4bef9c098fc5e861465ea8a75b5f59aa7f5e9d6b415bfb29985ea927f", 28),
    ("vdgz_quintic", "x"): ("749cbacaa219b2fc5450a3614719494f592ba844f22b0d6b9b37270b21378a39", 50),
    ("vdgz_quintic", "y"): ("2ca5eff7497a7ae0698c97ed188fba14e4d7e2e5262089d8f3f4f2ce93a75c84", 50),
    ("vdgz_quintic", "z"): ("27fd4b152eb9c8e509b66cc99c67b9eb04a9781aed10521c5fe8ad8b2c05550e", 50),
    ("vdgz_quintic", "w"): ("50c1feb0b754b139a678736dcf5e84a4130abdd69efeac9294be8183b8f7fc90", 50),
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



# zero reductions of the VdGZ quintic's chart-x Jacobian run, 24 of its 50
# pairs under the Gebauer-Moeller update (35 of 61 at pop time)
VDGZ_CHART_X_ZERO_REDUCTIONS = 24


def test_zero_reductions_counted():
    F = catalog.get("vdgz_quintic").poly
    cring = chart_ring(F.ring, 0)
    gens = [to_chart(p, 0, cring).monic() for p in jacobian(F)]
    _, stats = groebner._run([g for g in gens if not g.is_zero], cring)
    assert stats == {
        "pairs_processed": CHART_JACOBIAN_BASES[("vdgz_quintic", "x")][1],
        "zero_reductions": VDGZ_CHART_X_ZERO_REDUCTIONS,
    }


def reference_buchberger(gens):
    """Buchberger with no criteria: the S-polynomial of every pair is
    reduced by `normal_form` modulo all elements so far, and a nonzero
    remainder joins them, until no pair gives a new element; then
    `reference_interreduce`."""
    basis = [g.monic() for g in gens]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        # the pair of least lcm degree: any order is sound, this one is fast
        pair = min(pairs, key=lambda p: sum(mono_lcm(*(basis[k].lm() for k in p))))
        pairs.remove(pair)
        r = normal_form(spoly(*(basis[k] for k in pair)), basis)
        if not r.is_zero:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r.monic())
    return reference_interreduce(basis)


def test_pair_criteria_match_run_without_criteria_random():
    # the update's criteria drop only pairs whose S-polynomials reduce to
    # zero, so `_run` gives the basis of the run that reduces every pair;
    # the generators are mixed so that the new element's lead often equals
    # an old lead, is prime to one, or is a single variable, which makes
    # earlier elements redundant while their pairs are pending
    rng = random.Random(2020)
    kinds = collections.Counter()
    for trial in range(120):
        ring = Ring(("x", "y", "z")[: 2 + trial % 2])
        coeff = cyclo_coeff if trial % 3 == 0 else small_int
        gens = [rand_poly(rng, ring, deg=3, nterms=3, coeff=coeff) for _ in range(2)]
        gens = [g for g in gens if g.degree() > 0]
        if gens and rng.random() < 0.5:  # an equal lead
            g = gens[0]
            low = rand_poly(rng, ring, deg=g.degree() - 1, coeff=coeff)
            gens.append(g.scale(coeff(rng, 3) or ONE) + low)
            kinds["equal"] += 1
        if rng.random() < 0.5:  # pure powers of two variables: coprime leads
            for v in rng.sample(ring.gens(), 2):
                k = rng.randint(1, 3)
                gens.append(v**k + rand_poly(rng, ring, deg=k - 1, coeff=coeff))
            kinds["coprime"] += 1
        if rng.random() < 0.3:
            gens.append(rng.choice(ring.gens()))
            kinds["variable"] += 1
        gens = [g.monic() for g in gens if not g.is_zero]
        if not gens:
            continue
        kinds["cyclo"] += any(any(c.n[1:]) for g in gens for _, c in g.terms)
        got, _ = groebner._run(gens, ring)
        assert list(got) == [p.terms for p in reference_buchberger(gens)], trial
    assert min(kinds.values()) >= 20, kinds


def test_reducer_memo_sees_appended_entries():
    # a monomial the kernel left in a remainder is reduced once an entry
    # whose lead divides it is appended; a found divisor stays the first
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    f = x * y**2 + x**3 + y
    red = Reducers(ring, [x**2 - y])
    kept = normal_form(f, red)
    assert (1, 2) in [e for e, _ in kept.terms]
    red.entries.append(red.entry(y**2 - x))
    got = normal_form(f, red)
    assert got == normal_form(f, Reducers(ring, [x**2 - y, y**2 - x]))
    assert got == reference_normal_form(f, [x**2 - y, y**2 - x])
    assert (1, 2) not in [e for e, _ in got.terms]
    assert normal_form(f, red) == got  # every lookup now served by the memo


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


def test_split_zero_coordinates_random():
    rng = random.Random(1515)
    ring = Ring(("x", "y", "z", "w"))
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


def reference_split_prep(gens, ring):
    """The generators `buchberger` gave its run before the exponent test of
    D28: the split variables filtered out with a test per term, and every
    generator made monic."""
    gens = [g for g in gens if not g.is_zero]
    zero = {g.lm() for g in gens if len(g.terms) == 1 and sum(g.lm()) == 1}
    if zero:
        split = [k for k in range(ring.nvars) if any(e[k] for e in zero)]
        gens = [
            Poly(ring, tuple([t for t in g.terms if not any(t[0][k] for k in split)]))
            for g in gens
        ]
    return [g.monic() for g in gens if g.terms]


def test_split_filter_matches_per_term_filter(monkeypatch):
    # one, two or three split variables, scaled, among generators that are
    # monic or not: the run gets the generators the per-term test gave it
    rng = random.Random(2841)
    ring = Ring(("x", "y", "z", "w"))
    runs = []
    run = groebner._run

    def recorded(gens, ring):
        runs.append(gens)
        return run(gens, ring)

    monkeypatch.setattr(groebner, "_run", recorded)
    split_counts = set()
    for _ in range(40):
        monkeypatch.setattr(groebner, "_BASES", {})
        gens = [rand_poly(rng, ring, deg=3, nterms=5, coeff=cyclo_coeff) for _ in range(3)]
        gens.append(gens[0].monic() if not gens[0].is_zero else ring.one)
        split = rng.sample(ring.vars, rng.randint(1, 3))
        gens += [ring.var(v).scale(cyclo_coeff(rng, 3) or ONE) for v in split]
        rng.shuffle(gens)
        runs.clear()
        buchberger(gens, ring=ring)
        want = reference_split_prep(gens, ring)
        assert [g.terms for g in runs[0]] == [g.terms for g in want]
        split_counts.add(len(split))
    assert split_counts == {1, 2, 3}


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
        red = alg.scheme.gb.reducers()
        packed = [(sign, red.packed(f.terms), red.packed(g.terms)) for sign, f, g in products]
        want = alg.nf_coeffs(sum((f * g).scale(sign) for sign, f, g in products))
        assert alg.raw_coeffs(alg.raw_nf_products(packed)) == want
        nonzero += any(want)
        # f*g - g*f cancels to the zero remainder
        _, f, g = packed[0]
        assert alg.raw_nf_products([(1, f, g), (-1, g, f)]) == []
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
        # unreduced polynomials: NF(x^7) = x^2, and x^8 y^5 vanishes where
        # x or y does
        ([x**3 - x**2, y - x], [x**7], 2),
        ([x**3 - x**2, y**2 - y], [x**8 * y**5], 5),
        # I = R: nothing to measure
        ([x - 1, x], [x], 0),
    ]
    for gens, polys, want in cases:
        gb = buchberger(gens, ring=ring)
        assert _supported_by_buchberger(gb, polys) == want
        assert _supported_by_linear_algebra(gb, polys) == want
    # an unreduced p has the multiplication map of NF(p)
    alg = zero_dim_analyze(buchberger([x**3 - x**2, y - x], ring=ring)).algebra
    assert alg._operator(x**7)[0] == alg._operator(x**2)[0]


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


def _same_span(a, b):
    """Do two lists of raw Z[e] vectors span the same space?"""
    ra, rb = len(_echelon(a)), len(_echelon(b))
    return ra == rb == len(_echelon(list(a) + list(b)))


def _rank_loop(scheme):
    """A fresh algebra of the scheme whose stable images always take the
    rank loop, the index never being known."""
    alg = QuotientAlgebra(scheme)
    alg._nilpotency_index = lambda p: None
    return alg


def _true_index(alg, p):
    """The least k with rank(p^k) == rank(p^(k + 1)), from the ranks of
    the powers of the operator, p^0 the identity."""
    cols, op, rational = alg._operator(p)
    ranks = [len(alg.basis)]
    rows = _echelon(cols)
    while len(rows) != ranks[-1]:
        ranks.append(len(rows))
        rows = _echelon(_apply(op, r, rational) for _, _, r, _ in rows)
    return len(ranks) - 1


def _index_rule_agrees_with_rank_loop(rng, coeff):
    ring = Ring(("x", "y", "z"))
    x, y, z = ring.gens()
    taken = collections.Counter()
    for _ in range(16):
        # split into x = 0 and x = a; a triple point along y and a double
        # point along z when their tails vanish
        a = rng.choice([-2, -1, 1, 2])
        tails = [
            rand_poly(rng, ring, deg=1, coeff=coeff) if rng.random() < 0.6 else ring.zero
            for _ in range(2)
        ]
        gens = [x**2 - a * x, y**3 + tails[0], z**2 + tails[1]]
        scheme = zero_dim_analyze(buchberger(gens, ring=ring))
        # the eliminants of x, y and z run on scheme.algebra here
        radical = radical_zero_dim(scheme)
        for alg in (scheme.algebra, radical.algebra):
            ref = _rank_loop(alg.scheme)
            known, unknown = (rand_poly(rng, ring, coeff=coeff) for _ in range(2))
            alg.krylov(known)
            probes = [x, y, z, x - a, known, unknown, y * (x - a)]
            for p in probes:
                k = alg._nilpotency_index(p)
                if alg.scheme.is_radical:
                    taken["reduced"] += 1
                    assert k == 1 and _true_index(alg, p) <= 1
                elif k is None:
                    taken["unknown"] += 1
                else:
                    assert k == _true_index(alg, p)
                    taken[min(k, 2)] += 1
                assert _same_span(alg._stable_image(p), ref._stable_image(p))
                _, op, rational = alg._operator(p)
                assert rational == all(not any(n[1:]) for row in op for _, n in row)
            for _ in range(3):
                polys = rng.sample(probes, rng.randint(1, 3))
                assert alg.supported_length(polys) == ref.supported_length(polys)
    assert set(taken) == {"reduced", "unknown", 0, 1, 2}


def test_index_rule_agrees_with_rank_loop_random():
    _index_rule_agrees_with_rank_loop(random.Random(2801), small_int)


def test_index_rule_agrees_with_rank_loop_random_cyclo():
    _index_rule_agrees_with_rank_loop(random.Random(2802), cyclo_coeff)


def test_index_rule_on_the_chart_boundary_double_point():
    # the conic [x, yz - w^2] meets the line [x, y] in a double point at
    # (0:0:1:0), on the boundary of chart z (docs/DECISIONS.md D23): the
    # chart scheme is (x, y, w^2), where mult-by-w has index 2
    x, y, z, w = XYZW.gens()
    chart = ChartData(2, *chart_piece([x, y * z - w**2, x, y], 2))
    # runs the eliminants of x, y and w on the chart scheme
    assert radical_zero_dim(chart.scheme).degree == 1
    alg = chart.scheme.algebra
    assert alg._nilpotency_index(chart.later[0]) == 2
    assert (chart.length, chart.points) == (2, 1)
    ref = _rank_loop(chart.scheme)
    assert ref.supported_length(chart.later) == 2
    w_ = chart.later[0]
    assert _same_span(alg._stable_image(w_), ref._stable_image(w_))


@pytest.mark.parametrize("name, runs", [("new_quintic", 10), ("vdgz_quintic", 3)])
def test_divisibility_krylov_runs(name, runs, monkeypatch):
    # the index rule reads minimal polynomials that radicals and point
    # extraction have found; it runs no Krylov iteration of its own, and
    # a repeated question is served by the memo (docs/DECISIONS.md D28).
    # new_quintic's count fell from 13 when a chart other than the last
    # stopped taking its radical: the radical of a piece ideal runs the
    # eliminants of the piece, not of the chart (D30).  vdgz_quintic's
    # fell from 6 when its quintic certification moved to the 12-term
    # form in its action's eigenbasis (D34)
    seen = []
    run = QuotientAlgebra._run_krylov

    def counted(alg, p):
        seen.append((alg, p.terms))
        return run(alg, p)

    monkeypatch.setattr(QuotientAlgebra, "_run_krylov", counted)
    divisibility_pipeline(name)
    assert len(seen) == len(set(seen)) == runs


def test_stable_image_echelon_passes_on_vdgz_quintic(monkeypatch):
    # the stable images of classify_all take 14 echelon passes with the
    # index rule and 22 with the rank loop alone: a lost memo or index
    # shows as a count, not only as time.  Both rose by 3 from 11 and 19
    # when every chart row took one rule (docs/DECISIONS.md D30): the row
    # of the built chart z now reads piece w's stable images of z, and
    # the stable image behind piece z's length takes the rank loop, as
    # chart z takes no radical whose eliminants would give the index
    passes = []
    echelon = groebner._echelon

    def counted(vectors):
        passes.append(1)
        return echelon(vectors)

    monkeypatch.setattr(groebner, "_echelon", counted)
    ent = catalog.get("vdgz_quintic")
    classify_all(ent.poly, ent.name, action=ent.action)
    assert len(passes) == 14
    passes.clear()
    monkeypatch.setattr(QuotientAlgebra, "_nilpotency_index", lambda alg, p: None)
    classify_all(ent.poly, ent.name, action=ent.action)
    assert len(passes) == 22


def reference_krylov(alg, p):
    """The CycloElem elimination `QuotientAlgebra.krylov` ran before raw
    rows: (minpoly, rows), each row (pivot, row, combo) scaled to pivot 1
    with row = sum(combo[j] * p^j mod I)."""
    n = len(alg.basis)
    # the columns of mult-by-p: NF(m * p) for each standard monomial m
    cols = [alg.nf_coeffs(alg.ring.from_terms([(m, ONE)]) * p) for m in alg.basis]
    v = [ZERO] * n
    zero_mono = (0,) * alg.ring.nvars
    if zero_mono in alg.index:
        v[alg.index[zero_mono]] = ONE
    rows = []
    for step in range(n + 1):
        red, combo = _reference_reduce(v, [ZERO] * step + [ONE], rows)
        piv = next((i for i, c in enumerate(red) if not c.is_zero), None)
        if piv is None:
            return combo, rows
        inv = red[piv].inverse()
        rows.append((piv, [c * inv for c in red], [c * inv for c in combo]))
        v = [sum((cols[j][i] * v[j] for j in range(n)), ZERO) for i in range(n)]
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
        for scheme in (chart.scheme, radical_zero_dim(chart.scheme)):
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
    got = sorted(str(p[0].c[0]) for p in pts)
    assert got == ["0", "2"]
    for p in pts:
        assert len(p) == 2
        assert p[0] == p[1]


def test_extract_points_tower_branch_unresolved():
    # x^2 = e: already in shape position, and e = (e^3)^2, so the mod-p
    # root finder resolves both roots: no residual is left
    ring = Ring(("x",))
    x = ring.var("x")
    e = CycloElem.e_power(1)
    s = zero_dim_analyze(buchberger([x**2 - ring.from_scalar(e)]))
    pts = extract_points(s)
    assert len(pts) == 2 and all(len(p) == 1 for p in pts)
    roots = {p[0] for p in pts}
    assert CycloElem.e_power(3) in roots
    assert all(r * r == e for r in roots)


def test_extract_points_known_point_peeling():
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    gens = [(x - 1) * (x - 2) * (x - 3), y - x**2]
    s = zero_dim_analyze(buchberger(gens))
    pts = extract_points(
        s, known_points=[(CycloElem.from_int(1), CycloElem.from_int(1))]
    )
    assert len(pts) == 3
    assert sorted(str(p[0]) for p in pts) == ["1", "2", "3"]
    assert all(p[1] == p[0] * p[0] for p in pts)


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")], ids=["square", "cube"])
def test_extract_points_separating_form(names):
    # the vertices of {0,1}^n: no single variable separates them, nor
    # t_1 = x_{n-1} + x_0 + ... + x_{n-2} (0, 1, 1, 2 on the square), so
    # the points come from a later form t_c (docs/DECISIONS.md D21)
    ring = Ring(names)
    xs = ring.gens()
    s = zero_dim_analyze(buchberger([x**2 - x for x in xs]))
    pts = extract_points(s)
    want = set(itertools.product((0, 1), repeat=len(names)))
    assert len(pts) == len(want)
    assert {tuple(int(str(c)) for c in p) for p in pts} == want


def test_extract_points_non_rational_residual():
    # sqrt(2) is not in Q(zeta5): both points of <x^2 - 2, y - x> are left
    # as one residual of degree 2, and no point is returned
    ring = Ring(("x", "y"))
    x, y = ring.gens()
    gens = [x**2 - 2, y - x]
    s = zero_dim_analyze(buchberger(gens))
    with pytest.raises(NonRationalResidual) as info:
        extract_points(s)
    assert info.value.degree == 2
    # one rational point beside them: the residual still has degree 2
    s = zero_dim_analyze(buchberger([(x**2 - 2) * (x - 1), y - x]))
    with pytest.raises(NonRationalResidual) as info:
        extract_points(s)
    assert info.value.degree == 2


def test_quartic_jacobian_chart_zero_dimensional():
    # the published quartic has 15 nodes away from x = 0
    q = XYZW.parse(NEW_QUARTIC_TEXT)
    chart = chart_ring(XYZW, 0)
    gens = [to_chart(g, 0, chart) for g in jacobian(q)]
    gb = buchberger(gens, ring=chart)
    s = zero_dim_analyze(gb)
    assert s.degree == 15
    r = radical_zero_dim(s)
    assert r.degree == 15
