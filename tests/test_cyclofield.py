import math
import random
from fractions import Fraction

import pytest
import sympy

from cuspidal.cyclofield import (
    ALPHA,
    E,
    ONE,
    ZERO,
    CycloElem,
    cyclo_sqrt,
    cyclo_to_str,
    ratio,
)
from cuspidal.modp import ZetaModM
from cuspidal.multipoly import parse_scalar


def sympy_elem(x: CycloElem):
    """Independent model: polynomial in t modulo Phi5, via sympy."""
    t = sympy.Symbol("t")
    return sympy.Poly(
        [sympy.Rational(str(c)) for c in reversed(x.c)], t, domain="QQ"
    )


def sympy_reduce(p):
    t = sympy.Symbol("t")
    phi = sympy.Poly(t**4 + t**3 + t**2 + t + 1, t, domain="QQ")
    return p.rem(phi)


def from_sympy(p) -> CycloElem:
    cs = list(reversed(p.all_coeffs()))
    cs += [0] * (4 - len(cs))
    return CycloElem([ratio(c.p, c.q) for c in map(sympy.Rational, cs)])


def rand_elem(rng, span=10):
    return CycloElem(
        [ratio(rng.randint(-span, span), rng.randint(1, 7)) for _ in range(4)]
    )


def test_e5_is_one():
    assert E**5 == ONE
    assert E * CycloElem.e_power(4) == ONE


def test_phi5_sums_to_zero():
    total = ZERO
    for k in range(5):
        total = total + CycloElem.e_power(k)
    assert total.is_zero


def test_alpha_squared():
    # alpha = e^3+e^2 satisfies alpha^2 = 1 - alpha
    assert ALPHA * ALPHA == ONE - ALPHA


def test_alpha_plus_conjugate():
    beta = E + CycloElem.e_power(4)
    assert ALPHA + beta == -ONE


def test_mul_against_sympy_oracle():
    rng = random.Random(101)
    for _ in range(300):
        a, b = rand_elem(rng), rand_elem(rng)
        got = a * b
        want = from_sympy(sympy_reduce(sympy_elem(a) * sympy_elem(b)))
        assert got == want


def test_inverse_of_one_and_e():
    assert ONE.inverse() == ONE
    assert E.inverse() == CycloElem.e_power(4)


def test_inverse_one_plus_e():
    # oracle: extended gcd over Q[t] done by sympy
    t = sympy.Symbol("t")
    phi = sympy.Poly(t**4 + t**3 + t**2 + t + 1, t, domain="QQ")
    s, _, h = sympy.gcdex(sympy.Poly(t + 1, t, domain="QQ"), phi)
    assert h.degree() == 0
    want = from_sympy(s.exquo_ground(h.LC()))
    got = (ONE + E).inverse()
    assert got == want
    assert got * (ONE + E) == ONE


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(10_000):
        a, b, c = rand_elem(rng, 5), rand_elem(rng, 5), rand_elem(rng, 5)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
    for _ in range(500):
        a = rand_elem(rng, 5)
        if not a.is_zero:
            assert a * a.inverse() == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_galois_basics():
    assert ALPHA.galois(2) == E + CycloElem.e_power(4)
    c = CycloElem.from_rat(ratio(-7, 3))
    for k in (1, 2, 3, 4):
        assert c.galois(k) == c
    rng = random.Random(5)
    for _ in range(200):
        a = rand_elem(rng)
        assert a.galois(2).galois(3) == a


def test_galois_is_homomorphism_and_group():
    rng = random.Random(9)
    for _ in range(200):
        a, b = rand_elem(rng), rand_elem(rng)
        for k in (2, 3, 4):
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    for _ in range(50):
        a = rand_elem(rng)
        for j in (1, 2, 3, 4):
            for k in (1, 2, 3, 4):
                assert a.galois(j).galois(k) == a.galois((j * k) % 5)


def test_serialization_roundtrip():
    rng = random.Random(3)
    for _ in range(300):
        a = rand_elem(rng)
        assert parse_scalar(cyclo_to_str(a)) == a
    assert cyclo_to_str(ZERO) == "0"
    assert parse_scalar("(e^3+e^2)") == ALPHA
    assert parse_scalar("-136/3+220/3*e^2+220/3*e^3") == (
        CycloElem.from_rat(ratio(-136, 3)) + ratio(220, 3) * ALPHA
    )


def test_sqrt_of_squares():
    rng = random.Random(11)
    found = 0
    for _ in range(400):
        a = rand_elem(rng, 4)
        sq = a * a
        r = cyclo_sqrt(sq)
        assert r is not None
        assert r * r == sq
        found += 1
    assert found == 400


def test_sqrt_rejects_nonsquares():
    assert cyclo_sqrt(CycloElem.from_int(2)) is None
    assert cyclo_sqrt(CycloElem.from_int(-1)) is None
    # 5 is a square: sqrt5 = -1 - 2*alpha
    r = cyclo_sqrt(CycloElem.from_int(5))
    assert r is not None and r * r == CycloElem.from_int(5)


def test_sqrt_zero():
    assert cyclo_sqrt(ZERO) == ZERO


def test_rat_coercion_ops():
    assert ONE + 1 == CycloElem.from_int(2)
    assert 2 * E == E + E
    assert (ONE + ONE) / 2 == ONE


# -- the integer representation: four numerators over one denominator -------

BIG = 10**12


def rand_big(rng, kind="general"):
    """Numerators and denominators up to 10^12; `kind` picks the shape."""
    if kind == "zero":
        return ZERO
    cs = [ratio(rng.randint(-BIG, BIG), rng.randint(1, BIG)) for _ in range(4)]
    if kind == "rational":
        cs[1:] = [0, 0, 0]
    elif kind == "sparse":
        cs[rng.randrange(4)] = 0
        cs[rng.randrange(4)] = 0
    return CycloElem(cs)


KINDS = ("general", "general", "sparse", "rational", "zero")


def assert_canonical(x):
    assert type(x.d) is int and x.d > 0
    assert len(x.n) == 4 and all(type(v) is int for v in x.n)
    assert math.gcd(x.d, *x.n) == 1
    if x.is_zero:
        assert (x.n, x.d) == ((0, 0, 0, 0), 1)
    assert x.c == tuple(Fraction(v, x.d) for v in x.n)


def test_canonical_form_invariants():
    half = CycloElem([ratio(1, 2), ratio(1, 3), 0, ratio(-5, 6)])
    assert (half.n, half.d) == ((3, 2, 0, -5), 6)
    assert CycloElem([Fraction(4, 8), 0, 0, 0]).n == (1, 0, 0, 0)
    assert CycloElem([6, 0, 0, 0]) == CycloElem.from_rat(ratio(12, 2))
    assert (ZERO.n, ZERO.d) == ((0, 0, 0, 0), 1)
    assert ((half - half).n, (half - half).d) == ((0, 0, 0, 0), 1)
    assert ((half * 0).n, (half * 0).d) == ((0, 0, 0, 0), 1)
    assert (ratio(-3, 4) * ONE).inverse().d == 3
    rng = random.Random(17)
    for _ in range(200):
        a = rand_big(rng, rng.choice(KINDS))
        b = rand_big(rng, rng.choice(KINDS))
        for x in (a, b, a + b, a - b, b - a, -a, a * b, a.galois(2), a.galois(4)):
            assert_canonical(x)
        if not a.is_zero:
            assert_canonical(a.inverse())
            assert_canonical(b / a)


def test_ops_against_sympy_big():
    t = sympy.Symbol("t")
    rng = random.Random(23)
    for _ in range(60):
        a = rand_big(rng, rng.choice(KINDS))
        b = rand_big(rng, rng.choice(KINDS))
        pa, pb = sympy_elem(a), sympy_elem(b)
        assert a + b == from_sympy(pa + pb)
        assert a - b == from_sympy(pa - pb)
        assert a * b == from_sympy(sympy_reduce(pa * pb))
        for k in (2, 3, 4):
            image = sympy.Poly(pa.as_expr().subs(t, t**k), t, domain="QQ")
            assert a.galois(k) == from_sympy(sympy_reduce(image))
        if not a.is_zero:
            phi = sympy.Poly(t**4 + t**3 + t**2 + t + 1, t, domain="QQ")
            assert a.inverse() == from_sympy(pa.invert(phi))
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()


def test_equal_values_hash_equal():
    rng = random.Random(29)
    for _ in range(100):
        a, b, c = (rand_big(rng, rng.choice(KINDS)) for _ in range(3))
        pairs = [
            ((a * b) * c, a * (b * c)),
            (a + b - b, a),
            (CycloElem(a.c), a),
            (a.galois(2).galois(3), a),
        ]
        if not b.is_zero:
            pairs.append((a / b * b, a))
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
    r = ratio(-7, 3)
    same = [CycloElem.from_rat(r), CycloElem([r, 0, 0, 0]), ONE * r, ONE / ratio(-3, 7)]
    assert len(set(same)) == 1
    assert len({CycloElem.from_int(3), CycloElem([ratio(6, 2), 0, 0, 0]), ONE + 2}) == 1


def test_string_roundtrip_big():
    rng = random.Random(31)
    for _ in range(200):
        a = rand_big(rng, rng.choice(KINDS))
        assert parse_scalar(str(a)) == a


def test_float_coefficient_refused():
    with pytest.raises(TypeError):
        CycloElem([0.1, 0, 0, 0])
    with pytest.raises(TypeError):
        CycloElem([1, 0, 0, 2.0])
    with pytest.raises(TypeError):
        CycloElem.from_rat(0.5)
    with pytest.raises(TypeError):
        ONE + 0.5


def test_modular_products_match_exact_product():
    rng = random.Random(37)
    for m in (7, 13, 97, 13**4):
        ring = ZetaModM(m)
        for _ in range(100):
            a = rand_elem(rng, 10**6)
            b = rand_elem(rng, 10**6)
            if math.gcd(a.d * b.d, m) != 1:
                continue
            got = ring.mul(ring.from_cyclo(a), ring.from_cyclo(b))
            assert got == ring.from_cyclo(a * b)
            assert all(0 <= v < m for v in got)
            # the inverse of a unit mod m is the image of the exact inverse
            if math.gcd(a.d * a.inverse().d, m) == 1:
                assert ring.inv(ring.from_cyclo(a)) == ring.from_cyclo(a.inverse())
    with pytest.raises(ZeroDivisionError):
        ZetaModM(7).from_cyclo(CycloElem([ratio(1, 14), 0, 0, 0]))
    with pytest.raises(ZeroDivisionError):
        ZetaModM(13**2).from_cyclo(CycloElem([0, ratio(2, 13), 0, 0]))
    # 13 u is no unit mod 13^2 for any unit u
    ring = ZetaModM(13**2)
    with pytest.raises(ZeroDivisionError):
        ring.inv(ring.from_cyclo(13 * (ONE + E)))
    with pytest.raises(ZeroDivisionError):
        ring.inv(ring.zero)
