import random

import pytest

from cuspidal import modp, unipoly
from cuspidal.cyclofield import ALPHA, E, ONE, ZERO, CycloElem, ratio
from cuspidal.modp import rational_roots, roots_in_qz5
from cuspidal.multipoly import QZ5

# known roots in Q(zeta5), two of them irrational; 1/7 puts 7 in a denominator
ROOTS = [ALPHA, E - ratio(2, 3), CycloElem.from_rat(ratio(1, 7)), ONE * -3]


def with_known_roots():
    """prod (T - r) over ROOTS, times T^2 - 2, which has no root in Q(zeta5)."""
    f = [-2 * ONE, ZERO, ONE]
    for r in ROOTS:
        f = unipoly.mul(f, [-r, ONE], QZ5)
    return f


def test_roots_in_qz5_finds_exactly_the_known_roots():
    f = with_known_roots()
    found = roots_in_qz5(f)
    assert len(found) == len(ROOTS) and set(found) == set(ROOTS)
    for r in found:
        assert unipoly.eval_poly(f, r, QZ5).is_zero
        assert r * r != 2 * ONE
    # a nonzero scalar multiple has the same roots
    assert set(roots_in_qz5(unipoly.scale(f, 3 * E, QZ5))) == set(ROOTS)


def test_roots_in_qz5_constant_has_none():
    assert roots_in_qz5([5 * ALPHA]) == []
    assert roots_in_qz5([ONE, ZERO, ZERO]) == []
    assert roots_in_qz5([]) == []


def test_roots_in_qz5_honours_primes(monkeypatch):
    f = with_known_roots()
    monkeypatch.setattr(modp, "INERT_PRIMES", [13])
    assert set(roots_in_qz5(f)) == set(ROOTS)
    # 7 divides a coefficient's denominator, so no prime is usable
    monkeypatch.setattr(modp, "INERT_PRIMES", [7])
    assert roots_in_qz5(f) == []
    # the first usable prime of the list is the one used
    monkeypatch.setattr(modp, "INERT_PRIMES", [7, 17])
    assert set(roots_in_qz5(f)) == set(ROOTS)


SQRT5 = -1 - 2 * CycloElem.e_power(2) - 2 * CycloElem.e_power(3)


def test_rational_roots_square_root_of_five():
    roots, residual = rational_roots([-5 * ONE, ZERO, ONE])
    assert set(roots) == {SQRT5, -SQRT5}
    assert SQRT5 * SQRT5 == 5 * ONE
    assert residual == [ONE]


@pytest.mark.parametrize("c0", [-2, 1], ids=["T^2-2", "T^2+1"])
def test_rational_roots_none_in_qz5(c0):
    f = [c0 * ONE, ZERO, ONE]
    assert rational_roots(f) == ([], f)


def test_rational_roots_non_monic_linear_factor():
    # 2e T + 3: the linear factor's root, not assumed monic
    roots, residual = rational_roots([3 * ONE, 2 * E])
    assert roots == [-3 / (2 * E)]
    assert residual == [2 * E]


def test_rational_roots_peels_the_known_roots():
    # the scalar 3e stays on the residual T^2 - 2
    roots, residual = rational_roots(unipoly.scale(with_known_roots(), 3 * E, QZ5))
    assert len(roots) == len(ROOTS) and set(roots) == set(ROOTS)
    assert residual == unipoly.scale([-2 * ONE, ZERO, ONE], 3 * E, QZ5)


def test_rational_roots_without_a_usable_prime(monkeypatch):
    # a miss leaves the factor in the residual, never a wrong root; a
    # linear factor left over is still solved
    monkeypatch.setattr(modp, "INERT_PRIMES", [])
    f = unipoly.mul([-5 * ONE, ZERO, ONE], [ONE, 2 * ONE], QZ5)
    assert rational_roots(f) == ([], f)
    assert rational_roots([ONE, 2 * ONE]) == ([-ratio(1, 2) * ONE], [2 * ONE])


def test_rational_roots_lifts_past_a_false_reconstruction():
    # -176 r^2 + 372 r - 171 has the roots (93 +- 15 sqrt5)/88; at p = 7 the
    # first lift reconstructs -1 - 3e^2 - 3e^3, which is no root, and the
    # lift goes on until the reconstruction is one
    f = [-171 * ONE, 372 * ONE, -176 * ONE]
    roots, residual = rational_roots(f)
    want = {(93 + 15 * SQRT5) / 88, (93 - 15 * SQRT5) / 88}
    assert set(roots) == want and len(roots) == 2
    assert residual == [-176 * ONE]


def test_rational_roots_of_seeded_quadratics_over_q_sqrt5():
    # c (T - r)(T - r'), r = (a + b sqrt5)/q and r' its conjugate, has
    # its roots in Q(sqrt5): both are found and peeled
    rng = random.Random(3838)
    for _ in range(40):
        a, b = rng.randint(-200, 200), rng.choice([-1, 1]) * rng.randint(1, 60)
        q = rng.randint(1, 120)
        r, rbar = (a + b * SQRT5) / q, (a - b * SQRT5) / q
        c = ratio(rng.choice([-1, 1]) * rng.randint(1, 300), rng.randint(1, 30))
        f = unipoly.scale(unipoly.mul([-r, ONE], [-rbar, ONE], QZ5), c * ONE, QZ5)
        roots, residual = rational_roots(f)
        assert set(roots) == {r, rbar} and len(roots) == 2
        assert residual == [c * ONE]
