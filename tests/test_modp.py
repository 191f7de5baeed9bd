from cuspidal import unipoly
from cuspidal.cyclofield import ALPHA, E, ONE, ZERO, CycloElem, ratio
from cuspidal.modp import roots_in_qz5
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


def test_roots_in_qz5_honours_primes():
    f = with_known_roots()
    assert set(roots_in_qz5(f, primes=[13])) == set(ROOTS)
    # 7 divides a coefficient's denominator, so no prime is usable
    assert roots_in_qz5(f, primes=[7]) == []
    # the first usable prime of the list is the one used
    assert set(roots_in_qz5(f, primes=[7, 17])) == set(ROOTS)
