import random

import pytest

from cuspidal import unipoly
from cuspidal.cyclofield import ALPHA, CycloElem, ratio
from cuspidal.extfield import (
    BASE_TOWER,
    SplitEvent,
    ext_invert_or_split,
)


def tower_sqrt2():
    # (b, b^2 - 2): irreducible over Q(zeta5)
    base = BASE_TOWER
    return base.adjoin("b", [base.coerce(-2), base.zero, base.one])


def tower_b2_minus_b():
    base = BASE_TOWER
    return base.adjoin("b", [base.zero, base.coerce(-1), base.one])


def tower_golden():
    # (b, b^2 + b - 1): reducible over Q(zeta5) (roots are -1-alpha and alpha... )
    base = BASE_TOWER
    return base.adjoin("b", [base.coerce(-1), base.one, base.one])


def test_invert_constant_no_split():
    t = tower_sqrt2()
    inv = t.inv(t.coerce(2))
    assert t.eq(t.mul(inv, t.coerce(2)), t.one)


def test_invert_generator_sqrt2():
    t = tower_sqrt2()
    b = t.gen()
    inv = t.inv(b)
    assert t.eq(t.mul(inv, b), t.one)
    # b * b = 2
    assert t.eq(t.mul(b, b), t.coerce(2))


def test_zero_divisor_splits():
    t = tower_b2_minus_b()
    b = t.gen()
    bad = t.sub(b, t.one)  # b - 1 vanishes on the branch b = 1
    res = ext_invert_or_split(t, bad)
    assert isinstance(res, SplitEvent)
    assert len(res.branches) == 2
    # product of branch minpolys equals the original b^2 - b
    mps = [list(br.minpoly) for br in res.branches]
    prod = unipoly.mul(mps[0], mps[1], BASE_TOWER)
    orig = [BASE_TOWER.zero, BASE_TOWER.coerce(-1), BASE_TOWER.one]
    assert all(BASE_TOWER.eq(a, b2) for a, b2 in zip(prod, orig))
    # branches are b = 0 and b = 1
    roots = sorted(str(-mp[0]) for mp in mps)
    assert roots == ["0", "1"]


def test_identically_zero_raises():
    t = tower_b2_minus_b()
    with pytest.raises(ZeroDivisionError):
        ext_invert_or_split(t, t.zero)


def test_invert_unit_in_reducible_tower():
    t = tower_golden()
    b = t.gen()
    u = t.add(b, t.coerce(2))  # gcd(b+2, b^2+b-1) = 1
    inv = ext_invert_or_split(t, u)
    assert not isinstance(inv, SplitEvent)
    assert t.eq(t.mul(inv, u), t.one)


def test_golden_tower_splits_linear_when_forced():
    # inverting b - alpha forces the factorization of b^2 + b - 1
    t = tower_golden()
    b = t.gen()
    bad = t.sub(b, t.coerce(ALPHA))
    res = ext_invert_or_split(t, bad)
    assert isinstance(res, SplitEvent)
    degs = sorted(br.degree() for br in res.branches)
    assert degs == [1, 1]


def test_degree_additivity_after_split():
    t = tower_b2_minus_b()
    res = ext_invert_or_split(t, t.sub(t.gen(), t.one))
    assert isinstance(res, SplitEvent)
    assert sum(br.degree() for br in res.branches) == t.degree()


def test_field_axioms_random_tower():
    rng = random.Random(77)
    t = tower_sqrt2()

    def rand_elem():
        return (
            CycloElem([ratio(rng.randint(-4, 4)) for _ in range(4)]),
            CycloElem([ratio(rng.randint(-4, 4)) for _ in range(4)]),
        )

    for _ in range(200):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert t.eq(t.add(t.add(a, b), c), t.add(a, t.add(b, c)))
        assert t.eq(t.mul(t.mul(a, b), c), t.mul(a, t.mul(b, c)))
        assert t.eq(
            t.mul(a, t.add(b, c)), t.add(t.mul(a, b), t.mul(a, c))
        )
    for _ in range(60):
        a = rand_elem()
        if not t.is_zero(a):
            assert t.eq(t.mul(a, t.inv(a)), t.one)


def test_adjoin_rejects_non_squarefree():
    base = BASE_TOWER
    with pytest.raises(ValueError):
        # (b - 1)^2 = b^2 - 2b + 1
        base.adjoin("b", [base.one, base.coerce(-2), base.one])


def test_split_branches_are_extensions_of_the_base():
    # each branch of b^2 - b is a degree-1 extension in which b^2 = b
    # still holds, with b = 0 in one and b = 1 in the other; only the
    # base adjoins
    t = tower_b2_minus_b()
    res = ext_invert_or_split(t, t.sub(t.gen(), t.one))
    for br in res.branches:
        b = br.gen()
        assert br.is_zero(br.sub(br.mul(b, b), b))
        assert not hasattr(br, "adjoin")
    assert sorted(str(br.gen()[0]) for br in res.branches) == ["0", "1"]
