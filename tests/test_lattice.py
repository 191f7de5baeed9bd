import itertools
import json
import random

import pytest
import sympy

from cuspidal.lattice import (
    ASSUMPTIONS,
    PUBLISHED_MATRIX,
    PUBLISHED_NULLSPACE,
    IntersectionLattice,
    NoDivisibilityPattern,
    _relabel_index,
    det_int,
    divisibility_certificate,
    erratum_mismatches,
    find_divisibility_vector,
    mat_vec,
    match_published,
    nullspace_int,
    t3_corrections,
    t3_self_intersection,
)


def test_relabel_index_is_a_permutation():
    for perm in itertools.permutations(range(3)):
        for swaps in itertools.product((0, 1), repeat=3):
            for t_swap in (False, True):
                idx = _relabel_index(perm, swaps, t_swap)
                assert sorted(idx) == list(range(9))
    assert _relabel_index(range(3), (0, 0, 0), False) == list(range(9))


def test_det_int_against_sympy():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == int(sympy.Matrix(m).det())


def test_det_single_minus_two():
    assert det_int([[-2]]) == -2


def test_det_a2_blocks():
    # three disjoint [[-2,1],[1,-2]] blocks: det = 3^3 = 27
    m = [[0] * 6 for _ in range(6)]
    for i in range(3):
        m[2 * i][2 * i] = m[2 * i + 1][2 * i + 1] = -2
        m[2 * i][2 * i + 1] = m[2 * i + 1][2 * i] = 1
    assert det_int(m) == 27


def test_nullspace_identity_empty():
    assert nullspace_int([[1, 0], [0, 1]]) == []


def test_nullspace_zero_matrix():
    basis = nullspace_int([[0, 0], [0, 0]])
    assert len(basis) == 2


def test_published_matrix_nullspace():
    m = PUBLISHED_MATRIX
    assert det_int(m) == 0
    basis = nullspace_int(m)
    assert len(basis) == 1
    v = basis[0]
    assert v == list(PUBLISHED_NULLSPACE) or v == [-x for x in PUBLISHED_NULLSPACE]
    assert all(x == 0 for x in mat_vec(m, v))


def test_nullspace_primitive_and_sign():
    basis = nullspace_int([[2, -4], [1, -2]])
    assert basis == [[2, 1]]


def test_divisibility_certificate_published_vector():
    lat = IntersectionLattice(PUBLISHED_MATRIX)
    cert = divisibility_certificate(lat, list(PUBLISHED_NULLSPACE))
    # the third cusp pair needs the swap; mod-3 reduction as in the source
    assert cert.swaps == (0, 0, 1)
    assert list(cert.mod3) == [2, 1, 2, 1, 2, 1, 0, 0, 0]
    assert cert.relation_text() == "2*A1 + A1' + 2*A2 + A2' + A3 + 2*A3' == 3*L"
    assert cert.assumptions == ASSUMPTIONS


def test_certificate_replay_soundness():
    lat = IntersectionLattice(PUBLISHED_MATRIX)
    cert = divisibility_certificate(lat, list(PUBLISHED_NULLSPACE))
    # exact integer identity: swapped vector = pattern + 3 M
    pattern = [2, 1, 2, 1, 2, 1, 0, 0, 0]
    lhs = [p + 3 * m for p, m in zip(pattern, cert.M)]
    assert lhs == list(cert.vector)


def test_pattern_failure():
    zero = [[0] * 9 for _ in range(9)]
    lat = IntersectionLattice(zero)
    with pytest.raises(NoDivisibilityPattern):
        divisibility_certificate(lat, [3, 3, 3, 3, 3, 3, 0, 0, 0])


def test_pattern_immediate():
    zero = [[0] * 9 for _ in range(9)]
    lat = IntersectionLattice(zero)
    cert = divisibility_certificate(lat, [2, 1, 2, 1, 2, 1, 0, 0, 0])
    assert cert.swaps == (0, 0, 0)


def test_certificate_requires_nullspace_vector():
    lat = IntersectionLattice(PUBLISHED_MATRIX)
    with pytest.raises(ValueError):
        divisibility_certificate(lat, [1] + [0] * 8)


def test_find_vector_propagates_basis_outside_nullspace():
    # combinations of a true nullspace basis never leave the nullspace, so
    # a bad basis is a bug to report, not a missing pattern
    lat = IntersectionLattice(PUBLISHED_MATRIX)
    with pytest.raises(ValueError):
        find_divisibility_vector(lat, [[1] + [0] * 8])


def test_t3_projection_formula_on_published_row():
    row = PUBLISHED_MATRIX[8]
    corr = t3_corrections(row)
    assert corr == [(2, 2), (1, 1), (2, 2)]
    assert t3_self_intersection(row) == 7
    # T3.Tj = 5 K_Z.Tj - E'.Tj with K_Z.Tj = 2 (orbits of five conics,
    # H.C = 2, divided by the group order) reproduces the published zeros
    for j in (6, 7):
        e_dot = sum(
            a * PUBLISHED_MATRIX[2 * i][j] + b * PUBLISHED_MATRIX[2 * i + 1][j]
            for i, (a, b) in enumerate(corr)
        )
        assert 5 * 2 - e_dot == row[j] == 0
    # the display itself fails the criterion-8 comparison at (T3,T3) only
    assert erratum_mismatches(PUBLISHED_MATRIX) == [(8, 8)]


def test_t3_corrections_reject_non_integral_row():
    row = list(PUBLISHED_MATRIX[8])
    row[0] += 1
    with pytest.raises(ValueError):
        t3_corrections(row)
    with pytest.raises(ValueError):
        t3_self_intersection(row)


def test_erratum_mismatches_sees_every_entry():
    expected = [row[:] for row in PUBLISHED_MATRIX]
    expected[8][8] = t3_self_intersection(PUBLISHED_MATRIX[8])
    assert erratum_mismatches(expected) == []
    for i in range(9):
        for j in range(9):
            drifted = [row[:] for row in expected]
            drifted[i][j] += 1
            assert erratum_mismatches(drifted) == [(i, j)]


def test_match_published_identity_and_permuted():
    found = match_published(PUBLISHED_MATRIX)
    assert found is not None
    assert found["cusp_permutation"] == [0, 1, 2]
    lat = IntersectionLattice(PUBLISHED_MATRIX)
    shuffled = lat.relabelled([2, 0, 1], [1, 0, 1], True)
    found2 = match_published(shuffled.matrix)
    assert found2 is not None
    back = IntersectionLattice(shuffled.matrix).relabelled(
        found2["cusp_permutation"],
        found2["per_cusp_swaps"],
        found2["t1_t2_swap"],
    )
    assert back.matrix == PUBLISHED_MATRIX


def test_relabelling_invariance_of_certificate(new_divisibility):
    # the certificate verdict is invariant under any initial labelling
    lat = new_divisibility.lattice
    rng = random.Random(12)
    for _ in range(4):
        perm = list(range(3))
        rng.shuffle(perm)
        swaps = [rng.randint(0, 1) for _ in range(3)]
        tsw = bool(rng.randint(0, 1))
        relab = lat.relabelled(perm, swaps, tsw)
        basis = nullspace_int(relab.matrix)
        vec, cert = find_divisibility_vector(relab, basis)
        assert cert.relation_text().endswith("== 3*L")


def test_assembled_lattice_a_block(new_divisibility):
    m = new_divisibility.lattice.matrix
    for i in range(3):
        assert m[2 * i][2 * i] == -2
        assert m[2 * i + 1][2 * i + 1] == -2
        assert m[2 * i][2 * i + 1] == 1
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1 or (i // 2 != j // 2):
                assert m[i][j] == 0


def test_new_quintic_lattice_vs_published(new_divisibility):
    # every entry matches the published display except the single
    # (T3, T3) diagonal slot, where the exact computation gives the value
    # the published T3 row forces through the projection formula
    # (docs/DECISIONS.md), and the certificate vector is exactly the
    # published one
    lat = new_divisibility.lattice
    assert lat.determinant() == 0
    mism = [
        (i, j)
        for i in range(9)
        for j in range(9)
        if lat.matrix[i][j] != PUBLISHED_MATRIX[i][j]
    ]
    assert mism == [(8, 8)]
    assert lat.matrix[8][8] == t3_self_intersection(PUBLISHED_MATRIX[8])
    assert list(new_divisibility.vector) == list(PUBLISHED_NULLSPACE)
    assert new_divisibility.certificate.swaps == (0, 0, 1)


def test_vdgz_lattice_certificate(vdgz_divisibility):
    lat = vdgz_divisibility.lattice
    assert lat.determinant() == 0
    assert len(vdgz_divisibility.nullspace_basis) == 1
    cert = vdgz_divisibility.certificate
    assert cert.relation_text().endswith("== 3*L")
    # sum over cusps of (2,1)-pattern coefficients: the Barth relation
    assert list(cert.mod3)[6:] == [0, 0, 0]


def test_lattice_json_schema(new_divisibility):
    import jsonschema

    from cuspidal.schemas import DIVISIBILITY_CERTIFICATE_SCHEMA

    # the report the divisibility command prints, with and without the
    # audit transcripts, serialised as the command serialises it
    for transcript in (False, True):
        text = json.dumps(new_divisibility.to_json(transcript), default=str)
        jsonschema.validate(json.loads(text), DIVISIBILITY_CERTIFICATE_SCHEMA)
