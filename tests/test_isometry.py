from random import Random

import pytest

from conftest import (
    identity_matrix,
    mat_mul,
    mat_transpose,
    mat_vec,
    random_isometry,
    random_point,
    random_signed_permutation,
)
from isorbit import (
    DimensionMismatchError,
    InputError,
    InvalidRotationError,
    Isometry,
    NotAtomicError,
    SignedPermutation,
    conjugate,
    project_components,
    validate_atomic,
)


def test_apply_cyclic_shift_matches_matrix_oracle():
    r = SignedPermutation.permutation((2, 0, 1))
    assert r.apply((1, 2, 3)) == (3, 1, 2)
    assert mat_vec(r.matrix(), (1, 2, 3)) == [3, 1, 2]


def test_apply_identity():
    assert Isometry.identity(2).apply((5, -7)) == (5, -7)


def test_apply_shift_after_point_reflection():
    h = Isometry((1, 1), SignedPermutation.negation((-1, -1)))
    assert h.apply((1, 0)) == (0, 1)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Isometry.identity(2).apply((1, 2, 3))


def test_compose_matches_sequential_apply():
    rng = Random(101)
    for _ in range(100):
        n = rng.randint(1, 4)
        h1, h2 = random_isometry(rng, n), random_isometry(rng, n)
        x = random_point(rng, n)
        assert h1.compose(h2).apply(x) == h1.apply(h2.apply(x))


def test_compose_two_point_reflections_is_translation():
    neg = SignedPermutation.negation((-1, -1))
    h1 = Isometry((1, 1), neg)
    h2 = Isometry((0, 2), neg)
    assert h1.compose(h2) == Isometry.translation((1, -1))


def test_compose_with_identity_and_inverse():
    rng = Random(102)
    for _ in range(50):
        h = random_isometry(rng, 3)
        assert h.compose(Isometry.identity(3)) == h
        assert h.compose(h.invert()).is_identity()
        assert h.invert().compose(h).is_identity()


def test_invert_translation():
    assert Isometry.translation((3, -2)).invert() == Isometry.translation((-3, 2))


def test_invert_negation_is_involution():
    h = Isometry.rotation(SignedPermutation.negation((-1, 1)))
    assert h.invert() == h


def test_invert_swap_with_offset():
    h = Isometry((1, 0), SignedPermutation.permutation((1, 0)))
    assert h.invert() == Isometry((0, -1), SignedPermutation.permutation((1, 0)))
    assert h.compose(h.invert()).is_identity()


def test_invert_round_trips_points():
    rng = Random(103)
    for _ in range(100):
        n = rng.randint(1, 5)
        h = random_isometry(rng, n)
        x = random_point(rng, n)
        assert h.invert().apply(h.apply(x)) == x


def test_project_components_mixed():
    h = Isometry((2, 0), SignedPermutation((-1, 1), (1, 0)))
    t, r, neg, perm = project_components(h)
    assert t == Isometry.translation((2, 0))
    assert r == Isometry.rotation(h.r)
    assert neg == Isometry.rotation(SignedPermutation.negation((-1, 1)))
    assert perm == Isometry.rotation(SignedPermutation.permutation((1, 0)))
    recomposed = t.compose(neg).compose(perm)
    assert recomposed == h


def test_project_components_pure_translation():
    h = Isometry.translation((4, -1))
    t, r, neg, perm = project_components(h)
    assert t == h
    assert r.is_identity() and neg.is_identity() and perm.is_identity()


def test_project_components_identity():
    parts = project_components(Isometry.identity(3))
    assert all(p.is_identity() for p in parts)


def test_project_components_recompose_on_random_points():
    rng = Random(104)
    for _ in range(20):
        n = rng.randint(1, 4)
        h = random_isometry(rng, n)
        t, _, neg, perm = project_components(h)
        recomposed = t.compose(neg).compose(perm)
        for _ in range(5):
            x = random_point(rng, n)
            assert recomposed.apply(x) == h.apply(x)


def test_conjugate_translation_by_swap():
    got = conjugate(Isometry.translation((1, 0)),
                    Isometry.rotation(SignedPermutation.permutation((1, 0))))
    assert got == Isometry.translation((0, 1))


def test_conjugate_translation_is_rotated_vector():
    rng = Random(105)
    for _ in range(50):
        n = rng.randint(1, 4)
        v = random_point(rng, n)
        r = random_signed_permutation(rng, n)
        got = conjugate(Isometry.translation(v), Isometry.rotation(r))
        assert got == Isometry.translation(r.apply(v))


def test_conjugate_negation_by_permutation_matches_matrix_product():
    a = Isometry.rotation(SignedPermutation.negation((-1, 1, -1)))
    b = Isometry.rotation(SignedPermutation.permutation((1, 0, 2)))
    got = conjugate(a, b)
    product = mat_mul(mat_mul(b.r.matrix(), a.r.matrix()), b.r.inverse().matrix())
    assert got.v == (0, 0, 0)
    assert got.r.matrix() == product
    assert got == Isometry.rotation(SignedPermutation.negation((1, -1, -1)))


def test_conjugate_by_identity():
    rng = Random(106)
    for _ in range(20):
        a = random_isometry(rng, 3)
        assert conjugate(a, Isometry.identity(3)) == a


def test_squared_distance_is_preserved():
    rng = Random(107)
    for _ in range(100):
        n = rng.randint(1, 5)
        h = random_isometry(rng, n)
        x, y = random_point(rng, n), random_point(rng, n)
        hx, hy = h.apply(x), h.apply(y)
        assert sum((a - b) ** 2 for a, b in zip(hx, hy)) == \
            sum((a - b) ** 2 for a, b in zip(x, y))


def test_signed_permutation_matrix_is_orthogonal():
    rng = Random(108)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = random_signed_permutation(rng, n).matrix()
        assert mat_mul(mat_transpose(m), m) == identity_matrix(n)


def test_negation_permutation_split_is_consistent():
    rng = Random(109)
    for _ in range(50):
        r = random_signed_permutation(rng, rng.randint(1, 5))
        neg, perm = r.negation_part(), r.permutation_part()
        assert neg.is_negation() and perm.is_permutation()
        assert neg.compose(perm) == r


def test_validate_atomic_partitions_pure_generators():
    gens = validate_atomic(
        [Isometry.translation((1, 1)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))],
        2)
    assert gens.translations == (Isometry.translation((1, 1)),)
    assert gens.negations == (Isometry.rotation(SignedPermutation.negation((-1, -1))),)
    assert gens.permutations == ()


def test_validate_atomic_empty():
    gens = validate_atomic([], 3)
    assert gens.members() == ()


def test_validate_atomic_rejects_mixed_generator():
    mixed = Isometry((1, 0), SignedPermutation.permutation((1, 0)))
    with pytest.raises(NotAtomicError):
        validate_atomic([mixed], 2)


def test_validate_atomic_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_atomic([Isometry.translation((1, 0, 0))], 2)


def test_validate_atomic_identity_counts_as_translation():
    gens = validate_atomic([Isometry.identity(2)], 2)
    assert gens.translations == (Isometry.identity(2),)
    assert gens.negations == () and gens.permutations == ()


def test_validate_atomic_dedupes():
    g = Isometry.translation((1, 1))
    gens = validate_atomic([g, g, g], 2)
    assert gens.translations == (g,)


def test_invalid_rotation_constructions():
    with pytest.raises(InvalidRotationError):
        SignedPermutation((2, 1), (0, 1))
    with pytest.raises(InvalidRotationError):
        SignedPermutation((1, 1), (0, 0))
    with pytest.raises(InvalidRotationError):
        SignedPermutation((1,), (0, 1))


def test_non_integer_entries_are_rejected_not_truncated():
    # int() used to make (0.5, 0) the identity translation and (0.9, 1) the
    # identity permutation, so compute_orbits returned a wrong partition
    with pytest.raises(InputError, match="0.5"):
        validate_atomic([Isometry.translation((0.5, 0))], 2)
    with pytest.raises(InvalidRotationError, match="0.9"):
        SignedPermutation.permutation((0.9, 1))
    with pytest.raises(InvalidRotationError, match="True"):
        SignedPermutation.negation((True, -1))
