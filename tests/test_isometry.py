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
    signed_perm_matrix,
)
from isorbit import (
    DimensionMismatchError,
    InputError,
    InvalidRotationError,
    Isometry,
    NotAtomicError,
    SignedPermutation,
    validate_atomic,
)
from reference import apply, members


def test_apply_cyclic_shift_matches_matrix_oracle():
    r = SignedPermutation.permutation((2, 0, 1))
    assert r.apply((1, 2, 3)) == (3, 1, 2)
    assert mat_vec(signed_perm_matrix(r), (1, 2, 3)) == [3, 1, 2]


def test_apply_identity():
    assert apply(Isometry.identity(2), (5, -7)) == (5, -7)


def test_apply_shift_after_point_reflection():
    h = Isometry((1, 1), SignedPermutation.negation((-1, -1)))
    assert apply(h, (1, 0)) == (0, 1)


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(Isometry.identity(2), (1, 2, 3))


def test_squared_distance_is_preserved():
    rng = Random(107)
    for _ in range(100):
        n = rng.randint(1, 5)
        h = random_isometry(rng, n)
        x, y = random_point(rng, n), random_point(rng, n)
        hx, hy = apply(h, x), apply(h, y)
        assert sum((a - b) ** 2 for a, b in zip(hx, hy)) == \
            sum((a - b) ** 2 for a, b in zip(x, y))


def test_signed_permutation_matrix_is_orthogonal():
    rng = Random(108)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = signed_perm_matrix(random_signed_permutation(rng, n))
        assert mat_mul(mat_transpose(m), m) == identity_matrix(n)


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
    assert members(gens) == ()


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
