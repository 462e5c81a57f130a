import itertools
from random import Random

import pytest

from conftest import exact_lattice_member, random_signed_permutation
from isorbit import (
    DimensionMismatchError,
    InputError,
    IterationCapExceededError,
    SignedPermutation,
    hnf_reduce,
    translation_basis_from_generators,
)
from isorbit.permgroup import DEFAULT_MAX_DIMENSION
from reference import (
    assemble_rotation_group,
    enumerate_negations,
    generate_perm_group,
    lattice_contains,
    negation_basis_from_group,
    translation_basis_from_group,
)


def span_in_box(rows, bound, coeff_bound=15):
    """Brute-force lattice points inside [-bound, bound]^n (oracle).

    Enumerates integer coefficient vectors; the range is generous enough for
    the small instances used here.
    """
    n = len(rows[0])
    pts = set()
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(rows)):
        p = tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n))
        if all(abs(x) <= bound for x in p):
            pts.add(p)
    return pts


def test_hnf_frozen_example_and_membership_oracle():
    basis = hnf_reduce([(2, 0), (0, 2), (1, 1)], 2)
    assert basis.hnf_rows == ((1, 1), (0, 2))
    assert basis.m == 2
    expected = span_in_box([(2, 0), (0, 2), (1, 1)], 6)
    for p in itertools.product(range(-6, 7), repeat=2):
        assert lattice_contains(basis, p) == (p in expected)


def test_hnf_empty_and_zero_rows():
    assert hnf_reduce([], 3).m == 0
    assert hnf_reduce([(0, 0, 0)], 3).m == 0


def test_hnf_canonical_under_shuffles_and_combinations():
    rng = Random(501)
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-9, 9) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        reference = hnf_reduce(rows, n)
        assert reference.m <= n
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hnf_reduce(shuffled, n) == reference
        coeffs = [rng.randint(-3, 3) for _ in rows]
        combo = tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n))
        assert hnf_reduce(rows + [combo], n) == reference


def test_hnf_shape_invariants():
    rng = Random(502)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-9, 9) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        basis = hnf_reduce(rows, n)
        pivots = []
        for row in basis.hnf_rows:
            c = next(i for i, x in enumerate(row) if x)
            assert row[c] > 0
            pivots.append(c)
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for k, c in enumerate(pivots):
            for j in range(k):
                assert 0 <= basis.hnf_rows[j][c] < basis.hnf_rows[k][c]
            for j in range(k + 1, basis.m):
                assert basis.hnf_rows[j][c] == 0


def test_membership_against_rational_solve():
    rng = Random(503)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n))
                for _ in range(rng.randint(0, 4))]
        basis = hnf_reduce(rows, n)
        for _ in range(10):
            if basis.m and rng.random() < 0.5:
                coeffs = [rng.randint(-4, 4) for _ in range(basis.m)]
                v = tuple(sum(c * r[k] for c, r in zip(coeffs, basis.hnf_rows))
                          for k in range(n))
            else:
                v = tuple(rng.randint(-8, 8) for _ in range(n))
            assert lattice_contains(basis, v) == exact_lattice_member(basis.hnf_rows, v)


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        lattice_contains(hnf_reduce([(1, 0)], 2), (1, 0, 0))


def test_hnf_row_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        hnf_reduce([(1, 0, 0)], 2)


def test_hnf_rejects_non_integer_entries():
    # int() used to truncate 2.7 to 2, a different lattice; a float zero row
    # is rejected too, not dropped as zero
    with pytest.raises(InputError, match="2.7"):
        hnf_reduce([(2.7, 0)], 2)
    with pytest.raises(InputError, match="0.0"):
        hnf_reduce([(1, 0), (0.0, 0)], 2)


def test_group_variant_swap_doubles_the_lattice():
    rot = [SignedPermutation.identity(2), SignedPermutation.permutation((1, 0))]
    basis = translation_basis_from_group([(2, 0)], rot, 2)
    assert basis.hnf_rows == ((2, 0), (0, 2))
    expected = span_in_box([(2, 0), (0, 2)], 6)
    for p in itertools.product(range(-6, 7), repeat=2):
        assert lattice_contains(basis, p) == (p in expected)


def test_group_variant_empty_translations():
    basis = translation_basis_from_group([], [SignedPermutation.identity(2)], 2)
    assert basis.m == 0


def test_group_variant_point_reflection_is_redundant():
    rot = [SignedPermutation.identity(2), SignedPermutation.negation((-1, -1))]
    basis = translation_basis_from_group([(1, 1)], rot, 2)
    assert basis.hnf_rows == ((1, 1),)
    assert lattice_contains(basis, (-1, -1)) and not lattice_contains(basis, (1, 0))


def test_generators_variant_cyclic_shift_fills_space():
    basis = translation_basis_from_generators(
        [(1, 0, 0)], [SignedPermutation.permutation((2, 0, 1))], 3)
    assert basis.hnf_rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_generators_variant_without_rotations():
    basis = translation_basis_from_generators([(2, 2)], [], 2)
    assert basis.hnf_rows == ((2, 2),)


def test_generators_variant_iteration_cap():
    with pytest.raises(IterationCapExceededError):
        translation_basis_from_generators(
            [(1, 0, 0)], [SignedPermutation.permutation((2, 0, 1))], 3,
            max_iterations=1)


@pytest.mark.parametrize("n", [10, 16, DEFAULT_MAX_DIMENSION])
@pytest.mark.parametrize("shape", ["e0 + cycle", "e0 + swap + cycle + flip", "big + cycle"])
def test_generators_variant_settles_far_below_the_cap(n, shape):
    # n + 1 passes suffice, against the default cap of 64 * n, up to the
    # default permutation-group dimension
    cycle = SignedPermutation.permutation(tuple((i + 1) % n for i in range(n)))
    swap = SignedPermutation.permutation((1, 0) + tuple(range(2, n)))
    flip = SignedPermutation.negation((-1,) + (1,) * (n - 1))
    e0 = (1,) + (0,) * (n - 1)
    vectors, rotations = {
        "e0 + cycle": ([e0], [cycle]),
        "e0 + swap + cycle + flip": ([e0], [swap, cycle, flip]),
        "big + cycle": ([(2 ** 200 + 1, 3 ** 100) + (0,) * (n - 2)], [cycle]),
    }[shape]
    basis = translation_basis_from_generators(vectors, rotations, n, max_iterations=n + 1)
    assert basis == translation_basis_from_generators(vectors, rotations, n)
    assert basis.m == n


def _random_rotation_generators(rng, n, count):
    gens = []
    for _ in range(count):
        if rng.random() < 0.5:
            gens.append(SignedPermutation.negation(
                tuple(rng.choice((1, -1)) for _ in range(n))))
        else:
            p = list(range(n))
            rng.shuffle(p)
            gens.append(SignedPermutation.permutation(tuple(p)))
    return gens


def _closure_of(rot_gens, n):
    perm_gens = [g.perm for g in rot_gens if g.is_permutation()]
    neg_gens = [g for g in rot_gens if g.is_negation()]
    perm_group = generate_perm_group(perm_gens, n)
    neg_basis = negation_basis_from_group(neg_gens, perm_group.elements, n)
    return assemble_rotation_group(enumerate_negations(neg_basis), perm_group)


def test_variants_agree_on_random_instances():
    rng = Random(504)
    for _ in range(40):
        n = rng.randint(1, 5)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(n))
                   for _ in range(rng.randint(0, 4))]
        rot_gens = _random_rotation_generators(rng, n, rng.randint(0, 3))
        rot = _closure_of(rot_gens, n)
        standard = translation_basis_from_group(vectors, rot.elements, n)
        incremental = translation_basis_from_generators(vectors, rot_gens, n)
        assert standard == incremental
        # the result is stable under every rotation of the generated subgroup
        for r in rot.elements:
            for b in standard.hnf_rows:
                assert lattice_contains(standard, r.apply(b))
