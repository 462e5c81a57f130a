from fractions import Fraction
from random import Random

import pytest

from conftest import _solve_fractions
from isorbit import (
    DimensionMismatchError,
    InputError,
    Isometry,
    compute_orbits,
    hnf_reduce,
    reduce_points,
    validate_atomic,
)
from reference import (
    build_pseudoinverse,
    coefficient_numerators,
    floor_ratio,
    lattice_contains,
    pinv_reduce_mod_lattice,
    reduce_mod_lattice,
)


def coefficients_oracle(rows, x):
    """Exact rational coefficients of x over the basis rows (normal equations)."""
    gram = [[Fraction(sum(a * b for a, b in zip(ri, rj))) for rj in rows] for ri in rows]
    rhs = [Fraction(sum(a * b for a, b in zip(ri, x))) for ri in rows]
    return _solve_fractions(gram, rhs)


def pivots(basis):
    """(column, pivot) of each Hermite row, read off the rows directly."""
    out = []
    for row in basis.hnf_rows:
        c = next(i for i, b in enumerate(row) if b)
        out.append((c, row[c]))
    return out


def test_floor_ratio():
    assert floor_ratio(7, 2) == 3
    assert floor_ratio(-7, 2) == -4
    assert floor_ratio(-8, 2) == -4
    assert floor_ratio(8, 2) == 4
    assert floor_ratio(0, 5) == 0
    assert floor_ratio(-1, 3) == -1


def test_pseudoinverse_is_left_inverse_scaled():
    basis = hnf_reduce([(2, 0), (0, 2)], 2)
    pinv = build_pseudoinverse(basis)
    # M * B == gram_det * identity, B's columns being the Hermite rows
    for i in range(pinv.m):
        for j in range(basis.m):
            got = sum(pinv.adjugate_product[i][k] * basis.hnf_rows[j][k] for k in range(2))
            assert got == pinv.gram_det * int(i == j)
    # and the encoded map is halving: coefficients of x are x/2
    assert coefficient_numerators(pinv, (3, -1)) == \
        (pinv.gram_det * 3 // 2, pinv.gram_det * -1 // 2)


def test_pseudoinverse_empty_basis():
    basis = hnf_reduce([], 2)
    pinv = build_pseudoinverse(basis)
    assert pinv.m == 0 and pinv.gram_det == 1 and pinv.adjugate_product == ()
    assert pinv_reduce_mod_lattice(pinv, basis, (7, -3)) == (7, -3)


def test_pseudoinverse_rectangular_coefficients_exact():
    basis = hnf_reduce([(1, 1), (0, 2)], 2)
    pinv = build_pseudoinverse(basis)
    nums = coefficient_numerators(pinv, (2, 3))
    d = pinv.gram_det
    assert (Fraction(nums[0], d), Fraction(nums[1], d)) == (Fraction(2), Fraction(1, 2))
    assert coefficients_oracle(basis.hnf_rows, (2, 3)) == [Fraction(2), Fraction(1, 2)]


def test_pseudoinverse_left_inverse_on_random_bases():
    rng = Random(601)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n))
                for _ in range(rng.randint(0, n))]
        basis = hnf_reduce(rows, n)
        pinv = build_pseudoinverse(basis)
        assert pinv.gram_det > 0
        for i in range(pinv.m):
            for j in range(basis.m):
                got = sum(pinv.adjugate_product[i][k] * basis.hnf_rows[j][k]
                          for k in range(n))
                assert got == pinv.gram_det * int(i == j)


def test_reduce_empty_basis_is_identity():
    basis = hnf_reduce([], 2)
    assert basis.echelon == ()
    assert reduce_mod_lattice(basis, (7, -3)) == (7, -3)
    # Z^0 has no coordinate columns, and its one point is its own representative
    assert reduce_points(hnf_reduce([], 0), [(), ()]) == ({()}, {(): ()})


def test_reduce_scaled_identity():
    basis = hnf_reduce([(2, 0), (0, 2)], 2)
    assert reduce_mod_lattice(basis, (3, -1)) == (1, 1)


def test_reduce_skew_basis():
    basis = hnf_reduce([(1, 1), (0, 2)], 2)
    assert reduce_mod_lattice(basis, (2, 3)) == (0, 1)


def test_reduce_rank_deficient_zeroes_the_pivot():
    # Z(2, 1) in Z^2: pivot 2 in column 0, so the first coordinate lands in [0, 2)
    basis = hnf_reduce([(2, 1)], 2)
    assert reduce_mod_lattice(basis, (5, 0)) == (1, -2)
    assert reduce_mod_lattice(basis, (-1, 4)) == (1, 5)


def test_reduce_dimension_mismatch():
    basis = hnf_reduce([(1, 1)], 2)
    with pytest.raises(DimensionMismatchError):
        reduce_mod_lattice(basis, (1, 2, 3))
    with pytest.raises(DimensionMismatchError):
        reduce_points(basis, [(0, 0), (1, 2, 3)])


def test_reduce_properties_on_random_instances():
    rng = Random(602)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(0, n))]
        basis = hnf_reduce(rows, n)
        for _ in range(10):
            x = tuple(rng.randint(-20, 20) for _ in range(n))
            rep = reduce_mod_lattice(basis, x)
            # idempotent
            assert reduce_mod_lattice(basis, rep) == rep
            # difference is a lattice member
            assert lattice_contains(basis, tuple(a - b for a, b in zip(x, rep)))
            # representative pivot coordinates lie in [0, pivot)
            for c, p in pivots(basis):
                assert 0 <= rep[c] < p
            # shifting by any lattice vector does not change the representative
            mu = [rng.randint(-3, 3) for _ in range(basis.m)]
            shifted = tuple(
                xi + sum(m * row[k] for m, row in zip(mu, basis.hnf_rows))
                for k, xi in enumerate(x))
            assert reduce_mod_lattice(basis, shifted) == rep


def test_equal_representatives_imply_lattice_difference():
    rng = Random(603)
    basis = hnf_reduce([(2, 1), (0, 3)], 2)
    buckets = {}
    for _ in range(300):
        x = (rng.randint(-15, 15), rng.randint(-15, 15))
        buckets.setdefault(reduce_mod_lattice(basis, x), []).append(x)
    for rep, members in buckets.items():
        for x in members:
            assert lattice_contains(basis, tuple(a - b for a, b in zip(x, rep)))
            assert lattice_contains(basis, tuple(a - b for a, b in zip(x, members[0])))


def test_reduce_points_example():
    basis = hnf_reduce([(1, 1)], 2)
    reps, assignment = reduce_points(basis, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert reps == {(0, 0), (0, -1), (0, 1)}
    assert assignment[(1, 1)] == (0, 0)
    assert assignment[(0, 0)] == (0, 0)
    assert assignment[(1, 0)] == (0, -1)


def test_reduce_points_empty_and_duplicates():
    basis = hnf_reduce([(1, 1)], 2)
    reps, assignment = reduce_points(basis, [])
    assert reps == set() and assignment == {}
    reps2, assignment2 = reduce_points(basis, [(5, 5), (5, 5)])
    assert len(assignment2) == 1 and reps2 == {(0, 0)}


def test_reduce_points_ragged_input_is_rejected_not_truncated():
    # zip over the points would stop at the shortest one; the dimension check
    # runs first, on every point, and names the first bad one by its index
    basis = hnf_reduce([(1, 1)], 2)
    with pytest.raises(DimensionMismatchError) as info:
        reduce_points(basis, [(0, 0), (1, 2, 3), (4, 5), (6,)])
    assert str(info.value) == "point 1: (1, 2, 3) has dimension 3, expected 2"
    with pytest.raises(DimensionMismatchError) as info:
        reduce_points(basis, iter([[0, 0], [0, 0], [1]]))
    assert str(info.value) == "point 2: (1,) has dimension 1, expected 2"


def test_reduce_points_first_seen_order_and_shared_representatives():
    basis = hnf_reduce([(3, 0), (0, 3)], 2)
    points = [(4, 4), (1, 1), (-2, 7), (4, 4), (0, 0), (1, 1), [7, 1]]
    reps, assignment = reduce_points(basis, points)
    assert list(assignment) == [(4, 4), (1, 1), (-2, 7), (0, 0), (7, 1)]
    assert reps == {(1, 1), (0, 0)}
    assert assignment[(4, 4)] is assignment[(1, 1)] is assignment[(-2, 7)]
    assert assignment[(4, 4)] is assignment[(7, 1)]


def test_library_rejects_float_coordinates():
    # int() used to truncate these into one class {(0, 0), (2, 0)}
    gens = validate_atomic([Isometry.translation((1, 0))], 2)
    with pytest.raises(InputError, match="0.5"):
        compute_orbits(gens, [(0.5, 0), (2.7, 0)])
    with pytest.raises(InputError, match="2.0"):
        compute_orbits(gens, [(0, 1), (2.0, 0)])


def test_reduce_points_rejects_bool_and_non_integer_coordinates():
    basis = hnf_reduce([(2, 0)], 2)
    with pytest.raises(InputError) as info:
        reduce_points(basis, [(0, 0), (1, True)])
    assert str(info.value) == "point 1: coordinate 1 is True, expected an integer"
    with pytest.raises(InputError):
        reduce_points(basis, [(0, "1")])
    with pytest.raises(InputError):
        reduce_points(basis, [(0, 0), 5])
