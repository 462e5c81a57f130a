import math
from random import Random

from conftest import identity_matrix, mat_mul, signed_perm_matrix
from isorbit import SignedPermutation
from reference import (
    assemble_rotation_group,
    enumerate_negations,
    generate_perm_group,
    negation_basis_from_group,
)


def matrix_closure(mats):
    """Naive closure of a set of matrices under multiplication (oracle)."""
    frozen = {tuple(map(tuple, m)) for m in mats}
    n = len(next(iter(frozen)))
    seen = set(frozen) | {tuple(map(tuple, identity_matrix(n)))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for a in frontier:
            for g in frozen:
                b = tuple(map(tuple, mat_mul([list(r) for r in a], [list(r) for r in g])))
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return seen


def build_group(neg_gens, perm_gens, n):
    perm_group = generate_perm_group(perm_gens, n)
    neg_basis = negation_basis_from_group(neg_gens, perm_group.elements, n)
    return assemble_rotation_group(enumerate_negations(neg_basis), perm_group)


def test_plane_flip_and_swap_generate_order_eight():
    rot = build_group([SignedPermutation.negation((-1, 1))], [(1, 0)], 2)
    assert rot.order == 8
    oracle = matrix_closure([
        signed_perm_matrix(SignedPermutation.negation((-1, 1))),
        signed_perm_matrix(SignedPermutation.permutation((1, 0))),
    ])
    assert {tuple(map(tuple, signed_perm_matrix(r))) for r in rot.elements} == oracle


def test_trivial_group():
    rot = build_group([], [], 3)
    assert rot.order == 1
    assert rot.elements == (SignedPermutation.identity(3),)


def test_full_group_order_in_three_dimensions():
    rot = build_group(
        [SignedPermutation.negation((-1, 1, 1))],
        [(1, 0, 2), (1, 2, 0)],
        3)
    assert rot.order == 48 == (2 ** 3) * math.factorial(3)


def test_product_count_has_no_collisions():
    rng = Random(401)
    for _ in range(20):
        n = rng.randint(1, 4)
        neg_gens = [SignedPermutation.negation(
            tuple(rng.choice((1, -1)) for _ in range(n)))
            for _ in range(rng.randint(0, 2))]
        perm_gens = []
        for _ in range(rng.randint(0, 2)):
            p = list(range(n))
            rng.shuffle(p)
            perm_gens.append(tuple(p))
        perm_group = generate_perm_group(perm_gens, n)
        neg_basis = negation_basis_from_group(neg_gens, perm_group.elements, n)
        negs = enumerate_negations(neg_basis)
        rot = assemble_rotation_group(negs, perm_group)
        assert rot.order == len(negs) * perm_group.order


def test_closed_under_composition():
    rot = build_group(
        [SignedPermutation.negation((-1, 1, 1))],
        [(1, 0, 2), (1, 2, 0)],
        3)
    assert rot.order <= 384
    elements = {tuple(map(tuple, signed_perm_matrix(r))) for r in rot.elements}
    for a in elements:
        for b in elements:
            assert tuple(map(tuple, mat_mul(a, b))) in elements


def test_matches_naive_matrix_closure_on_random_instances():
    rng = Random(402)
    for _ in range(15):
        n = rng.randint(1, 4)
        neg_gens = [SignedPermutation.negation(
            tuple(rng.choice((1, -1)) for _ in range(n)))
            for _ in range(rng.randint(0, 2))]
        perm_gens = []
        for _ in range(rng.randint(0, 2)):
            p = list(range(n))
            rng.shuffle(p)
            perm_gens.append(tuple(p))
        rot = build_group(neg_gens, perm_gens, n)
        mats = [signed_perm_matrix(g) for g in neg_gens]
        mats += [signed_perm_matrix(SignedPermutation.permutation(p)) for p in perm_gens]
        if not mats:
            mats = [identity_matrix(n)]
        oracle = matrix_closure(mats)
        assert {tuple(map(tuple, signed_perm_matrix(r))) for r in rot.elements} == oracle
