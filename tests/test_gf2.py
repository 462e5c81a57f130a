import itertools
from random import Random

import pytest

from conftest import (
    bits,
    gf2_span,
    mat_mul,
    mat_transpose,
    random_signed_permutation,
    signed_perm_matrix,
)
from isorbit import (
    DimensionMismatchError,
    SignedPermutation,
    negation_basis_from_generators,
    rref,
)
from isorbit.gf2 import permute_mask
from reference import (
    enumerate_negations,
    generate_perm_group,
    negation_basis_from_group,
    negation_of,
)


def neg(*signs):
    return SignedPermutation.negation(signs)


def test_rref_three_vectors():
    basis = rref([bits("110"), bits("011"), bits("101")], 3)
    assert set(basis.rows) == {bits("101"), bits("011")}
    assert basis.dim == 2
    # span oracle: every XOR combination of the inputs is spanned, and nothing more
    assert gf2_span(basis.rows) == gf2_span([bits("110"), bits("011"), bits("101")])


def test_rref_empty():
    basis = rref([], 4)
    assert basis.rows == () and basis.dim == 0 and basis.span_size == 1


def test_rref_collapses_duplicates():
    basis = rref([bits("111"), bits("111")], 3)
    assert basis.rows == (bits("111"),) and basis.dim == 1


def test_rref_is_canonical_under_input_order():
    rng = Random(201)
    for _ in range(50):
        n = rng.randint(1, 6)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
        reference = rref(masks, n)
        assert gf2_span(reference.rows) == gf2_span(masks)
        for _ in range(5):
            shuffled = masks[:]
            rng.shuffle(shuffled)
            assert rref(shuffled, n) == reference


def test_rref_rejects_out_of_range_bits():
    with pytest.raises(DimensionMismatchError):
        rref([0b100], 2)


def test_permute_mask_matches_rotation_conjugation():
    rng = Random(202)
    for _ in range(50):
        n = rng.randint(1, 5)
        mask = rng.randrange(1 << n)
        p = list(range(n))
        rng.shuffle(p)
        rot = signed_perm_matrix(SignedPermutation.permutation(tuple(p)))
        # R N R^-1, with R^-1 = R^T for the orthogonal R
        conjugated = mat_mul(mat_mul(rot, signed_perm_matrix(negation_of(mask, n))),
                             mat_transpose(rot))
        assert conjugated == signed_perm_matrix(negation_of(permute_mask(mask, p), n))


def test_negation_basis_single_flip_with_full_symmetric_group():
    perms = list(itertools.permutations(range(3)))
    basis = negation_basis_from_group([neg(-1, 1, 1)], perms, 3)
    assert set(basis.rows) == {0b001, 0b010, 0b100}
    assert basis.dim == 3
    # enumeration oracle: the span is the closure of all conjugates under XOR
    conjugates = [permute_mask(0b001, p) for p in perms]
    assert gf2_span(basis.rows) == gf2_span(conjugates)


def test_negation_basis_empty_input():
    basis = negation_basis_from_group([], [tuple(range(4))], 4)
    assert basis.dim == 0


def test_negation_basis_full_flip_fixed_by_swap():
    basis = negation_basis_from_group([neg(-1, -1)], [(0, 1), (1, 0)], 2)
    assert basis.rows == (0b11,)
    assert gf2_span(basis.rows) == gf2_span([0b11])


def test_negation_basis_generators_cyclic_shift():
    basis = negation_basis_from_generators([neg(-1, 1, 1)], [(2, 0, 1)], 3)
    assert set(basis.rows) == {0b001, 0b010, 0b100}


def test_negation_basis_generators_without_permutations():
    masks = [bits("110"), bits("011")]
    basis = negation_basis_from_generators(
        [negation_of(m, 3) for m in masks], [], 3)
    assert basis == rref(masks, 3)


def test_negation_basis_variants_agree():
    rng = Random(203)
    for _ in range(60):
        n = rng.randint(1, 6)
        negs = [SignedPermutation.negation(random_signed_permutation(rng, n).signs)
                for _ in range(rng.randint(0, 2))]
        perm_gens = []
        for _ in range(rng.randint(0, 2)):
            p = list(range(n))
            rng.shuffle(p)
            perm_gens.append(tuple(p))
        group = generate_perm_group(perm_gens, n)
        standard = negation_basis_from_group(negs, group.elements, n)
        incremental = negation_basis_from_generators(negs, perm_gens, n)
        assert standard == incremental


def test_enumerate_negations_pair():
    basis = rref([0b11], 2)
    got = enumerate_negations(basis)
    assert got == [neg(1, 1), neg(-1, -1)]


def test_enumerate_negations_identity_only():
    assert enumerate_negations(rref([], 2)) == [SignedPermutation.identity(2)]


def test_enumerate_negations_two_rows():
    basis = rref([0b01, 0b10], 2)
    got = enumerate_negations(basis)
    assert len(got) == 4
    assert len(set(got)) == 4


def test_enumerate_negations_size_and_purity():
    rng = Random(204)
    for _ in range(30):
        n = rng.randint(1, 6)
        basis = rref([rng.randrange(1 << n) for _ in range(rng.randint(0, 4))], n)
        members = enumerate_negations(basis)
        assert len(members) == basis.span_size
        assert len(set(members)) == len(members)
        assert all(m.is_negation() for m in members)


def test_enumerated_negations_closed_and_normal():
    perms = list(itertools.permutations(range(3)))
    basis = negation_basis_from_group([neg(-1, 1, 1)], perms, 3)
    members = [signed_perm_matrix(m) for m in enumerate_negations(basis)]
    rots = [signed_perm_matrix(SignedPermutation.permutation(p)) for p in perms]
    for a in members:
        for b in members:
            assert mat_mul(a, b) in members
        for rot in rots:
            assert mat_mul(mat_mul(rot, a), mat_transpose(rot)) in members
