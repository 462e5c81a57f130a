"""Explicit-group reference for the generator fixed-point pipeline.

The production path in ``isorbit`` never enumerates a group: it runs
fixed-point loops over the generators. The functions here do the same jobs
the direct way, by listing the whole rotation subgroup and sweeping it.
They are slower, but they depend on nothing the production loops do, so
tests compare the two: negation basis, translation lattice, rotation order
and the merge witnesses must all agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from isorbit import (
    GeneratingSet,
    Gf2Basis,
    LatticeBasis,
    OrbitLabeling,
    PermGroup,
    Point,
    PseudoInverse,
    SignedPermutation,
    Stage1,
    build_pseudoinverse,
    finalize_labels,
    generate_perm_group,
    hnf_reduce,
    reduce_points,
    rotate_mod_lattice,
    rref,
)
from isorbit.gf2 import mask_of, permute_mask


def negation_of(mask: int, n: int) -> SignedPermutation:
    return SignedPermutation.negation(
        tuple(-1 if mask >> i & 1 else 1 for i in range(n)))


def negation_basis_from_group(
    negations: Sequence[SignedPermutation],
    perms: Iterable[Sequence[int]],
    n: int,
) -> Gf2Basis:
    """Basis of the subgroup generated by the negations together with their
    conjugates under every permutation of the given (full) permutation group."""
    perm_list = [tuple(p) for p in perms]
    masks = [permute_mask(mask_of(g), p) for g in negations for p in perm_list]
    return rref(masks, n)


def enumerate_negations(basis: Gf2Basis) -> list[SignedPermutation]:
    """All 2^dim negations spanned by the basis.

    Ordered lexicographically by the coefficient tuple over the basis rows
    (the identity, coefficient zero, always comes first).
    """
    d = basis.dim
    out = []
    for bits in range(1 << d):
        mask = 0
        for j in range(d):
            if bits >> (d - 1 - j) & 1:
                mask ^= basis.rows[j]
        out.append(negation_of(mask, basis.n))
    return out


@dataclass(frozen=True)
class RotationGroup:
    """Explicit element list of a rotation subgroup, canonically sorted."""

    n: int
    elements: tuple[SignedPermutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def assemble_rotation_group(
    negations: Sequence[SignedPermutation],
    perms: PermGroup,
) -> RotationGroup:
    """Pair every negation with every permutation (negation applied last).

    The split of a rotation into a diagonal sign matrix following a
    permutation matrix is unique, so the product set has exactly
    len(negations) * perms.order distinct elements; the assert below guards
    that.
    """
    elements = [
        SignedPermutation(neg.signs, perm)
        for neg in negations
        for perm in perms.elements
    ]
    elements.sort()
    assert len(set(elements)) == len(elements), "collision in negation/permutation products"
    return RotationGroup(perms.n, tuple(elements))


def rotation_group(stage1: Stage1) -> RotationGroup:
    """The explicit rotation subgroup behind a production stage 1."""
    return assemble_rotation_group(enumerate_negations(stage1.neg_basis), stage1.perm_group)


def translation_basis_from_group(
    vectors: Iterable[Sequence[int]],
    rotations: Iterable[SignedPermutation],
    n: int,
) -> LatticeBasis:
    """Lattice generated by the vectors and all their images under the given
    (full, identity-containing) rotation group."""
    images = {r.apply(v) for v in vectors for r in rotations}
    return hnf_reduce(sorted(images), n)


def merge_classes_group(
    reps: Iterable[Point],
    rotations: Sequence[SignedPermutation],
    pinv: PseudoInverse,
    basis: LatticeBasis,
) -> dict[Point, Point]:
    """Partition the representatives by sweeping whole rotation image sets.

    Repeatedly picks the lexicographically smallest unlabeled representative
    w, computes its image under every rotation (projected back into the
    cell), labels the images found among the remaining representatives by w
    and removes them.
    """
    rot_list = list(rotations)
    remaining = set(map(tuple, reps))
    witness: dict[Point, Point] = {}
    while remaining:
        w = min(remaining)
        images = {rotate_mod_lattice(pinv, basis, r, w) for r in rot_list}
        cls = (images & remaining) | {w}
        for p in cls:
            witness[p] = w
        remaining -= cls
    return witness


@dataclass(frozen=True)
class ReferenceStage:
    """Stage-1 data computed by enumerating the rotation subgroup."""

    neg_basis: Gf2Basis
    rotations: RotationGroup
    basis: LatticeBasis
    pinv: PseudoInverse


def reference_stage1(gens: GeneratingSet) -> ReferenceStage:
    """Negation basis and translation lattice from the whole rotation group."""
    n = gens.n
    perm_group = generate_perm_group([g.r.perm for g in gens.permutations], n)
    neg_basis = negation_basis_from_group(gens.negation_rotations(), perm_group.elements, n)
    rotations = assemble_rotation_group(enumerate_negations(neg_basis), perm_group)
    basis = translation_basis_from_group(gens.translation_vectors(), rotations.elements, n)
    return ReferenceStage(neg_basis, rotations, basis, build_pseudoinverse(basis))


def reference_labeling(ref: ReferenceStage, points: Iterable[Sequence[int]]) -> OrbitLabeling:
    """Reduce the points and merge classes by sweeping every rotation."""
    reps, assignment = reduce_points(ref.pinv, ref.basis, points)
    witness = merge_classes_group(reps, ref.rotations.elements, ref.pinv, ref.basis)
    return finalize_labels(assignment, witness)
