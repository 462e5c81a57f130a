"""End-to-end orchestration: group data from the generators, then labels.

Stage 1 depends only on the generating set and is reusable across point
sets; stage 2 projects the points and merges translation classes under the
rotation action. Both stages run fixed-point loops over the generators and
never enumerate the rotation subgroup.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import record
from .gf2 import Gf2Basis, negation_basis_from_generators
from .isometry import GeneratingSet
from .labeling import (
    DEFAULT_CLOSURE_CAP,
    OrbitLabeling,
    finalize_labels,
    merge_classes_generators,
)
from .lattice import LatticeBasis, translation_basis_from_generators
from .permgroup import DEFAULT_MAX_DIMENSION, perm_group_order
from .quotient import reduce_points


@record
class Stage1:
    """Precomputation that depends only on the generating set."""

    gens: GeneratingSet
    neg_basis: Gf2Basis
    perm_order: int
    basis: LatticeBasis

    @property
    def rotation_order(self) -> int:
        return self.neg_basis.span_size * self.perm_order


def run_stage1(gens: GeneratingSet, max_dimension: int = DEFAULT_MAX_DIMENSION) -> Stage1:
    """Compute the negation basis, permutation subgroup order and
    translation-lattice basis for the generating set.

    Without a permutation generator the subgroup is the identity alone and
    no stabilizer chain is built, so the work does not grow with n.
    """
    n = gens.n
    perm_tuples = [g.r.perm for g in gens.permutations]
    perm_order = perm_group_order(perm_tuples, n, max_dimension)
    neg_basis = negation_basis_from_generators(gens.negation_rotations(), perm_tuples, n)
    basis = translation_basis_from_generators(
        gens.translation_vectors(), gens.rotation_generators(), n)
    return Stage1(gens, neg_basis, perm_order, basis)


def compute_labeling(
    stage1: Stage1,
    points: Iterable[Sequence[int]],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> OrbitLabeling:
    """Stage 2: project the points and merge classes under the rotations."""
    reps, assignment = reduce_points(stage1.basis, points)
    witness = merge_classes_generators(
        reps, stage1.gens.rotation_generators(), stage1.basis, closure_cap)
    return finalize_labels(assignment, witness)


def compute_orbits(
    gens: GeneratingSet,
    points: Iterable[Sequence[int]],
    max_dimension: int = DEFAULT_MAX_DIMENSION,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> OrbitLabeling:
    """One-call convenience: stage 1 followed by stage 2."""
    return compute_labeling(run_stage1(gens, max_dimension), points, closure_cap)
