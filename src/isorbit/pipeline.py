"""End-to-end orchestration: group data from the generators, then labels.

Stage 1 depends only on the generating set and is reusable across point
sets; stage 2 projects the points and merges translation classes under the
rotation action. Both stages run fixed-point loops over the generators and
never enumerate the rotation subgroup.

Stage 2 reads the domain in sorted blocks (see domain.py) and keeps 4 bytes
per point, an index; everything else it holds is per representative.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import count, repeat
from typing import Iterable, Sequence

from ._record import record
from .domain import Box, sort_points
from .errors import DimensionMismatchError
from .gf2 import Gf2Basis, negation_basis_from_generators
from .isometry import GeneratingSet
from .labeling import DEFAULT_CLOSURE_CAP, OrbitLabeling, Stage2, merge_classes_generators
from .lattice import LatticeBasis, translation_basis_from_generators
from .permgroup import DEFAULT_MAX_DIMENSION, perm_group_order
from .quotient import reduce_columns


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


def run_stage2(
    stage1: Stage1,
    domain: Box | Iterable[Sequence[int]],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> Stage2:
    """Stage 2: project the points and merge classes under the rotations.

    domain is a Box, or any points, which sort_points checks, dedupes and
    sorts. A box must have one axis per dimension, checked before any
    point is made. Each block of points is reduced over its columns, and
    every point gets the number of its representative; representatives
    are numbered in the order first met, and each keeps the sorted index
    of its first point. The merge gives each representative the number of
    the first representative of its class, so a class's label is that
    one's first point, and classes are numbered in the order of their
    labels.
    """
    n = stage1.gens.n
    if isinstance(domain, Box):
        if domain.n != n:
            axes = "axis" if domain.n == 1 else "axes"
            raise DimensionMismatchError(
                f"box has {domain.n} {axes}, the generators act on Z^{n}")
    else:
        domain = sort_points(domain, n)
    basis = stage1.basis
    index = defaultdict(count().__next__)  # representative -> its number
    rep_of = array("I")
    first = array("I")  # sorted index of each representative's first point
    for size, cols in domain.column_blocks():
        reduce_columns(basis, cols)
        met = len(index)
        ids = list(map(index.__getitem__, zip(*cols) if n else repeat((), size)))
        at = 0
        for r in range(met, len(index)):
            at = ids.index(r, at)
            first.append(len(rep_of) + at)
        rep_of.extend(ids)
    reps = list(index)
    del index
    root = merge_classes_generators(reps, stage1.gens.rotation_generators(), basis, closure_cap)
    del reps
    class_of_rep: list[int] = []
    label_at: list[int] = []
    for r, t in enumerate(root):
        if t == r:  # the first representative of its class opens it
            class_of_rep.append(len(label_at))
            label_at.append(first[r])
        else:
            class_of_rep.append(class_of_rep[t])
    return Stage2(domain, array("I", map(class_of_rep.__getitem__, rep_of)),
                  tuple(domain.at(label_at)))


def compute_labeling(
    stage1: Stage1,
    points: Box | Iterable[Sequence[int]],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> OrbitLabeling:
    """Stage 2 with the points listed: see run_stage2."""
    return run_stage2(stage1, points, closure_cap).labeling()


def compute_orbits(
    gens: GeneratingSet,
    points: Iterable[Sequence[int]],
    max_dimension: int = DEFAULT_MAX_DIMENSION,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> OrbitLabeling:
    """One-call convenience: stage 1 followed by stage 2."""
    return compute_labeling(run_stage1(gens, max_dimension), points, closure_cap)
