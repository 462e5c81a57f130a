"""End-to-end orchestration: group data from the generators, then labels.

Stage 1 depends only on the generating set and is reusable across point
sets; stage 2 projects the points and merges translation classes under the
rotation action. Both stages run fixed-point loops over the generators and
never enumerate the rotation subgroup.

Stage 2 reads the domain in sorted blocks (see domain.py). A box's blocks
are translates of its first, so only that one is reduced point by point;
the others come from its distinct representatives moved by the block's
shift. What stage 2 holds is per representative or per block, but for the
4-byte class of every point that it returns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from itertools import accumulate, compress, count, repeat
from operator import gt
from typing import Iterable, Iterator, Sequence

from ._record import record
from .domain import Box, SortedPoints, sort_points
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
    point is made. Each block of points comes as the reduced columns of
    its local representatives (see _local_blocks), and each of those gets
    the number of its representative: representatives are numbered in the
    order first met, and each keeps the sorted index of its first point.
    The merge gives each representative the number of the first
    representative of its class, so a class's label is that one's first
    point, and classes are numbered in the order of their labels. Only
    then does every point get its class, block by block, through its
    local representative.
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
    loc, first_local, blocks = _local_blocks(domain, basis)
    index = defaultdict(count().__next__)  # representative -> its number
    first = array("I")  # sorted index of each representative's first point
    # the number of each block's local representatives, block after block,
    # in one array: one block of memory, freed at once
    ids = array("I")
    ends = []  # per block: its point count and the end of its numbers in ids
    start = 0
    for size, cols in blocks:
        met = len(index)
        at = begin = len(ids)
        ids.extend(map(index.__getitem__, zip(*cols) if n else repeat((), size)))
        # new representatives are numbered in the order their local ones
        # come, which a points file's block may repeat: find each's first
        for r in range(met, len(index)):
            at = ids.index(r, at)
            first.append(start + first_local[at - begin])
        ends.append((size, len(ids)))
        start += size
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
    class_of = array("I")
    begin = 0
    for size, end in ends:
        cls = list(map(class_of_rep.__getitem__, ids[begin:end]))
        class_of.extend(cls if loc is None else map(
            cls.__getitem__, loc if size == len(loc) else loc[:size]))
        begin = end
    del ids
    return Stage2(domain, class_of, tuple(domain.at(label_at)))


def _local_blocks(
    domain: Box | SortedPoints, basis: LatticeBasis,
) -> tuple[array | None, Sequence[int], Iterator[tuple[int, list[list[int]]]]]:
    """(loc, first, blocks): blocks yields, for each block in sorted order,
    its point count and the reduced columns of its local representatives,
    distinct or not. Point i of a block has local representative loc[i],
    first met at point first[r] of the block; loc None is the identity,
    where every point is its own local representative and first[r] = r.

    A points list takes the identity: each block is reduced as read. A box
    reduces its first block, the base, and deduplicates it. Every block is
    a prefix of the base moved by a shift t (Box.shifted_blocks), and
    reduce(x + t) = reduce(reduce(x) + t), so a block's representatives
    are the base's moved by t and reduced again. Distinct base
    representatives differ by no lattice vector, so they stay distinct
    after the move, in the base's order. A block cut short keeps those
    base representatives met in its prefix: the r with first[r] below its
    point count. When the base's points are all distinct representatives,
    loc is the identity too.
    """
    if isinstance(domain, SortedPoints):
        def read() -> Iterator[tuple[int, list[list[int]]]]:
            for size, cols in domain.column_blocks():
                reduce_columns(basis, cols)
                yield size, cols
        return None, range(len(domain)), read()
    base, shifts = domain.shifted_blocks()
    reduce_columns(basis, base)
    points = len(base[0]) if base else 1
    local = defaultdict(count().__next__)
    loc = array("I", map(local.__getitem__, zip(*base) if base else repeat((), points)))
    if len(local) == points:
        loc, first = None, range(points)
    else:  # the points whose local number passes every earlier one's
        first = list(compress(count(), map(gt, loc, accumulate(loc, max, initial=-1))))
        base = list(map(list, zip(*local)))
    del local

    def moved() -> Iterator[tuple[int, list[list[int]]]]:
        for size, t in shifts:
            cols = base
            if size < points:
                m = bisect_left(first, size)
                cols = [col[:m] for col in cols]
            if any(t):
                cols = [col if s == 0 else _moved(col, s) for col, s in zip(cols, t)]
                reduce_columns(basis, cols)
            yield size, cols
    return loc, first, moved()


def _moved(col: list[int], s: int) -> list[int]:
    """col with s added to every entry, each distinct value moved once, so
    equal entries share one int as a box's columns do: the representatives
    stage 2 keeps hold these ints."""
    to = {v: v + s for v in set(col)}
    return list(map(to.__getitem__, col))


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
