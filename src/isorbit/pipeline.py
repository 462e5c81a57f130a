"""End-to-end orchestration: group data from the generators, then labels.

Stage 1 depends only on the generating set and is reusable across point
sets; stage 2 projects the points and merges translation classes under the
rotation action. Both stages run fixed-point loops over the generators and
never enumerate the rotation subgroup.

Stage 2 reads the domain in sorted blocks (see domain.py). A box's blocks
are translates of its first, so only that one is reduced point by point;
the others come from its distinct representatives moved by the block's
shift, or, since a translation permutes the cell Z^n/L, from those of a
parent block that the box names, through a step map when the cell is
small (see _numbered_blocks).
What stage 2 holds is per representative or per block, but for the 4-byte
class of every point that it returns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Iterable, Sequence
from itertools import accumulate, compress, count, repeat
from math import prod
from operator import gt

from . import domain as domains
from ._record import record
from .domain import Box, SortedPoints, gather, sort_points
from .errors import DimensionMismatchError
from .gf2 import Gf2Basis, negation_basis_from_generators
from .isometry import GeneratingSet
from .labeling import DEFAULT_CLOSURE_CAP, OrbitLabeling, Stage2, merge_classes_generators
from .lattice import LatticeBasis, reduce_columns, translation_basis_from_generators
from .permgroup import DEFAULT_MAX_DIMENSION, perm_group_order


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

    domain is a Box, or SortedPoints from sort_points (or an earlier
    Stage2.domain), taken as they are, or any points, which sort_points
    checks, dedupes and sorts. A box or sorted points must have one axis
    per dimension, checked before any point is made.
    Each block's local representatives get the numbers of their
    representatives (see _numbered_blocks): representatives are numbered
    in the order first met, so in the order of their first points. The
    merge gives each representative its root, the first representative of
    its class, and a class opens at its root: classes are numbered in the
    order of their labels, their roots' first points.
    Only then does every point get its class, block by block, through its
    local representative, in one gather a block; a label is then the first
    place of its class in class_of.
    """
    n = stage1.gens.n
    if not isinstance(domain, (Box, SortedPoints)):
        domain = sort_points(domain, n)
    elif domain.n != n:
        what = (f"box has {domain.n} {'axis' if domain.n == 1 else 'axes'}"
                if isinstance(domain, Box) else f"sorted points have dimension {domain.n}")
        raise DimensionMismatchError(f"{what}, the generators act on Z^{n}")
    basis = stage1.basis
    index = defaultdict(count().__next__)  # representative -> its number
    loc, ids, ends = _numbered_blocks(domain, basis, index)
    root = merge_classes_generators(index, stage1.gens.rotation_generators(), basis, closure_cap)
    del index  # now it holds the merge's cell points too
    class_of_rep: list[int] = []
    classes = 0
    for r, t in enumerate(root):
        if t == r:  # the first representative of its class opens it
            class_of_rep.append(classes)
            classes += 1
        else:
            class_of_rep.append(class_of_rep[t])
    class_of = array("I")
    gathers: dict = {}  # p -> the gather of loc[:p], for blocks of p points
    begin = 0
    for size, end in ends:
        cls = gather(ids[begin:end])(class_of_rep)
        if loc is not None:
            cls = (gathers.get(size) or gathers.setdefault(size, gather(loc[:size])))(cls)
        class_of.extend(cls)
        begin = end
    del ids
    label_at = array("I")
    at = -1
    for c in range(classes):  # each label is its class's first point
        at = class_of.index(c, at + 1)
        label_at.append(at)
    return Stage2(domain, class_of, label_at)


def _numbered_blocks(
    domain: Box | SortedPoints, basis: LatticeBasis, index: dict,
) -> tuple[array | None, array, list[tuple[int, int]]]:
    """(loc, ids, ends): ids holds, block after block in sorted order, the
    numbers in index of each block's local representatives, and ends, for
    each block, its point count and the end of its numbers in ids. index
    numbers each distinct representative (as a tuple) in the order first
    met. Point i of a block has local representative loc[i]; loc None is
    the identity, where every point is its own local representative. ids
    is one array, so it is one block of memory, freed at once.

    A points list takes the identity: each block is reduced as read. A box
    reduces its first block, the base, and deduplicates it. Every block is
    a prefix of the base moved by a shift t (Box.shifted_blocks), and
    reduce(x + t) = reduce(reduce(x) + t), so a block's representatives
    are the base's moved by t and reduced again. Distinct base
    representatives differ by no lattice vector, so they stay distinct
    after the move, in the base's order. A block cut short keeps the first
    m base representatives, those met in its prefix: the r whose first
    point in the base, first[r], is below its point count. When the base's
    points are all distinct representatives, loc is the identity too.

    Step maps. Every block but the base has a parent block p that holds at
    least its m numbers (Box.shifted_blocks), and p's r-th representative
    moved by the delta d, the block's shift minus p's, reduces to the
    block's r-th: reduce(x + d) depends only on reduce(x), so d permutes
    the cell. When the lattice has full rank and its index, the cell's
    point count, is at most BLOCK_POINTS, a list per delta (at most n of
    them) maps a representative's number to the number of its image. A
    block whose parent's first m numbers all have known images takes its
    numbers through the map in one pass; any other block is moved, reduced
    and looked up, and fills its delta's map from its parent's numbers. A
    box whose lattice is not of full rank, or of larger index, moves every
    block.
    """
    ids, ends = array("I"), []
    if isinstance(domain, SortedPoints):
        for size, cols in domain.column_blocks():
            reduce_columns(basis, cols)
            ids.extend(map(index.__getitem__, zip(*cols) if cols else repeat((), size)))
            ends.append((size, len(ids)))
        return None, ids, ends
    base, blocks = domain.shifted_blocks()
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
    cell = prod(p for _c, p, _b in basis.echelon)  # its point count, at full rank
    # delta -> its step map, where the cell is finite and small
    steps = defaultdict(lambda: [None] * cell) if (
        basis.m == domain.n and cell <= domains.BLOCK_POINTS) else None
    for size, t, parent in blocks:
        m = bisect_left(first, size)
        step = None
        if steps is not None and parent is not None:
            p, d = parent
            step, of, begin = steps[d], ends[p - 1][1] if p else 0, len(ids)
            try:
                ids.extend(map(step.__getitem__, ids[of:of + m]))
            except TypeError:  # an image not yet known: move the block
                del ids[begin:]
            else:
                ends.append((size, len(ids)))
                continue
        cols = base if m == len(first) else [col[:m] for col in base]
        if any(t):
            cols = [col if s == 0 else _moved(col, s) for col, s in zip(cols, t)]
            reduce_columns(basis, cols)
        if step is None:
            ids.extend(map(index.__getitem__, zip(*cols) if cols else repeat((), m)))
        else:  # the map holds index's own ints, 8 bytes an entry; a box
            # with no axis is one block, so here cols has columns
            numbers = list(map(index.__getitem__, zip(*cols)))
            deque(map(step.__setitem__, ids[of:of + m], numbers), maxlen=0)
            ids.extend(numbers)
        ends.append((size, len(ids)))
    return loc, ids, ends


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
