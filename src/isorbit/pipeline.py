"""End-to-end orchestration: group data from the generators, then labels.

Stage 1 depends only on the generating set and is reusable across point
sets; stage 2 projects the points and merges translation classes under the
rotation action. Both stages run fixed-point loops over the generators and
never enumerate the rotation subgroup. Stage 1 also splits the axes into
the blocks that no generator couples (axis_blocks). Stage 2 works in parts
(axis_parts): with one block, one part of all the axes; with several, each
block whose rotations move its cell, and one part for the rest. It numbers
each part's projections as it reads the domain, runs
labeling.merge_classes_generators on each merged part's own projections
(merge_parts), and gives each class a key made of every part's root.

Stage 2 reads the domain in sorted blocks (see domain.py). A box's blocks
are translates of its first, so only that one, sized by the box's point
count and its cell, is reduced point by point; the others come from its
distinct representatives moved by the block's shift, or, since a
translation permutes the cell Z^n/L, from those of a parent block that
the box names, through a step map when the cell is small (see
_numbered_blocks).
What stage 2 holds is per part's projection, per local representative or
per block, but for the 4-byte class of every point that it returns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, compress, count, filterfalse, repeat
from math import isqrt, prod
from operator import add, gt, mul, ne, or_

from . import domain as domains
from ._record import record
from .domain import Box, SortedPoints, gather, sort_points
from .errors import ClosureCapExceededError, DimensionMismatchError
from .gf2 import Gf2Basis, negation_basis_from_generators
from .isometry import GeneratingSet, SignedPermutation
from .labeling import (
    DEFAULT_CLOSURE_CAP,
    AxisBlock,
    OrbitLabeling,
    Stage2,
    _cap_error,
    _fixes_the_cell,
    merge_classes_generators,
)
from .lattice import LatticeBasis, reduce_columns, translation_basis_from_generators
from .permgroup import DEFAULT_MAX_DIMENSION, perm_group_order


@record
class Stage1:
    """Precomputation that depends only on the generating set."""

    gens: GeneratingSet
    neg_basis: Gf2Basis
    perm_order: int
    basis: LatticeBasis
    blocks: tuple[AxisBlock, ...]

    @property
    def rotation_order(self) -> int:
        return self.neg_basis.span_size * self.perm_order


def run_stage1(gens: GeneratingSet, max_dimension: int = DEFAULT_MAX_DIMENSION) -> Stage1:
    """Compute the negation basis, permutation subgroup order and
    translation-lattice basis for the generating set.

    The stabilizer chain acts only on the axes the permutation generators
    move (see perm_group_order), so its work does not grow with n.
    """
    n = gens.n
    perm_tuples = [g.r.perm for g in gens.permutations]
    perm_order = perm_group_order(perm_tuples, n, max_dimension)
    neg_basis = negation_basis_from_generators(gens.negation_rotations(), perm_tuples, n)
    basis = translation_basis_from_generators(
        gens.translation_vectors(), gens.rotation_generators(), n)
    return Stage1(gens, neg_basis, perm_order, basis, axis_blocks(gens, basis))


def axis_blocks(gens: GeneratingSet, basis: LatticeBasis) -> tuple[AxisBlock, ...]:
    """The finest split of the axes into blocks that no generator couples,
    in the order of their first axes, from one union-find over the axes
    each generator touches: a translation's nonzero entries, and all the
    axes a negation or a permutation moves or negates. A permutation's
    cycles share a block: (1 2)(3 4) is one generator, and the group it
    makes is not the product of the groups of its two swaps. The axes
    that no generator touches form one block when the touched axes make
    two or more; with at most one, all the axes are one block.

    Each block gets the rotation generators that touch it and the Hermite
    rows whose pivots lie in it, restricted to its axes. The lattice is the
    span of G·V, V the translations, and the part of G outside a
    translation's block fixes it, so L is the direct sum of the blocks'
    lattices. Their Hermite rows, sorted by pivot, form a Hermite form,
    since entries above a pivot from another block are 0; Hermite forms
    are unique, so those are L's rows, and each lies in its pivot's block.
    One block, of axes range(n), keeps the rotation generators and the
    basis as they are, and lists no axis. The work is O(n) a generator,
    and with several blocks O(n) a Hermite row and for the untouched axes.
    """
    n = gens.n
    parent: dict[int, int] = {}  # over the touched axes; the smallest root wins

    def find(a: int) -> int:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    def join(axes: list[int]) -> None:
        for b in axes:
            a, b = sorted((find(axes[0]), find(b)))
            parent[b] = a

    rotations = gens.rotation_generators()
    moved_axes = [_moved_axes(r) for r in rotations]
    for v in gens.translation_vectors():
        join(list(compress(count(), v)))
    for touched in moved_axes:
        join(touched)
    axes: dict[int, list[int]] = defaultdict(list)  # by the block's first axis
    for a in sorted(parent):
        axes[find(a)].append(a)
    if len(axes) <= 1:  # with the untouched axes, one block: no list of them
        return (AxisBlock(range(n), tuple(rotations), basis),)
    if len(parent) < n:
        untouched = list(filterfalse(parent.__contains__, range(n)))
        axes[untouched[0]] = untouched
    rows, moved = defaultdict(list), defaultdict(list)
    for (c, _p, _e), row in zip(basis.echelon, basis.hnf_rows):
        rows[find(c)].append(row)  # a pivot is a touched axis
    for r, touched in zip(rotations, moved_axes):
        moved[find(touched[0])].append(r)
    blocks = []
    for first in sorted(axes):
        ax = axes[first]
        at = {a: i for i, a in enumerate(ax)} if moved[first] else {}
        blocks.append(AxisBlock(
            tuple(ax),
            tuple(SignedPermutation(tuple(r.signs[a] for a in ax), tuple(at[r.perm[a]] for a in ax))
                  for r in moved[first]),
            LatticeBasis(len(ax), tuple(tuple(row[a] for a in ax) for row in rows[first]))))
    return tuple(blocks)


def _moved_axes(r: SignedPermutation) -> list[int]:
    """The axes r moves or negates, in order."""
    return list(compress(count(), map(or_, map(ne, r.perm, count()), map(ne, r.signs, repeat(1)))))


def axis_parts(blocks: Sequence[AxisBlock], basis: LatticeBasis) -> list[tuple[
        Sequence[int], Sequence[SignedPermutation], LatticeBasis | None]]:
    """The parts stage 2 numbers the projections of, as (axes, rotations,
    basis): the axes a part's keys hold, and the rotations and lattice
    that merge them, restricted to those axes.

    One block is one part of all the axes, keyed by whole
    representatives. With several, every generator lies in one block, so
    G is the direct product of the blocks' groups and L the direct sum of
    their lattices: two representatives share an orbit exactly when their
    projections share one in every block, and a representative's
    projection on a block is already reduced in the block's lattice. Each
    block whose rotations move its cell is a part, merged on its own
    projections. The axes of the other blocks form one more part, the
    rest, which no rotation merges: its projection's number is its root.
    Its keys skip the axes whose Hermite pivot is 1, which reduction pins
    to 0, so they may hold no axis at all.
    """
    if len(blocks) == 1:
        return [(blocks[0].axes, blocks[0].rotations, blocks[0].basis)]
    parts, rest = [], []
    for b in blocks:
        if all(_fixes_the_cell(b.basis, r.signs, r.perm) for r in b.rotations):
            rest += b.axes
        else:
            parts.append((b.axes, b.rotations, b.basis))
    if rest:
        pivots = basis.by_pivot
        parts.append(([a for a in rest if pivots.get(a, (0,))[0] != 1], (), None))
    return parts


def merge_parts(
    parts: Sequence[tuple[Sequence[int], Sequence[SignedPermutation], LatticeBasis | None]],
    indexes: Sequence[dict],
    ids: Sequence[array],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> list[list[int] | None]:
    """The roots of each part's numbers (see axis_parts), by
    merge_classes_generators over the part's own index, or None for a part
    with no rotation, whose numbers are their own roots.

    indexes[k] numbers part k's distinct projections in the order first
    met; the merges add their cell points to them. ids[k] holds part k's
    number of every local representative stage 2 read, so a
    representative is one tuple of the parts' numbers. closure_cap bounds
    the cell points added over all parts together, and the error names the
    whole merge's cap and its R representatives: with several parts, only
    the error counts them, as the distinct tuples in ids.
    """
    added, roots = 0, []
    for (_axes, rotations, basis), index in zip(parts, indexes):
        if not rotations:
            roots.append(None)
            continue
        size = len(index)
        try:
            roots.append(merge_classes_generators(index, rotations, basis, closure_cap - added))
        except ClosureCapExceededError:
            if len(parts) == 1:  # R is the index's size, which the merge names
                raise
            raise _cap_error(closure_cap, len(set(zip(*ids)))) from None
        added += len(index) - size
    return roots


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
    Each block's local representatives get, in every part, the numbers of
    their projections (see _numbered_blocks), numbered in the order first
    met. The merges give each number its root (merge_parts), and a local
    representative's class key is the sum of each part's root times the
    product of the earlier parts' sizes, one int for the tuple of roots.
    Classes open at their keys in read order, so they are numbered in the
    order of their labels, their first points. With one part the key is
    the root, and a number's class opens at its root, the first number of
    its class. Every point gets its class, block by block, through its
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
    parts = axis_parts(stage1.blocks, basis)
    loc, indexes, ids, ends = _numbered_blocks(domain, basis, [axes for axes, _r, _b in parts])
    sizes = list(map(len, indexes))  # each part's distinct projections
    roots = merge_parts(parts, indexes, ids, closure_cap)
    del indexes  # they hold the merges' cell points too
    opened: dict[int, int] = defaultdict(count().__next__)  # class key -> class
    if len(parts) == 1:  # the key is the root, so a number's class opens at its root
        roots = [list(map(opened.__getitem__, roots[0] or range(sizes[0])))]
    class_of = array("I")
    gathers: dict = {}  # p -> the gather of loc[:p], for blocks of p points
    begin = 0
    for size, end in ends:
        key, stride = None, 1
        for part_ids, part_root, part_size in zip(ids, roots, sizes):
            root = part_ids[begin:end]
            if part_root is not None:
                root = gather(root)(part_root)
            term = root if stride == 1 else map(mul, root, repeat(stride))
            key = term if key is None else map(add, key, term)
            stride *= part_size
        cls = key if len(parts) == 1 else array("I", map(opened.__getitem__, key))
        if loc is not None:
            cls = (gathers.get(size) or gathers.setdefault(size, gather(loc[:size])))(cls)
        class_of.extend(cls)
        begin = end
    del ids
    label_at = array("I")
    at = -1
    for c in range(len(opened)):  # each label is its class's first point
        at = class_of.index(c, at + 1)
        label_at.append(at)
    return Stage2(domain, class_of, label_at)


def _numbered_blocks(
    domain: Box | SortedPoints, basis: LatticeBasis, part_axes: Sequence[Sequence[int]],
) -> tuple[array | None, list[dict], list[array], list[tuple[int, int]]]:
    """(loc, indexes, ids, ends) for the parts whose axes part_axes lists
    (see axis_parts): indexes[k] numbers part k's distinct projections
    in the order first met, and ids[k] holds, block after block in sorted
    order, the numbers in indexes[k] of the projections of each block's
    local representatives; ends, for each block, its point count and the
    end of its numbers in every ids[k]. A part's projection is a tuple of
    its axes, the int itself for one axis, and () for none. Point i of a
    block has local representative loc[i]; loc None is the identity,
    where every point is its own local representative. Each ids[k] is one
    array, so it is one block of memory, freed at once.

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
    the cell, and it permutes each part's projections alike, since L is
    the direct sum of the parts' lattices. When the lattice has full rank
    and its index, the cell's point count, is at most BLOCK_POINTS, a list
    per part and delta (at most n deltas) maps a projection's number to
    the number of its image. A block takes a part's numbers through the
    map in one pass when its parent's first m numbers of that part all
    have known images; the parts that miss are looked up from the block
    moved and reduced once, and fill their delta's maps from the parent's
    numbers. A box whose lattice is not of full rank, or of larger index,
    moves every block.

    The base's size. Where the maps are on (the gate), the box is cut at
    min(BLOCK_POINTS, 4 * max(isqrt(N), cell)) points, N its point count,
    else at BLOCK_POINTS. The base is the one block reduced and numbered
    point by point, about 0.45 us a point, and each block past it costs
    about 8 us, a step through a map or a move of the base's
    representatives (crit8's box, Python 3.11), so 4 isqrt(N) points
    about balances the two. The cell term keeps the base at least four
    cells long, so it meets most of the cell and the maps fill from it:
    under 4 isqrt(N) alone, a base shorter than that misses maps and moves
    more blocks (stage 2 of chords4's generators on -5..5,0..15,3..9,0..15
    took 8.1 ms rather than 7.1).
    """
    indexes = [defaultdict(count().__next__) for _ in part_axes]
    numbers_of = [array("I") for _ in part_axes]  # each part's ids
    numbered = list(zip(indexes, numbers_of, part_axes))
    ends, end = [], 0
    if isinstance(domain, SortedPoints):
        for size, cols in domain.column_blocks():
            reduce_columns(basis, cols)
            for index, ids, axes in numbered:
                ids.extend(_numbers(index, axes, cols, size))
            end += size
            ends.append((size, end))
        return None, indexes, numbers_of, ends
    cell = prod(p for _c, p, _b in basis.echelon)  # its point count, at full rank
    gate = basis.m == domain.n and cell <= domains.BLOCK_POINTS
    base, blocks = domain.shifted_blocks(
        min(domains.BLOCK_POINTS, 4 * max(isqrt(len(domain)), cell)) if gate else None)
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
    pivots = basis.by_pivot
    # per part, delta -> its step map, where the cell is finite and small; a
    # part's numbers count the points of its own cell, its pivots' product
    maps = [defaultdict(lambda k=prod(pivots[a][0] for a in axes): [None] * k) if gate else None
            for axes in part_axes]
    for size, t, parent in blocks:
        m = bisect_left(first, size)
        missed = []  # (index, ids, axes, step) of the parts that look up
        if parent is not None:
            p, d = parent
            of = ends[p - 1][1] if p else 0
        for (index, ids, axes), steps in zip(numbered, maps):
            step = None
            if steps is not None and parent is not None:
                step = steps[d]
                try:
                    ids.extend(map(step.__getitem__, ids[of:of + m]))
                except TypeError:  # an image not yet known: move the block
                    del ids[end:]
                else:
                    continue
            missed.append((index, ids, axes, step))
        if missed:
            cols = base if m == len(first) else [col[:m] for col in base]
            if any(t):
                cols = [col if s == 0 else _moved(col, s) for col, s in zip(cols, t)]
                reduce_columns(basis, cols)
            for index, ids, axes, step in missed:
                numbers = _numbers(index, axes, cols, m)
                if step is not None:  # the map holds index's own ints, 8 bytes an entry
                    numbers = list(numbers)
                    deque(map(step.__setitem__, ids[of:of + m], numbers), maxlen=0)
                ids.extend(numbers)
        end += m
        ends.append((size, end))
    return loc, indexes, numbers_of, ends


def _numbers(index: dict, axes: Sequence[int], cols: list[list[int]], size: int) -> Iterator[int]:
    """The numbers in index of the size points held as columns cols,
    projected on axes: keyed by tuples, by the int itself for one axis,
    and by () for none."""
    if len(axes) == 1:
        keys = cols[axes[0]]
    else:
        keys = zip(*map(cols.__getitem__, axes)) if axes else repeat((), size)
    return map(index.__getitem__, keys)


def _moved(col: list[int], s: int) -> list[int]:
    """col with s added to every entry, each distinct value moved once, so
    equal entries share one int as a box's columns do: the projections
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
