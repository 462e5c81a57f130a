"""Merging translation classes under the rotation action, and final labels.

After stage 1 every point has a representative in the fundamental cell of
the translation lattice. Two representatives belong to the same orbit of
the full subgroup exactly when some rotation, projected back into the cell,
maps one to the other; the functions here compute that coarser partition
and record the final labeling.

The merge closes every orbit at once. The frontier starts as all the
representatives and then holds the cell points first seen in the previous
round. Each round applies every rotation generator to the whole frontier
over coordinate columns (a signed permutation only reorders and negates
columns) and projects the images back into the cell with the column walk
of lattice.reduce_columns. A union-find joins each point with its images,
always keeping the smaller number as the root. Points are numbered by
stage 2's own dict of the representatives, which holds 0..R-1 in the
order stage 2 first met them; the merge adds the cell points it finds to
it with larger numbers, so the root of every orbit is its first
representative. The closure cap bounds the cell points the merge adds
beyond the representatives, over all orbits together, so it bounds what
the merge holds.

Two kinds of edge are known to join nothing, and the merge skips them
without changing a root or where the cap trips: every edge of a generator
that fixes each cell point, and the edge from a generator R back to the
points R found the round before, when R is an involution on the cell.
Both tests take (R - I)·e_j, of at most two nonzero entries, for each axis
j that R moves or negates, and reduce it sparsely (lattice.in_lattice), so
they cost what R moves and the rows they use, not n^2.

When the generators split the axes into blocks that none of them couples
(pipeline.axis_blocks), G is the direct product of the blocks' groups and
L the direct sum of their lattices, so two representatives share an orbit
exactly when their projections do in every block. merge_classes_blocks
then runs the merge above on each block's distinct projections, only in
the blocks whose rotations move their cells, and never walks the product
orbit; a representative's root is the first one whose roots agree with
its own in every block. With one block stage 2 calls
merge_classes_generators itself.

Stage 2 then opens a class at each root, which numbers the classes in
the order of their smallest points (see pipeline.run_stage2), and records
them as a Stage2: one 4-byte class index per point of the domain, in
sorted point order, and each label's sorted index, read off the former.
OrbitLabeling is the same partition with the points listed.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import compress, count, repeat
from operator import add, itemgetter, mul, ne, neg
from types import MappingProxyType

from ._record import record
from .domain import Box, SortedPoints
from .errors import ClosureCapExceededError, DimensionMismatchError, InputError
from .isometry import Point, SignedPermutation
from .lattice import LatticeBasis, in_lattice, reduce_columns

DEFAULT_CLOSURE_CAP = 1_000_000


def merge_classes_generators(
    index: dict[Point, int],
    rotation_gens: Sequence[SignedPermutation],
    basis: LatticeBasis,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> list[int]:
    """Partition the representatives into rotation orbits, expanding all
    classes together by the rotation generators only.

    index numbers the distinct representatives 0..R-1 in its insertion
    order, as defaultdict(count().__next__) numbers them; other numbers
    raise InputError. The merge adds every cell point it visits to index,
    numbered from R on. Returns the root of every representative: the
    smallest number of a representative in its orbit. The frontier starts
    as the representatives and then holds the cell points first seen in
    the previous round; so each cell point is rotated once per generator.
    A point seen for the first time joins its source's component; an image
    already seen joins the two components, the smaller root winning, so
    every root is a representative.

    Every component lies inside one orbit, and when the frontier is empty
    each component is a whole orbit. The cell is infinite when the lattice
    rank is below n, so closure_cap bounds the work: before a new cell
    point is stored, ClosureCapExceededError is raised if the merge already
    holds closure_cap cell points beyond the R representatives, counted
    over all orbits. Orbits are finite (each lies in one rotation-subgroup
    orbit), and a merge that visits v new cell points passes under a cap
    of v; memory grows with those v points, all held at once.

    Edges that would join nothing are skipped, so the roots, the cap's trip
    point and its message are those of the full walk:

    - a generator R with (R - I)·e_j in the lattice for every axis j maps
      every cell point to itself, and is dropped;
    - when (R^2 - I)·e_j is in the lattice for every j and R maps the
      lattice into itself, R maps each point q = reduce(R·p) it found last
      round back to reduce(R^2·p) = p, already in q's component; so R is
      not applied to those points. The frontier is kept as one group per
      finding generator, in id order, so every other edge runs in the
      order of the full walk.
    """
    n = basis.n
    gens = list(rotation_gens)
    _check_numbering(index, gens, n)
    reps = len(index)  # numbered 0..reps-1
    limit = reps + closure_cap  # the most cell points the merge may hold
    parent = list(range(reps))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    gens = [r for r in gens if not _fixes_the_cell(basis, r.signs, r.perm)]
    # R is an involution on the cell: R^2 fixes it, and R maps the lattice
    # into itself
    involution = [_fixes_the_cell(basis, *_squared(r)) and _maps_the_lattice_into_itself(basis, r)
                  for r in gens]
    # (finder, points, ids): the points each generator found last round, by
    # its index in gens (None for the representatives), in id order
    frontier = [(None, index, range(reps))]
    while frontier and gens:
        groups = [(g, [list(map(itemgetter(j), pts)) for j in range(n)], ids)
                  for g, pts, ids in frontier]
        frontier = []
        for k, r in enumerate(gens):
            fresh: list[Point] = []
            start = len(parent)  # the pass numbers its new points from here on
            for g, cols, ids in groups:
                if g == k and involution[k]:  # r maps each back to its finder
                    continue
                images = [cols[p] if s == 1 else list(map(neg, cols[p]))
                          for s, p in zip(r.signs, r.perm)]
                reduce_columns(basis, images)
                for i, q in zip(ids, zip(*images)):
                    # after path compression one hop finds most roots
                    a = parent[i]
                    if parent[a] != a:
                        a = find(i)
                    j = index.get(q)
                    if j is None:
                        if len(parent) >= limit:
                            raise _cap_error(closure_cap, reps)
                        index[q] = len(parent)
                        parent.append(a)
                        fresh.append(q)
                        continue
                    b = parent[j]
                    if parent[b] != b:
                        b = find(j)
                    if a != b:
                        if b < a:
                            a, b = b, a
                        parent[b] = a
            if fresh:
                frontier.append((k, fresh, range(start, len(parent))))
    for _ in map(find, range(reps)):  # now parent[i] is i's root
        pass
    return parent[:reps]  # its ints are parent's: a root list adds no int


@record(frozen=True)
class AxisBlock:
    """Axes that no generator couples with the others (see
    pipeline.axis_blocks). rotations are the rotation generators that touch
    the block, and basis the Hermite rows whose pivots lie in it, all
    restricted to its axes: the block's own group and lattice, in Z^k for
    its k axes."""

    axes: tuple[int, ...]
    rotations: tuple[SignedPermutation, ...]
    basis: LatticeBasis


def merge_classes_blocks(
    index: dict[Point, int],
    blocks: Sequence[AxisBlock],
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> array:
    """The roots of merge_classes_generators, found block by block.

    Every generator lies in one block, so G is the direct product of the
    blocks' groups and L the direct sum of their lattices: two
    representatives share an orbit exactly when their projections share
    one in every block, and a representative's projection on a block is
    already reduced in the block's lattice. index numbers the
    representatives 0..R-1, as for merge_classes_generators, and is left
    empty.

    Each block whose rotations move its cell is a part, merged on its own
    distinct projections, numbered in the order first met, by
    merge_classes_generators; the axes of all the other blocks form one
    more part, whose projection's number is its root. A part's projections
    stream out of index into a 4-byte number a representative, and only
    its distinct projections are held, one part at a time. closure_cap
    bounds the cell points added over all parts, and the error names the
    whole merge's cap and R. Once index is cleared, one pass gives each
    representative the first one whose roots agree with its own in every
    part, keyed by one int that holds them all: the sum of each part's
    root times the product of the earlier parts' sizes.
    """
    reps = len(index)
    _check_numbering(index, (), sum(len(b.axes) for b in blocks))
    parts, rest = [], []  # (axes, rotations, basis) of the blocks merged; the others' axes
    for b in blocks:
        if all(_fixes_the_cell(b.basis, r.signs, r.perm) for r in b.rotations):
            rest += b.axes
        else:
            parts.append((b.axes, b.rotations, b.basis))
    if rest:
        parts.append((rest, (), None))
    added = 0
    key, stride = None, 1
    for axes, rotations, basis in parts:
        ids: dict[Point, int] = defaultdict(count().__next__)
        root = array("I", map(ids.__getitem__, zip(*[map(itemgetter(a), index) for a in axes])))
        size = len(ids)
        if rotations:
            try:
                roots = merge_classes_generators(ids, rotations, basis, closure_cap - added)
            except ClosureCapExceededError:
                raise _cap_error(closure_cap, reps) from None
            added += len(ids) - size
            root = array("I", map(roots.__getitem__, root))
        del ids
        term = root if stride == 1 else map(mul, root, repeat(stride))
        key = term if key is None else map(add, key, term)
        stride *= size
    index.clear()
    first: dict[int, int] = {}
    return array("I", map(first.setdefault, key, count()))


def _check_numbering(index: dict[Point, int], rotations: Sequence[SignedPermutation],
                     n: int) -> None:
    """Every point and rotation is in Z^n, and index numbers its points
    0..R-1 in insertion order."""
    for k in set(map(len, index)) | {r.n for r in rotations}:
        if k != n:
            raise DimensionMismatchError(f"rotation or point in Z^{k}, lattice in Z^{n}")
    wrong = next(compress(enumerate(index.values()), map(ne, index.values(), count())), None)
    if wrong:
        raise InputError("representative {0} is numbered {1!r}, not {0}".format(*wrong))


def _cap_error(closure_cap: int, reps: int) -> ClosureCapExceededError:
    return ClosureCapExceededError(f"the class merge passed the closure cap of {closure_cap} "
                                   f"cell points beyond its R = {reps} representatives")


def _fixes_the_cell(basis: LatticeBasis, signs: Sequence[int], perm: Sequence[int]) -> bool:
    """Whether the rotation y[i] = signs[i] * x[perm[i]] fixes every cell
    point: (R - I)·e_j lies in the lattice for every axis j, so (R - I)·x
    does for every point x. R sends axis j = perm[i] to signs[i]·e_i, so
    (R - I)·e_j is zero where R fixes axis i, and otherwise has at most two
    nonzero entries, signs[i] at i and -1 at j, tested sparsely."""
    return all(in_lattice(basis, {i: s - 1} if p == i else {i: s, p: -1})
               for i, (s, p) in enumerate(zip(signs, perm)) if p != i or s != 1)


def _maps_the_lattice_into_itself(basis: LatticeBasis, r: SignedPermutation) -> bool:
    """Whether R·b lies in the lattice for every Hermite row b; R·b holds
    signs[i]·b[perm[i]] at the axis i that R sends each nonzero b[perm[i]] to."""
    sent_to = [0] * len(r.perm)
    for i, p in enumerate(r.perm):
        sent_to[p] = i
    return all(in_lattice(basis, {sent_to[a]: r.signs[sent_to[a]] * b for a, b in entries})
               for _c, _p, entries in basis.echelon)


def _squared(r: SignedPermutation) -> tuple[list[int], list[int]]:
    """(signs, perm) of r applied twice."""
    return [s * r.signs[p] for s, p in zip(r.signs, r.perm)], [r.perm[p] for p in r.perm]


@record(frozen=True)
class OrbitLabeling:
    """Final output: the distinct input points, sorted, and their labels.

    Labels are canonicalized to the lexicographically smallest member of the
    class, so equal partitions give byte-identical output no matter how the
    classes were discovered. labels and classes are read-only views of the
    two columns, built on first use and cached.
    """

    points: tuple[Point, ...]
    point_labels: tuple[Point, ...]

    @cached_property
    def labels(self) -> Mapping[Point, Point]:
        return MappingProxyType(dict(zip(self.points, self.point_labels)))

    @cached_property
    def classes(self) -> Mapping[Point, tuple[Point, ...]]:
        """Each label's members. One pass over the sorted points fills it,
        so the members and the labels come out sorted."""
        members: dict[Point, list[Point]] = {
            label: [] for label in dict.fromkeys(self.point_labels)}
        for x, label in zip(self.points, self.point_labels):
            members[label].append(x)
        return MappingProxyType({label: tuple(m) for label, m in members.items()})

    def __getstate__(self) -> dict:  # pickle the columns; the views are rebuilt
        return {"points": self.points, "point_labels": self.point_labels}

    def partition(self) -> set[frozenset[Point]]:
        return {frozenset(members) for members in self.classes.values()}


@record
class Stage2:
    """The labeling by sorted point index, as stage 2 makes it.

    class_of holds the class of every point of the domain, in sorted
    point order, 4 bytes each; classes are numbered in the order of their
    labels, their smallest points, whose sorted indices label_at holds.
    The points stay in the domain, so the record grows by 4 bytes a point.
    """

    domain: Box | SortedPoints
    class_of: array
    label_at: array

    def labeling(self) -> OrbitLabeling:
        labels = tuple(self.domain.at(self.label_at))
        return OrbitLabeling(tuple(self.domain), tuple(map(labels.__getitem__, self.class_of)))
