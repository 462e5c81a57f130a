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
representative. The closure cap bounds the cell points of one union-find
component, hence of one orbit; memory holds all visited orbits together.

Two kinds of edge are known to join nothing, and the merge skips them
without changing a root or where the cap trips: every edge of a generator
that fixes each cell point, and the edge from a generator R back to the
points R found the round before, when R is an involution on the cell.

Stage 2 then opens a class at each root, which numbers the classes in
the order of their smallest points (see pipeline.run_stage2), and records
them as a Stage2: one 4-byte class index per point of the domain, in
sorted point order, and each label's sorted index, read off the former.
OrbitLabeling is the same partition with the points listed.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import compress, count, islice
from operator import itemgetter, ne, neg
from types import MappingProxyType

from ._record import record
from .domain import Box, SortedPoints
from .errors import ClosureCapExceededError, DimensionMismatchError, InputError
from .isometry import Point, SignedPermutation
from .lattice import LatticeBasis, reduce_columns

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
    rank is below n, so closure_cap (a positive bound) guards the size of
    one orbit: ClosureCapExceededError is raised as soon as one component
    holds more than closure_cap cell points. Orbits are finite (each lies
    in one rotation-subgroup orbit), and many small ones never trip the
    cap. Memory grows with the union of the orbits visited, all of them
    held at once, not with one orbit at a time.

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
    for k in set(map(len, index)) | {r.n for r in gens}:
        if k != n:
            raise DimensionMismatchError(f"rotation or point in Z^{k}, lattice in Z^{n}")
    wrong = next(compress(enumerate(index.values()), map(ne, index.values(), count())), None)
    if wrong:
        raise InputError("representative {0} is numbered {1!r}, not {0}".format(*wrong))
    reps = len(index)  # numbered 0..reps-1
    parent = list(range(reps))
    size = [1] * reps  # by root; every root is a representative

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def too_big(root: int) -> ClosureCapExceededError:
        try:
            around = str(next(islice(index, root, None)))
        except ValueError:  # a coordinate past the int-to-str digit limit
            around = f"representative {root} (too many digits to print)"
        return ClosureCapExceededError(
            f"class closure around {around} exceeded {closure_cap} elements")

    if gens and index and closure_cap < 1:
        raise too_big(0)
    gens = [r for r in gens if not _fixes_the_cell(basis, r.signs, r.perm)]
    # R is an involution on the cell: R^2 fixes it, and R maps every
    # Hermite row b into the lattice
    involution = [_fixes_the_cell(basis, *_squared(r)) and _reduce_to_zero(
        basis, [[s * b[p] for b in basis.hnf_rows] for s, p in zip(r.signs, r.perm)])
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
            fresh_ids: list[int] = []
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
                        index[q] = j = len(parent)
                        parent.append(a)
                        size[a] += 1
                        if size[a] > closure_cap:
                            raise too_big(a)
                        fresh.append(q)
                        fresh_ids.append(j)
                        continue
                    b = parent[j]
                    if parent[b] != b:
                        b = find(j)
                    if a != b:
                        if b < a:
                            a, b = b, a
                        parent[b] = a
                        size[a] += size[b]
                        if size[a] > closure_cap:
                            raise too_big(a)
            if fresh:
                frontier.append((k, fresh, fresh_ids))
    for _ in map(find, range(reps)):  # now parent[i] is i's root
        pass
    return parent[:reps]  # its ints are parent's: a root list adds no int


def _reduce_to_zero(basis: LatticeBasis, cols: list[list[int]]) -> bool:
    """Whether every point held as coordinate columns reduces to 0."""
    if cols:
        reduce_columns(basis, cols)
    return not any(map(any, cols))


def _fixes_the_cell(basis: LatticeBasis, signs: Sequence[int], perm: Sequence[int]) -> bool:
    """Whether the rotation y[i] = signs[i] * x[perm[i]] fixes every cell
    point: (R - I)·e_j reduces to 0 for every axis j, so (R - I)·x does
    for every point x. Column i holds coordinate i of each (R - I)·e_j."""
    axes = range(basis.n)
    return _reduce_to_zero(basis, [[s * (p == j) - (i == j) for j in axes]
                                   for i, (s, p) in enumerate(zip(signs, perm))])


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
