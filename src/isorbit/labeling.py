"""Merging translation classes under the rotation action, and final labels.

After stage 1 every point has a representative in the fundamental cell of
the translation lattice. Two representatives belong to the same orbit of
the full subgroup exactly when some rotation, projected back into the cell,
maps one to the other; the functions here compute that coarser partition
and write out the final labeling.

The merge closes every orbit at once. The frontier starts as all the
representatives and then holds the cell points first seen in the previous
round. Each round applies every rotation generator to the whole frontier
over coordinate columns (a signed permutation only reorders and negates
columns) and projects the images back into the cell with the column walk
of quotient.reduce_columns. A union-find joins each point with its images,
always keeping the smaller index as the root. The representatives hold
the indices 0..R-1 in sorted order and cell points found later get larger
ones, so the root of every orbit is its smallest representative: the
witness. The closure cap bounds the cell points of one union-find
component, hence of one orbit; memory holds all visited orbits together.

Final labels take one sort of the points: the first point seen with a given
witness is its class minimum, and labels every point of the class.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter, neg
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._record import record
from .errors import ClosureCapExceededError, DimensionMismatchError
from .isometry import Point, SignedPermutation
from .lattice import LatticeBasis
from .quotient import reduce_columns

DEFAULT_CLOSURE_CAP = 1_000_000


def merge_classes_generators(
    reps: Iterable[Point],
    rotation_gens: Sequence[SignedPermutation],
    basis: LatticeBasis,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> dict[Point, Point]:
    """Partition the representatives into rotation orbits, expanding all
    classes together by the rotation generators only.

    Returns the witness of every representative: the lexicographically
    smallest representative in its orbit. The frontier starts as the
    sorted representatives and then holds the cell points first seen in
    the previous round, so each cell point is rotated once per generator.
    A point seen for the first time joins its source's component; an image
    already seen joins the two components, the smaller root winning.

    Every component lies inside one orbit, and when the frontier is empty
    each component is a whole orbit. The cell is infinite when the lattice
    rank is below n, so closure_cap (a positive bound) guards the size of
    one orbit: ClosureCapExceededError is raised as soon as one component
    holds more than closure_cap cell points. Orbits are finite (each lies
    in one rotation-subgroup orbit), and many small ones never trip the
    cap. Memory grows with the union of the orbits visited, all of them
    held at once, not with one orbit at a time.
    """
    n = basis.n
    gens = list(rotation_gens)
    order = sorted(set(map(tuple, reps)))
    for k in set(map(len, order)) | {r.n for r in gens}:
        if k != n:
            raise DimensionMismatchError(f"rotation or point in Z^{k}, lattice in Z^{n}")
    index = {p: i for i, p in enumerate(order)}
    parent = list(range(len(order)))
    size = [1] * len(order)  # by root; every root is a representative

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def too_big(root: int) -> ClosureCapExceededError:
        try:
            around = str(order[root])
        except ValueError:  # a coordinate past the int-to-str digit limit
            around = f"representative {root} in sorted order (too many digits to print)"
        return ClosureCapExceededError(
            f"class closure around {around} exceeded {closure_cap} elements")

    if gens and order and closure_cap < 1:
        raise too_big(0)
    frontier, ids = order, range(len(order))
    while frontier and gens:
        cols = [list(map(itemgetter(j), frontier)) for j in range(n)]
        fresh: list[Point] = []
        fresh_ids: list[int] = []
        for r in gens:
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
        frontier, ids = fresh, fresh_ids
    return {p: order[find(i)] for i, p in enumerate(order)}


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


def finalize_labels(
    assignment: Mapping[Point, Point],
    witness: Mapping[Point, Point],
) -> OrbitLabeling:
    """Compose the two stages and canonicalize labels to class minima, in
    one pass over the sorted points."""
    points = sorted(assignment)
    first: dict[Point, Point] = {}
    roots = map(witness.__getitem__, map(assignment.__getitem__, points))
    return OrbitLabeling(tuple(points), tuple(map(first.setdefault, roots, points)))
