"""Structure-blind reference: orbit discovery inside a padded bounding box.

Walks the generator edges between points of an axis-aligned box around the
input set and reads off connected components, then restricts back to the
input. Deliberately ignorant of any algebraic structure so that agreement
with the main pipeline is independent evidence. Only correct when the box
is large enough: some orbits connect only through points far outside the
input window, and in the worst case no finite padding suffices. Growing the
padding can only merge classes, never split them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .domain import DEFAULT_BOX_CAP
from .errors import BoxTooLargeError, DimensionMismatchError, NotStabilizedError
from .isometry import GeneratingSet, Point, int_tuple

Partition = set[frozenset[Point]]


def bfs_orbits(
    gens: GeneratingSet,
    points: Iterable[Point],
    padding: int,
    box_cap: int = DEFAULT_BOX_CAP,
) -> Partition:
    """Partition of the points by connectivity through generator edges that
    stay inside the bounding box of the points, widened by ``padding``."""
    pts = {int_tuple(p, "point") for p in points}
    if not pts:
        return set()
    n = gens.n
    for p in pts:
        if len(p) != n:
            raise DimensionMismatchError(f"point {p} not in Z^{n}")
    los = [min(p[i] for p in pts) - padding for i in range(n)]
    his = [max(p[i] for p in pts) + padding for i in range(n)]
    size = 1
    for lo, hi in zip(los, his):
        size *= hi - lo + 1
        if size > box_cap:
            raise BoxTooLargeError(
                f"padded box exceeds the cap of {box_cap} points")
    box = list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))))
    index = {p: i for i, p in enumerate(box)}
    parent = list(range(len(box)))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    ops = gens.members()
    for p in box:
        i = index[p]
        for op in ops:
            j = index.get(op.apply(p))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters: dict[int, set[Point]] = {}
    for p in pts:
        clusters.setdefault(find(index[p]), set()).add(p)
    return {frozenset(c) for c in clusters.values()}


def stabilized_bfs_orbits(
    gens: GeneratingSet,
    points: Iterable[Point],
    max_padding: int,
    box_cap: int = DEFAULT_BOX_CAP,
) -> tuple[Partition, int]:
    """Increase the padding until two consecutive partitions agree.

    Returns (partition, padding) with padding the first of the agreeing
    pair. Raises NotStabilized, carrying the largest-padding partition, if
    max_padding is reached first. Agreement is a heuristic: it does not
    prove the partition correct, it only stops refining it.
    """
    pts = list(points)
    prev: Partition | None = None
    for pad in range(max_padding + 1):
        part = bfs_orbits(gens, pts, pad, box_cap)
        if prev is not None and part == prev:
            return part, pad - 1
        prev = part
    raise NotStabilizedError(
        f"no two consecutive paddings up to {max_padding} agreed",
        partition=prev,
        padding=max_padding,
    )
