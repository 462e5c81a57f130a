"""Merging translation classes under the rotation action, and final labels.

After stage 1 every point has a representative in the fundamental cell of
the translation lattice. Two representatives belong to the same orbit of
the full subgroup exactly when some rotation, projected back into the cell,
maps one to the other; the functions here compute that coarser partition
and write out the final labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ClosureCapExceededError
from .isometry import Point, SignedPermutation
from .lattice import LatticeBasis
from .quotient import reduce_mod_lattice

DEFAULT_CLOSURE_CAP = 1_000_000


def rotate_mod_lattice(basis: LatticeBasis, r: SignedPermutation, w: Sequence[int]) -> Point:
    """Apply the rotation, then project back into the representative cell.

    For w already in the cell this is the induced action of the rotation on
    translation classes; with an empty basis it is the plain rotation.
    """
    return reduce_mod_lattice(basis, r.apply(w))


def merge_classes_generators(
    reps: Iterable[Point],
    rotation_gens: Sequence[SignedPermutation],
    basis: LatticeBasis,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> dict[Point, Point]:
    """Partition the representatives into rotation orbits, expanding each
    class by the rotation generators only.

    Witnesses are taken in lexicographic order, each the smallest
    representative not yet labeled. For each witness w the image closure is
    grown over the whole representative cell until it stops changing, and
    only then intersected with the representatives at hand. The closure is
    the whole orbit of w, so it never meets an earlier class. The cell is
    infinite when the lattice rank is below n, so a configurable cap guards
    the closure; the closure itself is always finite (it is contained in one
    rotation-subgroup orbit).
    """
    gens = list(rotation_gens)
    rep_set = set(map(tuple, reps))
    witness: dict[Point, Point] = {}
    for w in sorted(rep_set):
        if w in witness:
            continue
        closure = {w}
        frontier = [w]
        while frontier:
            fresh = []
            for p in frontier:
                for r in gens:
                    q = rotate_mod_lattice(basis, r, p)
                    if q not in closure:
                        closure.add(q)
                        fresh.append(q)
            if len(closure) > closure_cap:
                raise ClosureCapExceededError(
                    f"class closure around {w} exceeded {closure_cap} elements")
            frontier = fresh
        for p in closure & rep_set:
            witness[p] = w
    return witness


@dataclass(frozen=True)
class OrbitLabeling:
    """Final output: each input point mapped to its class label.

    Labels are canonicalized to the lexicographically smallest member of the
    class, so equal partitions give byte-identical output no matter how the
    classes were discovered.
    """

    labels: Mapping[Point, Point]
    classes: Mapping[Point, tuple[Point, ...]]

    def partition(self) -> set[frozenset[Point]]:
        return {frozenset(members) for members in self.classes.values()}


def finalize_labels(
    assignment: Mapping[Point, Point],
    witness: Mapping[Point, Point],
) -> OrbitLabeling:
    """Compose the two stages and canonicalize labels to class minima."""
    groups: dict[Point, list[Point]] = {}
    for x, rep in assignment.items():
        groups.setdefault(witness[rep], []).append(x)
    labels: dict[Point, Point] = {}
    classes: dict[Point, tuple[Point, ...]] = {}
    for members in sorted(sorted(g) for g in groups.values()):
        label = members[0]
        classes[label] = tuple(members)
        for x in members:
            labels[x] = label
    return OrbitLabeling(labels, classes)
