"""An exact check of a finished run, for --oracle-check; only it imports this.

The run's lattice L must be the lattice S that G·V spans, V the translation
generators and G the rotation group. (a) Each v in V and (b) each R·b, R a
rotation generator and b a Hermite row, reduce to zero: S lies in L. (f)
Closing V under the rotation generators, each member of S found outside
the lattice so far joins it through hnf_reduce with unit vectors appended,
each row then carrying its integer coefficients, checked by plain integer
arithmetic; it must end at L's basis: L lies in S. Then the classes must
be the orbits of the cell Z^n/L, none split or joined, each numbered and
labelled at its first point, as a walk one point at a time from each domain
point's reduction finds them with its own dict. The dict holds at most the
domain's point count plus the closure cap: a run the merge finished holds
no more, as the merge holds at most R + cap, R the distinct reductions.
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import mul

from .domain import BLOCK_POINTS
from .errors import ClosureCapExceededError
from .labeling import DEFAULT_CLOSURE_CAP, Stage2
from .lattice import LatticeBasis, hnf_reduce, reduce_columns
from .pipeline import Stage1


def first_failure(stage1: Stage1, stage2: Stage2,
                  closure_cap: int = DEFAULT_CLOSURE_CAP) -> tuple[str, str] | None:
    """(check, what failed) for the first failed check, or None: "translations"
    (a), "rotations" (b), "span" (f), then "split", "joined" or "labels"."""
    basis, n = stage1.basis, stage1.gens.n
    rotations, vectors = stage1.gens.rotation_generators(), stage1.gens.translation_vectors()
    for v, zero in zip(vectors, _reduced(basis, vectors)):
        if any(zero):
            return "translations", f"the generator {list(v)} is not in the lattice"
    for k, r in enumerate(rotations):
        if any(map(any, _reduced(basis, map(r.apply, basis.hnf_rows)))):
            return "rotations", f"rotation generator {k} maps a Hermite row out of the lattice"
    lattice, queue = LatticeBasis(n, ()), list(vectors)
    while queue:  # one at a time: at most one row gives 0; inside L by (a), (b), so it ends
        c = queue.pop()
        if not any(_reduced(lattice, [c])[0]):
            continue
        known, k, step = [*lattice.hnf_rows, c], lattice.m + 1, []
        carried = hnf_reduce([(*v, *[0] * i, 1, *[0] * (k - 1 - i)) for i, v in enumerate(known)],
                             n + k)
        for row in carried.hnf_rows:
            if not any(row[:n]):  # the rest are combinations that give 0
                break
            if list(row[:n]) != [sum(map(mul, row[n:], col)) for col in zip(*known)]:
                return "span", "a Hermite row is not the combination it carries"
            step.append(row[:n])
        lattice = LatticeBasis(n, tuple(step))
        queue += [r.apply(c) for r in rotations]
    if lattice != basis:
        return "span", f"the generators span a lattice of rank {lattice.m} other than the run's"
    return _class_failure(basis, rotations, stage2, closure_cap)


def _reduced(basis: LatticeBasis, points) -> list[tuple[int, ...]]:
    """The points, each reduced into the cell."""
    cols = [list(col) for col in zip(*points)]
    if cols:
        reduce_columns(basis, cols)
    return list(zip(*cols))


def _class_failure(basis, rotations, stage2: Stage2, closure_cap: int) -> tuple[str, str] | None:
    orbit_of, orbit, first = {}, array("I"), []  # by cell point, sorted point, orbit
    limit = len(stage2.domain) + closure_cap
    points = iter(stage2.domain)
    while block := list(islice(points, BLOCK_POINTS)):
        for rep in _reduced(basis, block):
            if rep not in orbit_of:
                orbit_of[rep] = o = len(first)
                first.append(len(orbit))
                todo = [rep]
                for p in todo:  # todo grows as the walk finds cell points
                    for q in _reduced(basis, [r.apply(p) for r in rotations]):
                        if q not in orbit_of:
                            if len(orbit_of) >= limit:
                                raise ClosureCapExceededError(
                                    f"the orbit walk passed the closure cap of {closure_cap} "
                                    f"cell points beyond the D = {len(stage2.domain)} "
                                    "domain points")
                            orbit_of[q] = o
                            todo.append(q)
            orbit.append(orbit_of[rep])
    if stage2.class_of == orbit and stage2.label_at == array("I", first):
        return None
    if len(stage2.class_of) == len(orbit):
        class_in, orbit_in = {}, {}  # each orbit's first class, each class's first orbit
        for i, (o, c) in enumerate(zip(orbit, stage2.class_of)):
            if class_in.setdefault(o, c) != c:
                return "split", f"one orbit holds sorted points {first[o]} and {i} in two classes"
            if orbit_in.setdefault(c, o) != o:
                return "joined", f"class {c} joins two orbits, at sorted point {i}"
    return "labels", "the classes are not numbered and labelled at their first points"
