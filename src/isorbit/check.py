"""An exact check of a finished run, for --oracle-check; only it imports this.

The run's lattice L must be the lattice S that G·V spans, V the translation
generators and G the rotation group. (a) Each v in V and (b) each R·b, R a
rotation generator and b a Hermite row, reduce to zero: S lies in L. (f)
Closing V under the rotation generators, each member of S found outside
the lattice so far joins it through hnf_reduce with unit vectors appended,
each row then carrying its integer coefficients, checked by plain integer
arithmetic; it must end at L's basis: L lies in S. (blocks) The run's
axis blocks must split the axes, and each translation generator, rotation
generator and Hermite row must touch the axes of one block only: then G
is the product of the blocks' groups and L the sum of their lattices, and
two points share an orbit exactly when their projections do in every
block. Then the classes must be the orbits of the cell Z^n/L, none split
or joined, each numbered and labelled at its first point, as a walk one
point at a time, in each block, from the projection of each domain
point's reduction finds them with its own dict a block, under the
rotation generators and Hermite rows it restricts to the block itself.
The dicts hold at most the domain's point count a block plus the closure
cap: a run the merge finished holds no more, as it holds at most P + cap,
P the distinct projections summed over the blocks it merges.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import count, islice
from operator import itemgetter, mul

from .domain import BLOCK_POINTS
from .errors import ClosureCapExceededError
from .isometry import SignedPermutation
from .labeling import DEFAULT_CLOSURE_CAP, Stage2
from .lattice import LatticeBasis, hnf_reduce, reduce_columns
from .pipeline import Stage1


def first_failure(stage1: Stage1, stage2: Stage2,
                  closure_cap: int = DEFAULT_CLOSURE_CAP) -> tuple[str, str] | None:
    """(check, what failed) for the first failed check, or None: "translations"
    (a), "rotations" (b), "span" (f), "blocks", then "split", "joined" or
    "labels"."""
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
    return _block_failure(stage1) or _class_failure(
        basis, rotations, stage1.blocks, stage2, closure_cap)


def _reduced(basis: LatticeBasis, points) -> list[tuple[int, ...]]:
    """The points, each reduced into the cell."""
    cols = [list(col) for col in zip(*points)]
    if cols:
        reduce_columns(basis, cols)
    return list(zip(*cols))


def _block_failure(stage1: Stage1) -> tuple[str, str] | None:
    """"blocks" unless the run's axis blocks split the axes and every
    translation generator, rotation generator and Hermite row touches the
    axes of one block only."""
    n, gens, basis = stage1.gens.n, stage1.gens, stage1.basis
    block_of = {a: k for k, b in enumerate(stage1.blocks) for a in b.axes}
    if sorted(block_of) != list(range(n)) or sum(len(b.axes) for b in stage1.blocks) != n:
        return "blocks", "the axis blocks do not split the axes"
    touched = [(f"translation generator {list(v)}", [i for i, x in enumerate(v) if x])
               for v in gens.translation_vectors()]
    touched += [(f"rotation generator {k}", [i for i, (s, p) in enumerate(zip(r.signs, r.perm))
                                              if p != i or s != 1])
                for k, r in enumerate(gens.rotation_generators())]
    touched += [(f"Hermite row {k}", [i for i, x in enumerate(row) if x])
                for k, row in enumerate(basis.hnf_rows)]
    for what, axes in touched:
        if len({block_of[a] for a in axes}) > 1:
            return "blocks", f"{what} touches two axis blocks"
    return None


def _class_failure(basis, rotations, blocks, stage2: Stage2,
                   closure_cap: int) -> tuple[str, str] | None:
    # per block: its projection (None: the identity), lattice, rotations
    # and orbit dict; the blocks lie apart (_block_failure), so a reduced
    # point's projection is reduced in its block's lattice
    walks = [(None, basis, rotations, {})] if len(blocks) == 1 else [
        (_projection(b.axes), *_restricted(basis, rotations, b.axes), {}) for b in blocks]
    limit = len(walks) * len(stage2.domain) + closure_cap  # the dicts together
    held, orbits = 0, [0] * len(walks)  # cell points held; orbits found, by walk

    def walked(k: int, rep) -> int:
        """The number in walk k of rep's orbit, walked now: each walk
        numbers its orbits in the order the domain meets them."""
        nonlocal held
        _project, sub, rots, orbit_of = walks[k]
        orbit_of[rep] = o = orbits[k]
        orbits[k] += 1
        held += 1
        todo = [rep]
        for p in todo:  # todo grows as the walk finds cell points
            for q in _reduced(sub, [r.apply(p) for r in rots]):
                if q not in orbit_of:
                    if held >= limit:
                        raise ClosureCapExceededError(
                            f"the orbit walk passed the closure cap of {closure_cap} "
                            f"cell points beyond the D = {len(stage2.domain)} domain points"
                            + (f" in each of {len(walks)} axis blocks" if len(walks) > 1 else ""))
                    orbit_of[q] = o
                    held += 1
                    todo.append(q)
        return o

    orbit = array("I")  # by sorted point
    number = defaultdict(count().__next__)  # each tuple of block orbits, in order met
    points = iter(stage2.domain)
    while block := list(islice(points, BLOCK_POINTS)):
        reps = _reduced(basis, block)
        cols = [[orbit_of[p] if p in orbit_of else walked(k, p)
                 for p in (reps if project is None else map(project, reps))]
                for k, (project, _sub, _rots, orbit_of) in enumerate(walks)]
        orbit.extend(cols[0] if len(cols) == 1 else map(number.__getitem__, zip(*cols)))
    first, at = array("I"), -1  # each orbit's first sorted point
    for o in range(orbits[0] if len(walks) == 1 else len(number)):
        at = orbit.index(o, at + 1)
        first.append(at)
    if stage2.class_of == orbit and stage2.label_at == first:
        return None
    if len(stage2.class_of) == len(orbit):
        class_in, orbit_in = {}, {}  # each orbit's first class, each class's first orbit
        for i, (o, c) in enumerate(zip(orbit, stage2.class_of)):
            if class_in.setdefault(o, c) != c:
                return "split", f"one orbit holds sorted points {first[o]} and {i} in two classes"
            if orbit_in.setdefault(c, o) != o:
                return "joined", f"class {c} joins two orbits, at sorted point {i}"
    return "labels", "the classes are not numbered and labelled at their first points"


def _projection(axes):
    """The projection of a point onto the axes, as a tuple."""
    if len(axes) == 1:
        a = axes[0]
        return lambda p: (p[a],)
    return itemgetter(*axes)


def _restricted(basis, rotations, axes) -> tuple[LatticeBasis, list[SignedPermutation]]:
    """The Hermite rows and the rotation generators that touch the axes,
    restricted to them."""
    at = {a: i for i, a in enumerate(axes)}
    rows = [tuple(row[a] for a in axes) for row in basis.hnf_rows if any(row[a] for a in axes)]
    rots = [SignedPermutation(tuple(r.signs[a] for a in axes), tuple(at[r.perm[a]] for a in axes))
            for r in rotations if any(r.perm[a] != a or r.signs[a] != 1 for a in axes)]
    return LatticeBasis(len(axes), tuple(rows)), rots
