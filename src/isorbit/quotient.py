"""Exact projection of points onto canonical representatives modulo a lattice.

The lattice basis is held in canonical row Hermite normal form (Cohen, A
Course in Computational Algebraic Number Theory, section 2.4): row b_k has
a positive pivot p_k in column c_k, the pivot columns move strictly right,
and every later row is zero in column c_k. Reducing x in pivot order,

    w <- w - floor(w[c_k] / p_k) * b_k    for k = 1 .. m,

puts w[c_k] into [0, p_k) and leaves the earlier pivot coordinates alone,
since b_k is zero left of c_k. The result is the unique lattice translate
of x whose pivot coordinates all lie in [0, p_k), whatever the rank: two
such translates differ by a lattice vector whose first nonzero coefficient
a_k would put |a_k| * p_k >= p_k between their c_k coordinates. Every step
is an integer floor division, so no point can misround at a cell boundary.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .isometry import Point
from .lattice import LatticeBasis


def reduce_mod_lattice(basis: LatticeBasis, x: Sequence[int]) -> Point:
    """Canonical representative of x modulo the basis lattice.

    The result is the unique lattice translate of x whose pivot
    coordinates lie in [0, p_k); with an empty basis it is x itself.
    """
    if len(x) != basis.n:
        raise DimensionMismatchError(
            f"point of length {len(x)}, lattice in Z^{basis.n}")
    w = list(x)
    for c, p, entries in basis.echelon:
        q = w[c] // p
        if q:
            for i, b in entries:
                w[i] -= q * b
    return tuple(w)


def reduce_points(
    basis: LatticeBasis,
    points: Iterable[Sequence[int]],
) -> tuple[set[Point], dict[Point, Point]]:
    """Project every point; returns the representative set and the point map.

    Equal representatives are stored as one tuple, so the map holds one
    object per translation class rather than one per point.
    """
    assignment: dict[Point, Point] = {}
    reps: dict[Point, Point] = {}
    for p in points:
        x = tuple(map(int, p))
        if x not in assignment:
            rep = reduce_mod_lattice(basis, x)
            assignment[x] = reps.setdefault(rep, rep)
    return set(reps), assignment
