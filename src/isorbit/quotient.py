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

reduce_points is the one place that checks the points of a run (their
dimension and coordinate types), so a caller hands it the points unchecked.
The same steps apply to every point, so it runs them over whole
coordinate columns: per Hermite row it computes the column of quotients
floor(w[c_k] / p_k) once, then makes one list pass per nonzero entry of
b_k. That column walk is reduce_columns; the class merge runs it over
the rotated images of a whole frontier at once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NoReturn, Sequence

from .errors import DimensionMismatchError, InputError
from .isometry import Point
from .lattice import LatticeBasis


def reduce_columns(basis: LatticeBasis, cols: list[list[int]]) -> None:
    """Reduce every point held as coordinate columns, in place.

    cols[j] lists coordinate j of all points, equal lengths, int entries.
    Each entry of cols is replaced by the reduced column; the column lists
    themselves are never mutated, so a caller may pass one list in several
    slots or keep using it afterwards.
    """
    for c, p, entries in basis.echelon:
        pivot = cols[c]
        if len(entries) > 1:
            q = pivot if p == 1 else [v // p for v in pivot]
            for i, b in entries[1:]:
                if b == 1:
                    cols[i] = [a - k for a, k in zip(cols[i], q)]
                else:
                    cols[i] = [a - k * b for a, k in zip(cols[i], q)]
        cols[c] = [v % p for v in pivot] if p != 1 else [0] * len(pivot)


def reduce_points(
    basis: LatticeBasis,
    points: Iterable[Sequence[int]],
) -> tuple[set[Point], dict[Point, Point]]:
    """Project every point; returns the representative set and the point map.

    The map lists the distinct points in first-seen order. Equal
    representatives are stored as one tuple, so the map holds one object
    per translation class rather than one per point.

    This is where the points of a run are checked, once: every point must
    have n coordinates, each of type int (bool and float are rejected, not
    truncated). The dimensions and then the column types are checked over
    whole lists; only when a check fails are the points walked, to name
    the first bad one by its position in the input.
    """
    n = basis.n
    try:
        pts = list(map(tuple, points))
    except TypeError as e:
        raise InputError(f"points must be sequences of integers: {e}") from e
    if not pts:
        return set(), {}
    if set(map(len, pts)) - {n}:
        _reject_first_bad_point(pts, n)
    cols: list[list[int]] = [list(map(itemgetter(j), pts)) for j in range(n)]
    for col in cols:
        if set(map(type, col)) - {int}:
            _reject_first_bad_point(pts, n)
    reduce_columns(basis, cols)
    rows = list(zip(*cols)) if cols else [()] * len(pts)
    reps: dict[Point, Point] = {}
    assignment = dict(zip(pts, map(reps.setdefault, rows, rows)))
    return set(reps), assignment


def _reject_first_bad_point(pts: list[Point], n: int) -> NoReturn:
    """Raise for the first point, in input order, that has the wrong
    length (DimensionMismatchError) or a coordinate that is not an int
    (InputError)."""
    for i, x in enumerate(pts):
        if len(x) != n:
            raise DimensionMismatchError(
                f"point {i}: {x!r} has dimension {len(x)}, expected {n}")
        for j, v in enumerate(x):
            if type(v) is not int:
                raise InputError(f"point {i}: coordinate {j} is {v!r}, expected an integer")
