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

The same steps apply to every point, so reduce_columns runs them over
whole coordinate columns: per Hermite row it computes the column of
quotients floor(w[c_k] / p_k) once, then makes one list pass per nonzero
entry of b_k. Stage 2 runs it over each block of domain points, and the
class merge over the rotated images of a whole frontier at once.
"""

from __future__ import annotations

from operator import sub

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
                    cols[i] = list(map(sub, cols[i], q))
                else:
                    cols[i] = [a - k * b for a, k in zip(cols[i], q)]
        cols[c] = [v % p for v in pivot] if p != 1 else [0] * len(pivot)
