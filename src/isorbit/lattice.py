"""Integer lattices of translation vectors: Hermite normal form, bases, and
exact reduction of points onto canonical representatives modulo a lattice.

The Hermite normal form identifies a lattice uniquely, so two generating
sets span the same lattice exactly when their reduced forms are equal, and
a point reduces modulo the lattice by exact back-substitution. Everything
here is integer arithmetic; no floating point is involved anywhere.

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

from collections.abc import Iterable, Sequence
from functools import cached_property
from operator import sub

from ._record import record
from .errors import DimensionMismatchError
from .isometry import Point, SignedPermutation, int_tuple


@record(frozen=True)
class LatticeBasis:
    """Basis of a sublattice of Z^n in canonical row-style Hermite normal form.

    The rows are the basis vectors b_1 .. b_m (equivalently the columns of
    the n x m basis matrix). Canonical form: each row's first nonzero entry
    (its pivot) is positive, pivot columns move strictly right from row to
    row, entries below a pivot are zero and entries above it lie in
    [0, pivot).
    """

    n: int
    hnf_rows: tuple[Point, ...]

    @property
    def m(self) -> int:
        return len(self.hnf_rows)

    @cached_property
    def echelon(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
        """Per row: pivot column c, pivot p and the row's nonzero (index, entry)
        pairs, found once per basis for the row walks of reduce_columns."""
        out = []
        for row in self.hnf_rows:
            c = _pivot_col(row)
            out.append((c, row[c], tuple((i, b) for i, b in enumerate(row) if b)))
        return tuple(out)

    @cached_property
    def by_pivot(self) -> dict[int, tuple[int, tuple[tuple[int, int], ...]]]:
        """Pivot column c -> (pivot p, the row's nonzero (index, entry) pairs)."""
        return {c: (p, entries) for c, p, entries in self.echelon}

    @cached_property
    def support(self) -> frozenset[int]:
        """The axes where some Hermite row is nonzero."""
        return frozenset(i for _c, _p, entries in self.echelon for i, _b in entries)


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


def in_lattice(basis: LatticeBasis, w: dict[int, int]) -> bool:
    """Whether the vector w, held as {axis: nonzero entry}, lies in the
    lattice; w is used up. An entry on an axis where every Hermite row is
    zero decides at once. Otherwise w is reduced through the rows whose
    pivots fall in its support, in pivot order: its first nonzero axis must
    be a pivot column c and its entry there a multiple of the pivot, or w
    is outside the lattice; subtracting that multiple of c's row clears c
    and changes only axes right of it. So the work grows with the rows
    used, not with n.
    """
    if not basis.support.issuperset(w):
        return False
    rows = basis.by_pivot
    while w:
        c = min(w)
        if c not in rows:
            return False
        p, entries = rows[c]
        q, rest = divmod(w.pop(c), p)
        if rest:
            return False
        for i, b in entries[1:]:  # entries[0] is the pivot
            v = w.get(i, 0) - q * b
            if v:
                w[i] = v
            else:
                del w[i]
    return True


def _pivot_col(row: Sequence[int]) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    raise ValueError("zero row has no pivot")


def hnf_reduce(rows: Iterable[Sequence[int]], n: int) -> LatticeBasis:
    """Canonical Hermite normal form of the lattice spanned by the rows.

    Exact integer row reduction: for each column, a Euclidean sweep
    repeatedly subtracts multiples of the row with the smallest nonzero
    entry until a single row survives (this keeps intermediate entries
    small), then signs are normalized and the entries above each pivot are
    reduced into [0, pivot). Empty input, or only zero rows, yields rank 0.
    """
    work: list[list[int]] = []
    for row in rows:
        row = int_tuple(row, "lattice row")
        if len(row) != n:
            raise DimensionMismatchError(f"row of length {len(row)}, expected {n}")
        if any(row):
            work.append(list(row))
    pivots: list[int] = []
    top = 0
    for col in range(n):
        if top == len(work):
            break  # every row placed: the remaining columns hold no pivot
        live = [i for i in range(top, len(work)) if work[i][col]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            base = work[live[0]]
            p = base[col]
            for i in live[1:]:
                q = work[i][col] // p
                if q:
                    row_i = work[i]
                    for k in range(col, n):
                        row_i[k] -= q * base[k]
            live = [i for i in live if work[i][col]]
        if not live:
            continue
        i = live[0]
        work[top], work[i] = work[i], work[top]
        if work[top][col] < 0:
            work[top] = [-x for x in work[top]]
        pivots.append(col)
        top += 1
    reduced = work[:top]
    for k in range(len(reduced)):
        c = pivots[k]
        p = reduced[k][c]
        for j in range(k):
            q = reduced[j][c] // p
            if q:
                reduced[j] = [a - q * b for a, b in zip(reduced[j], reduced[k])]
    return LatticeBasis(n, tuple(tuple(r) for r in reduced))


def translation_basis_from_generators(
    vectors: Iterable[Sequence[int]],
    rotation_gens: Iterable[SignedPermutation],
    n: int,
) -> LatticeBasis:
    """Lattice generated by the vectors and all their images under the
    rotation group the generators generate.

    Touches only the generators: conjugates the current basis rows by each
    generator, re-reduces, and repeats until the Hermite form stops changing.
    It ends by itself. Each lattice lies in S = span(G·V), G the group and
    V the vectors, and a pass keeps the old rows, so one that changes the
    form enlarges the lattice: it raises the rank, at most rank(S) times,
    or at least halves a finite index. Pass k holds V's images under all
    words of k generators, so at most d + 1 passes run, d G's Cayley diameter.
    """
    gens = list(rotation_gens)
    basis = hnf_reduce([tuple(v) for v in vectors], n)
    while True:
        rows = set(basis.hnf_rows)
        for b in basis.hnf_rows:
            for r in gens:
                rows.add(r.apply(b))
        updated = hnf_reduce(sorted(rows), n)
        if updated == basis:
            return basis
        basis = updated
