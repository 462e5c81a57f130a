"""Integer lattices of translation vectors: Hermite normal form and bases.

The Hermite normal form identifies a lattice uniquely, so two generating
sets span the same lattice exactly when their reduced forms are equal, and
a point reduces modulo the lattice by exact back-substitution. Everything
here is integer arithmetic; no floating point is involved anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from ._record import record
from .errors import DimensionMismatchError, IterationCapExceededError
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
        pairs, found once per basis for the row walks in quotient."""
        out = []
        for row in self.hnf_rows:
            c = _pivot_col(row)
            out.append((c, row[c], tuple((i, b) for i, b in enumerate(row) if b)))
        return tuple(out)


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
    max_iterations: int | None = None,
) -> LatticeBasis:
    """Lattice generated by the vectors and all their images under the
    rotation group the generators generate.

    Touches only the generators: conjugates the current basis rows by each
    generator, re-reduces, and repeats until the Hermite form stops changing.
    Unlike the boolean case there is no rank-increase guarantee per update,
    hence no a-priori iteration bound; the cap (default 64*n) turns a
    would-be hang into an error and is far above anything observed.
    """
    gens = list(rotation_gens)
    cap = max_iterations if max_iterations is not None else 64 * max(n, 1)
    basis = hnf_reduce([tuple(v) for v in vectors], n)
    for _ in range(cap):
        rows = set(basis.hnf_rows)
        for b in basis.hnf_rows:
            for r in gens:
                rows.add(r.apply(b))
        updated = hnf_reduce(sorted(rows), n)
        if updated == basis:
            return basis
        basis = updated
    raise IterationCapExceededError(
        f"translation basis did not stabilize within {cap} iterations")
