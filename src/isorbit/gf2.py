"""Boolean linear algebra for the negation side of a rotation subgroup.

Negations (coordinate sign flips) of Z^n form a vector space over GF(2):
composing two negations XORs their flipped-coordinate sets. A flip set is
bit-packed into a single int, bit i standing for coordinate i, so row
operations are single XORs on machine words.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import record
from .errors import DimensionMismatchError
from .isometry import SignedPermutation


def mask_of(neg: SignedPermutation) -> int:
    """Bit mask of the coordinates a negation flips."""
    mask = 0
    for i, s in enumerate(neg.signs):
        if s < 0:
            mask |= 1 << i
    return mask


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """Transport a flip mask along a coordinate permutation (conjugation).

    Conjugating the negation of the coordinate set A by the permutation p
    flips the set {i : p[i] in A} instead.
    """
    out = 0
    for i, p in enumerate(perm):
        if mask >> p & 1:
            out |= 1 << i
    return out


@record(frozen=True)
class Gf2Basis:
    """Basis of a subspace of GF(2)^n in reduced row echelon form.

    Rows are bit-packed and sorted by pivot (lowest set bit); each pivot bit
    is zero in every other row, which makes the form unique per subspace.
    """

    n: int
    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def span_size(self) -> int:
        return 1 << len(self.rows)


def rref(masks: Iterable[int], n: int) -> Gf2Basis:
    """Canonical reduced row echelon form of the span of the given masks.

    Independent of input order and duplicates; empty input gives the empty
    basis.
    """
    rows: list[int] = []
    for mask in masks:
        if mask >> n:
            raise DimensionMismatchError(f"mask {mask:#b} has bits beyond coordinate {n - 1}")
        for row in rows:
            if mask & (row & -row):
                mask ^= row
        if mask == 0:
            continue
        pivot = mask & -mask
        rows = [row ^ mask if row & pivot else row for row in rows]
        rows.append(mask)
        rows.sort(key=lambda row: row & -row)
    return Gf2Basis(n, tuple(rows))


def negation_basis_from_generators(
    negations: Sequence[SignedPermutation],
    perm_gens: Iterable[Sequence[int]],
    n: int,
) -> Gf2Basis:
    """Basis of the subgroup generated by the negations together with all
    their conjugates under the group the permutation generators generate.

    Touches only the generators: conjugates the current basis rows by each
    generator, re-reduces, and repeats until the basis stops changing. That
    ends by itself: an update keeps the old rows, so it strictly raises the
    dimension, and there are at most n updates, n + 2 calls of rref in all.
    """
    perm_list = [tuple(p) for p in perm_gens]
    basis = rref([mask_of(g) for g in negations], n)
    while True:
        masks = list(basis.rows)
        masks.extend(permute_mask(row, p) for row in basis.rows for p in perm_list)
        updated = rref(masks, n)
        if updated == basis:
            return basis
        basis = updated
