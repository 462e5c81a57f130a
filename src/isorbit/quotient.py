"""Exact projection of points onto canonical representatives modulo a lattice.

The representative of x modulo the lattice spanned by the basis vectors is

    x - B * floor(coeff(x))

where coeff(x) is the exact rational coefficient vector of x over the basis.
Coefficients are carried as an integer matrix over a common positive
denominator, so every floor is an integer floor division; points that land
exactly on a cell boundary can therefore never misround, which a floating
point pseudoinverse would not guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .isometry import Point
from .lattice import LatticeBasis


@dataclass(frozen=True)
class PseudoInverse:
    """Left inverse of the basis matrix B as an exact integer pair.

    gram_det is det(B^T B) > 0 and adjugate_product is adj(B^T B) * B^T
    (an m x n integer matrix), so the coefficient vector of x over the
    basis is (adjugate_product @ x) / gram_det, exactly.
    """

    n: int
    m: int
    gram_det: int
    adjugate_product: tuple[tuple[int, ...], ...]


def floor_ratio(num: int, den: int) -> int:
    """Mathematical floor of num/den for den > 0, valid for negative num."""
    return num // den


def _fraction_inverse(g: list[list[int]]) -> tuple[int, list[list[Fraction]]]:
    """Exact determinant and inverse of a square integer matrix."""
    m = len(g)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
        for i, row in enumerate(g)
    ]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            raise ArithmeticError("gram matrix of a lattice basis is singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    assert det.denominator == 1
    return int(det), [row[m:] for row in aug]


def build_pseudoinverse(basis: LatticeBasis) -> PseudoInverse:
    """Exact (gram_det, adjugate_product) pair for the basis; empty for rank 0."""
    n, m = basis.n, basis.m
    if m == 0:
        return PseudoInverse(n, 0, 1, ())
    gram = [
        [sum(a * b for a, b in zip(bi, bj)) for bj in basis.hnf_rows]
        for bi in basis.hnf_rows
    ]
    det, inv = _fraction_inverse(gram)
    if det <= 0:
        raise ArithmeticError(f"gram determinant must be positive, got {det}")
    adj = [[_as_int(det * x) for x in row] for row in inv]
    product = tuple(
        tuple(sum(adj[i][j] * basis.hnf_rows[j][k] for j in range(m)) for k in range(n))
        for i in range(m)
    )
    return PseudoInverse(n, m, det, product)


def _as_int(x: Fraction) -> int:
    assert x.denominator == 1
    return int(x)


def coefficient_numerators(pinv: PseudoInverse, x: Sequence[int]) -> tuple[int, ...]:
    """Numerators of the coefficient vector over gram_det; exposed for tests."""
    if len(x) != pinv.n:
        raise DimensionMismatchError(
            f"point of length {len(x)}, pseudoinverse over Z^{pinv.n}")
    return tuple(sum(r * c for r, c in zip(row, x)) for row in pinv.adjugate_product)


def reduce_mod_lattice(pinv: PseudoInverse, basis: LatticeBasis, x: Sequence[int]) -> Point:
    """Canonical representative of x modulo the basis lattice.

    The result is the unique lattice translate of x whose coefficients over
    the basis all lie in [0, 1); with an empty basis it is x itself.
    """
    if len(x) != pinv.n:
        raise DimensionMismatchError(
            f"point of length {len(x)}, lattice in Z^{pinv.n}")
    if pinv.m == 0:
        return tuple(int(c) for c in x)
    d = pinv.gram_det
    out = list(x)
    for row, bvec in zip(pinv.adjugate_product, basis.hnf_rows):
        q = floor_ratio(sum(r * c for r, c in zip(row, x)), d)
        if q:
            out = [a - q * b for a, b in zip(out, bvec)]
    return tuple(out)


def reduce_points(
    pinv: PseudoInverse,
    basis: LatticeBasis,
    points: Iterable[Sequence[int]],
) -> tuple[set[Point], dict[Point, Point]]:
    """Project every point; returns the representative set and the point map."""
    pts = sorted({tuple(int(c) for c in p) for p in points})
    reps_list = [reduce_mod_lattice(pinv, basis, p) for p in pts]
    assignment = dict(zip(pts, reps_list))
    return set(reps_list), assignment
