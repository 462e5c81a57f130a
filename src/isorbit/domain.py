"""The point set of a run, handed to stage 2 in sorted blocks.

A domain is one of two kinds:

- a Box, the lattice points of an axis-aligned box, which is never listed
  point by point: its points in sorted (lexicographic) order are numbered
  by mixed radix, so point i has coordinate lo[j] + i // stride[j] % size[j]
  on axis j;
- SortedPoints, the distinct points of a points list in sorted order,
  checked once by sort_points.

Both give their points in sorted order, in blocks of at most BLOCK_POINTS:
as coordinate columns to reduce (column_blocks), as point tuples to write
(row_blocks), and by sorted index (at). A box block is the product of one
range per axis: the trailing axes that fit in a block whole, the next axis
cut into slices, and one value of each leading axis. When the last axis
alone is longer than a block, the block cuts that axis.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product, repeat
from math import prod
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn, Sequence

from ._record import record
from .errors import DimensionMismatchError, InputError, InvalidDomainError
from .isometry import Point, int_tuple

BLOCK_POINTS = 4096


@record(frozen=True)
class Box:
    """The points x with lo[j] <= x[j] <= hi[j] on every axis; lo <= hi."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", int_tuple(self.lo, "box min"))
        object.__setattr__(self, "hi", int_tuple(self.hi, "box max"))
        if len(self.lo) != len(self.hi):
            raise InputError(
                f"box min has length {len(self.lo)}, max has length {len(self.hi)}")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise InvalidDomainError(f"box min {a} exceeds max {b}")

    @property
    def n(self) -> int:
        return len(self.lo)

    @cached_property
    def _ranges(self) -> tuple[range, ...]:
        return tuple(map(range, self.lo, [b + 1 for b in self.hi]))

    @cached_property
    def size(self) -> int:
        return prod(map(len, self._ranges))

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Point]:
        return product(*self._ranges)

    def _blocks(self) -> Iterator[list[range]]:
        """Each block as one range per axis, in sorted order."""
        ranges = self._ranges
        k, inner = len(ranges), 1
        while k and inner * len(ranges[k - 1]) <= BLOCK_POINTS:
            k -= 1
            inner *= len(ranges[k])
        if not k:
            yield list(ranges)
            return
        cut, step, tail = ranges[k - 1], BLOCK_POINTS // inner, ranges[k:]
        for head in product(*ranges[:k - 1]):
            for i in range(0, len(cut), step):
                yield [*[range(v, v + 1) for v in head], cut[i:i + step], *tail]

    def column_blocks(self) -> Iterator[tuple[int, list[list[int]]]]:
        """(point count, coordinate columns) of each block: axis j repeats
        each of its values once per point of the later axes, and the
        whole run once per point of the earlier ones."""
        for ranges in self._blocks():
            count, outer, cols = prod(map(len, ranges)), 1, []
            for r in ranges:
                inner = count // (outer * len(r))
                col = list(r) if inner == 1 else list(
                    chain.from_iterable(map(repeat, r, repeat(inner))))
                cols.append(col * outer)
                outer *= len(r)
            yield count, cols

    def row_blocks(self) -> Iterator[Iterable[Point]]:
        return (product(*ranges) for ranges in self._blocks())

    def at(self, indices: Sequence[int]) -> Iterable[Point]:
        """The points with the given sorted indices, decoded by mixed radix."""
        if not self.lo:
            return repeat((), len(indices))
        cols, stride = [], 1
        for lo, r in zip(reversed(self.lo), reversed(self._ranges)):
            size = len(r)
            cols.append([lo + i // stride % size for i in indices])
            stride *= size
        return zip(*reversed(cols))


@record
class SortedPoints:
    """Distinct points in Z^n, sorted; sort_points makes them from any list.
    The points stay the list sort_points sorted, so it is not hashable."""

    n: int
    points: list[Point]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def row_blocks(self) -> Iterator[list[Point]]:
        return blocks_of(self.points)

    def column_blocks(self) -> Iterator[tuple[int, list[list[int]]]]:
        for rows in self.row_blocks():
            yield len(rows), [list(map(itemgetter(j), rows)) for j in range(self.n)]

    def at(self, indices: Sequence[int]) -> Iterable[Point]:
        return map(self.points.__getitem__, indices)


def blocks_of(seq: Sequence) -> Iterator[Sequence]:
    """seq in consecutive slices of at most BLOCK_POINTS items."""
    return (seq[i:i + BLOCK_POINTS] for i in range(0, len(seq), BLOCK_POINTS))


def sort_points(points: Iterable[Sequence[int]], n: int) -> SortedPoints:
    """Check every point, then deduplicate and sort them.

    This is where a points list is checked, once: every point must have n
    coordinates, each of type int (bool and float are rejected, not
    truncated). The lengths and the coordinate types are checked over
    whole lists; only when a check fails are the points walked, to name
    the first bad one by its position in the input.
    """
    try:
        pts = list(map(tuple, points))
    except TypeError as e:
        raise InputError(f"points must be sequences of integers: {e}") from e
    if set(map(len, pts)) - {n} or set(map(type, chain.from_iterable(pts))) - {int}:
        _reject_first_bad_point(pts, n)
    return SortedPoints(n, sorted(set(pts)))


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
