"""The point set of a run: its points in sorted order, in blocks and by index.

A domain is one of two kinds:

- a Box, the lattice points of an axis-aligned box, which is never listed
  point by point: its points in sorted (lexicographic) order are numbered
  by mixed radix, so point i has coordinate lo[j] + i // stride[j] % size[j]
  on axis j;
- SortedPoints, the distinct points of a points list in sorted order,
  checked once by sort_points.

Both give their points in sorted order, in blocks of at most BLOCK_POINTS,
as coordinate columns to reduce, and by sorted index (at). A points list
gives each block's columns (column_blocks). A box block is the product of
one range per axis: the trailing axes that fit in a block whole, the next
axis (the cut axis) cut into slices, and one value of each leading axis.
When the last axis alone is longer than a block, the block cuts that axis.
So every box block is a translate of a prefix of the first block, and a
box gives the columns of that block alone, the base, with every block's
point count, shift and parent, an earlier block of at least as many
points one cut-axis step or one head carry away (shifted_blocks): stage 2
reduces the base and moves its representatives, or steps a block's from
its parent's (see pipeline._numbered_blocks).

A box's geometry is public: its ranges, one per axis, and the split of
its trailing axes that fit in a given number of points (split), which
both its blocks and the CLI's text tables use.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, product, repeat
from math import prod
from operator import itemgetter, sub

from ._record import record
from .errors import DimensionMismatchError, InputError, InvalidDomainError
from .isometry import Point, int_tuple

TYPE_CHECKING = False
if TYPE_CHECKING:  # typing is costly to import, and annotations are never evaluated
    from typing import NoReturn

BLOCK_POINTS = 4096

DEFAULT_BOX_CAP = 10_000_000  # most points of a box, the CLI's --box-cap


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
    def ranges(self) -> tuple[range, ...]:
        return tuple(map(range, self.lo, [b + 1 for b in self.hi]))

    @cached_property
    def size(self) -> int:
        return prod(map(len, self.ranges))

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Point]:
        return product(*self.ranges)

    def split(self, bound: int) -> tuple[int, int]:
        """(k, inner): axes k.. are the longest run of trailing axes whose
        point count, inner, is at most bound."""
        ranges = self.ranges
        k, inner = len(ranges), 1
        while k and inner * len(ranges[k - 1]) <= bound:
            k -= 1
            inner *= len(ranges[k])
        return k, inner

    def shifted_blocks(self) -> tuple[list[list[int]], Iterator[
            tuple[int, list[int], tuple[int, tuple[int, ...]] | None]]]:
        """(base, blocks): the coordinate columns of the first block, the
        base, and for every block in sorted order its point count, its
        shift and its parent, the base first with shift 0 and no parent.

        Every block is the first point count points of the base moved by
        its shift: only the leading axes and the cut axis move. A block's
        slice of the cut axis is as long as the base's except the last of
        each head (each value of the leading axes), which may be shorter;
        the cut axis comes first in a block's order, so that block is a
        prefix.

        A block's parent is (p, d): block p, an earlier block with at least
        as many points, and d, the block's shift minus block p's, as a
        tuple. In the first head block p is the block before it, a whole
        slice, and d the step of the cut axis; in any later head it is the
        block of the same slice one head back, and d the head's carry. So
        there are at most n values of d: the step, and a carry per leading
        axis.
        """
        ranges = self.ranges
        k, inner = self.split(BLOCK_POINTS)
        if not k:  # the box is one block
            return _columns(ranges), iter([(self.size, [0] * len(ranges), None)])
        cut, step, zeros = ranges[k - 1], BLOCK_POINTS // inner, [0] * (len(ranges) - k)
        slices = range(0, len(cut), step)  # each slice's shift on the cut axis
        counts = [len(cut[i:i + step]) * inner for i in slices]
        along = (*[0] * (k - 1), step, *zeros)

        def blocks() -> Iterator[tuple[int, list[int], tuple[int, tuple[int, ...]] | None]]:
            heads = product(*map(range, map(len, ranges[:k - 1])))
            before = next(heads)  # each head's shift on the leading axes
            for p, (i, count) in enumerate(zip(slices, counts), -1):
                yield count, [*before, i, *zeros], (p, along) if i else None
            p = 0  # the block of the same slice one head back
            for head in heads:
                carry = (*map(sub, head, before), 0, *zeros)
                for i, count in zip(slices, counts):
                    yield count, [*head, i, *zeros], (p, carry)
                    p += 1
                before = head
        return _columns([*(r[:1] for r in ranges[:k - 1]), cut[:step], *ranges[k:]]), blocks()

    def at(self, indices: Sequence[int]) -> Iterable[Point]:
        """The points with the given sorted indices, decoded by mixed radix.
        A range of indices is read row by row along the last axis that has
        more than one value, each row a product of ranges."""
        if not self.lo:
            return repeat((), len(indices))
        ranges = self.ranges
        k = type(indices) is range and indices.step == 1 and self.split(1)[0]
        if k:  # a range, and axes k.. hold one value each
            a, b, row = indices.start, indices.stop, ranges[k - 1]
            size = len(row)
            heads = range(a // size, -(-b // size))
            return chain.from_iterable(
                product(*zip(head), row[max(a - h * size, 0):b - h * size], *ranges[k:])
                for h, head in zip(heads, Box(self.lo[:k - 1], self.hi[:k - 1]).at(heads)))
        cols, stride = [], 1
        for lo, r in zip(reversed(self.lo), reversed(ranges)):
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

    def column_blocks(self) -> Iterator[tuple[int, list[list[int]]]]:
        for i in range(0, len(self.points), BLOCK_POINTS):
            rows = self.points[i:i + BLOCK_POINTS]
            yield len(rows), [list(map(itemgetter(j), rows)) for j in range(self.n)]

    def at(self, indices: Sequence[int]) -> Iterable[Point]:
        """The points with the given sorted indices; a range of them is a slice."""
        if type(indices) is range:
            return self.points[indices.start:indices.stop]
        return map(self.points.__getitem__, indices)


def _columns(ranges: Sequence[range]) -> list[list[int]]:
    """The coordinate columns of the product of the ranges, in sorted order:
    axis j repeats each of its values once per point of the later axes,
    and the whole run once per point of the earlier ones."""
    count, outer, cols = prod(map(len, ranges)), 1, []
    for r in ranges:
        inner = count // (outer * len(r))
        col = list(r) if inner == 1 else list(chain.from_iterable(map(repeat, r, repeat(inner))))
        cols.append(col * outer)
        outer *= len(r)
    return cols


def gather(indices: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """The items of a sequence at the indices, in one C-level call: itemgetter,
    but a one-item slice for one index, where itemgetter(i) gives the item."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


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
