"""The point set of a run, handed to stage 2 in sorted blocks.

A domain is one of two kinds:

- a Box, the lattice points of an axis-aligned box, which is never listed
  point by point: its points in sorted (lexicographic) order are numbered
  by mixed radix, so point i has coordinate lo[j] + i // stride[j] % size[j]
  on axis j;
- SortedPoints, the distinct points of a points list in sorted order,
  checked once by sort_points.

Both give their points in sorted order, in blocks of at most BLOCK_POINTS,
as coordinate columns to reduce; by sorted index (at); and as texts to
write, by sorted index (texter). A points list gives each block's columns
(column_blocks). A box block is the product of one range per axis: the
trailing axes that fit in a block whole, the next axis (the cut axis) cut
into slices, and one value of each leading axis. When the last axis alone
is longer than a block, the block cuts that axis. So every box block is a
translate of a prefix of the first block, and a box gives the columns of
that block alone, the base, with every block's point count and shift
(shifted_blocks): stage 2 reduces the base and moves its representatives
(see pipeline.run_stage2).

A box's point texts are made in two parts: the trailing axes with at most
TEXT_TABLE points make a table of tail texts, filled once per writer, and
the leading axes a head text, made once per distinct head in each call;
a points list fills a %d template per point.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product, repeat
from math import prod
from operator import add, floordiv, itemgetter, mod
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from ._record import record
from .errors import DimensionMismatchError, InputError, InvalidDomainError
from .isometry import Point, int_tuple

BLOCK_POINTS = 4096
TEXT_TABLE = 256  # bound on a box's tail table, in texts

Texter = Callable[[Sequence[int]], Iterable[str]]


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

    def _split(self, bound: int) -> tuple[int, int]:
        """(k, inner): axes k.. are the longest run of trailing axes whose
        point count, inner, is at most bound."""
        ranges = self._ranges
        k, inner = len(ranges), 1
        while k and inner * len(ranges[k - 1]) <= bound:
            k -= 1
            inner *= len(ranges[k])
        return k, inner

    def _blocks(self) -> Iterator[list[range]]:
        """Each block as one range per axis, in sorted order."""
        ranges = self._ranges
        k, inner = self._split(BLOCK_POINTS)
        if not k:
            yield list(ranges)
            return
        cut, step, tail = ranges[k - 1], BLOCK_POINTS // inner, ranges[k:]
        for head in product(*ranges[:k - 1]):
            for i in range(0, len(cut), step):
                yield [*[range(v, v + 1) for v in head], cut[i:i + step], *tail]

    def shifted_blocks(self) -> tuple[list[list[int]], Iterator[tuple[int, list[int]]]]:
        """(base, shifts): the coordinate columns of the first block, the
        base, and the (point count, shift) of every block in sorted order,
        the base first with shift 0.

        Every block is the first point count points of the base moved by
        its shift: only the leading axes and the cut axis move. A block's
        slice of the cut axis is as long as the base's except the last of
        each value of the leading axes, which may be shorter; the cut axis
        comes first in a block's order, so that block is a prefix.
        """
        blocks = self._blocks()
        base = next(blocks)
        # axis j repeats each of its values once per point of the later
        # axes, and the whole run once per point of the earlier ones
        count, outer, cols = prod(map(len, base)), 1, []
        for r in base:
            inner = count // (outer * len(r))
            col = list(r) if inner == 1 else list(
                chain.from_iterable(map(repeat, r, repeat(inner))))
            cols.append(col * outer)
            outer *= len(r)
        starts = [r.start for r in base]
        shifts = ((prod(map(len, ranges)), [r.start - a for r, a in zip(ranges, starts)])
                  for ranges in blocks)
        return cols, chain([(count, [0] * len(base))], shifts)

    def at(self, indices: Sequence[int]) -> Iterable[Point]:
        """The points with the given sorted indices, decoded by mixed radix.
        A range of indices is read row by row along the last axis that has
        more than one value, each row a product of ranges."""
        if not self.lo:
            return repeat((), len(indices))
        ranges = self._ranges
        k, _ = self._split(1)  # axes k.. hold one value each
        if k and type(indices) is range and indices.step == 1:
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

    def tail_table(self, template: str) -> tuple[int, list[str]]:
        """(k, table): axes k.. are the trailing axes with at most
        TEXT_TABLE points, and table holds the texts of their points in
        sorted order, each filled into the template's slots past the k-th
        (template has one %d per axis and no other conversion)."""
        k, _ = self._split(TEXT_TABLE)
        tail = "%d".join(["", *template.split("%d")[k + 1:]])
        return k, list(map(tail.__mod__, product(*self._ranges[k:])))

    def texter(self, template: str) -> Texter:
        """The function from ascending sorted indices to the texts of their
        points, each filled into template (one %d per axis, no other
        conversion).

        With the tail table of T texts from tail_table, made here once,
        index i has the text head(i // T) + table[i % T], and a call makes
        the text of each distinct head among its indices once, in a dict
        keyed by head. When T = 1 (an axis alone is longer than the table)
        each point fills the whole template instead.
        """
        k, table = self.tail_table(template)
        t = len(table)
        if t == 1:
            return lambda indices: map(template.__mod__, self.at(indices))
        head = "%d".join(template.split("%d")[:k + 1])
        leading = Box(self.lo[:k], self.hi[:k])

        def texts(indices: Sequence[int]) -> Iterable[str]:
            heads = list(map(floordiv, indices, repeat(t)))
            distinct = list(dict.fromkeys(heads))
            text = dict(zip(distinct, map(head.__mod__, leading.at(distinct))))
            return map(add, map(text.__getitem__, heads),
                       map(table.__getitem__, map(mod, indices, repeat(t))))
        return texts


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
        for rows in blocks_of(self.points):
            yield len(rows), [list(map(itemgetter(j), rows)) for j in range(self.n)]

    def at(self, indices: Sequence[int]) -> Iterable[Point]:
        if type(indices) is range and indices.step == 1:
            return self.points[indices.start:indices.stop]
        return map(self.points.__getitem__, indices)

    def texter(self, template: str) -> Texter:
        """Indices to texts, as Box.texter: each point fills the template."""
        return lambda indices: map(template.__mod__, self.at(indices))


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
