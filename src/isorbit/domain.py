"""The point set of a run: sorted blocks for stage 2, chunks for writing.

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

The writers take point texts from chunks: all of them in order (TSV),
or those at some offsets of one chunk of the sorted indices, joined
(JSON). A points list, or a box whose trailing axes that fit in a block
have one point (as when its last axis alone is longer than a block), has
no table of texts: it is one chunk, and each point fills a %d template
in one function for both (filled). Any other box's point text is a head
text and a tail text from a table of its trailing axes, and a chunk is
whole heads, so the offsets of a class in a chunk find their tails in one
gather (see Box.chunks).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, product, repeat
from math import prod
from operator import add, floordiv, itemgetter, sub

from ._record import record
from .errors import DimensionMismatchError, InputError, InvalidDomainError
from .isometry import Point, int_tuple

TYPE_CHECKING = False
if TYPE_CHECKING:  # typing is costly to import, and annotations are never evaluated
    from typing import NoReturn

BLOCK_POINTS = 4096
RUN_MEMBERS = 4  # fewest offsets a head, on average, that Box.chunks joins as runs

Chunks = tuple[int, Callable[[], Iterator[list[str]]], Callable[[int, Sequence[int]], str]]

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
        ranges = self._ranges
        k, inner = self._split(BLOCK_POINTS)
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
        ranges = self._ranges
        k = type(indices) is range and indices.step == 1 and self._split(1)[0]
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

    def tail_table(self, template: str, bound: int) -> tuple[int, list[str]]:
        """(k, table): axes k.. are the trailing axes with at most bound
        points, and table holds the texts of their points in sorted order,
        each filled into the template's slots past the k-th (one %d per
        axis, no other conversion), made by adding an axis's texts at a time."""
        k, table = self._split(bound)[0], [""]
        for r, piece in zip(self._ranges[k:], template.split("%d")[k + 1:]):
            texts = list(map(add, map(str, r), repeat(piece)))
            table = list(map(add, chain.from_iterable(map(repeat, table, repeat(len(r)))),
                             texts * len(table)))
        return k, table

    def chunks(self, template: str, sep: str) -> Chunks:
        """As filled, but from a table of texts when there is one: with T
        tail texts from tail_table(template, BLOCK_POINTS), a chunk and a
        list are BLOCK_POINTS // T heads, index i having head i // T, so
        offset o has the tail chunk_table[o]; texts adds each head's text
        to every tail. When T = 1 there is no table, and this is filled.
        join writes a head's offsets as H + (sep + H).join(their tails), H
        the head's text, but offsets under RUN_MEMBERS a head as each one's
        head text and tail. Head texts come from a table of every head's
        (93 bytes a head for a 4-axis JSON template) when there are at most
        BLOCK_POINTS heads, else by decode."""
        k, table = self.tail_table(template, BLOCK_POINTS)
        t = len(table)
        if t == 1:
            return filled(self, template, sep)
        per, heads = BLOCK_POINTS // t, self.size // t  # heads a chunk, and in all
        chunk_table = table * per
        head = "%d".join(template.split("%d")[:k + 1])
        leading = Box(self.lo[:k], self.hi[:k])

        # at most BLOCK_POINTS head texts, as the tail table holds at most as many tails
        every = list(map(head.__mod__, leading.at(range(heads)))) if (
            heads <= BLOCK_POINTS) else None

        def heads_of(q: int, first: int = 0, last: int = per - 1) -> range:
            return range(q * per + first, min(q * per + last + 1, heads))

        def head_texts(these: Sequence[int]) -> list[str]:
            return list(map(every.__getitem__, these) if every else map(
                head.__mod__, leading.at(these)))

        def texts() -> Iterator[list[str]]:
            for q in range(-(-heads // per)):
                yield list(map(add, chain.from_iterable(map(
                    repeat, head_texts(heads_of(q)), repeat(t))), chunk_table))

        def join(q: int, offsets: Sequence[int]) -> str:
            first, last = offsets[0] // t, offsets[-1] // t
            tails = gather(offsets)(chunk_table)
            if len(offsets) < RUN_MEMBERS * (last - first + 1):
                return sep.join(map(add, head_texts(list(map(
                    add, map(floordiv, offsets, repeat(t)), repeat(q * per)))), tails))
            if first == last:
                h = head_texts(heads_of(q, first, first))[0]
                return h + (sep + h).join(tails)
            # the run of head h ends before the first offset of h + 1
            runs = [*map(bisect_left, repeat(offsets), range((first + 1) * t, (last + 1) * t, t)),
                    len(offsets)]
            return sep.join([h + (sep + h).join(tails[a:b]) for h, a, b in zip(
                head_texts(heads_of(q, first, last)), [0, *runs], runs) if a < b])
        return per * t, texts, join


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

    def chunks(self, template: str, sep: str) -> Chunks:
        """filled: a points list has no table of texts."""
        return filled(self, template, sep)


def filled(domain: Box | SortedPoints, template: str, sep: str) -> Chunks:
    """(chunk, texts, join) for a domain with no table of texts, each point
    filling the template (one %d per axis, no other conversion): texts()
    gives the points' texts in sorted order, in lists of BLOCK_POINTS read
    through domain.at a range at a time; join(q, offsets) joins by sep the
    texts at ascending offsets (at least one) in chunk q of the sorted
    indices, cut every `chunk`. Here the domain is one chunk, so offsets
    are sorted indices."""
    indices, fill = range(len(domain)), template.__mod__
    return (max(len(domain), 1),
            lambda: (list(map(fill, domain.at(indices[i:i + BLOCK_POINTS])))
                     for i in indices[::BLOCK_POINTS]),
            lambda q, offsets: sep.join(map(fill, domain.at(offsets))))


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
