"""Box blocks, and the CLI's point texts by table: the blocks as shifted
prefixes of the base and their parents, the tail table's bound, the texts
of each chunk and their joins against a plain %d fill of every point, and
ranges of sorted indices read as rows."""

import itertools
import tracemalloc
from array import array
from operator import add, sub
from random import Random

import pytest

import isorbit.domain
from isorbit import Box
from isorbit.cli import _point_texts, _tail_table

TEMPLATE_OF = {n: "[" + ", ".join(["%d"] * n) + "]" for n in range(5)}


def random_boxes(seed, count):
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(0, 4)
        lo = [rng.randint(-12, 5) for _ in range(n)]
        yield Box(lo, [a + rng.choice([0, 0, 1, 2, 4, 7]) for a in lo])


@pytest.mark.parametrize("block", [1, 3, 7, 24])
def test_blocks_are_shifted_prefixes_of_the_base_each_after_its_parent(block, monkeypatch):
    # the base's first point count points, each block's moved by its shift
    # and laid end to end, are the box's sorted points; each parent (p, d)
    # is an earlier block p of at least as many points, whose shift is the
    # block's less d, and there are at most n values of d
    monkeypatch.setattr(isorbit.domain, "BLOCK_POINTS", block)
    rng = Random(block)
    for _ in range(300):
        n = rng.randint(0, 5)
        lo = [rng.randint(-12, 5) for _ in range(n)]
        box = Box(lo, [a + rng.choice([0, 1, 2, 3, 5, 8]) for a in lo])
        base, blocks = box.shifted_blocks()
        rows, blocks = list(zip(*base)) if base else [()], list(blocks)
        assert all(count <= len(rows) for count, _t, _parent in blocks)
        assert [tuple(map(add, x, t)) for count, t, _parent in blocks
                for x in rows[:count]] == list(box)
        assert blocks[0][1:] == ([0] * n, None)
        for b, (count, t, (p, d)) in enumerate(blocks[1:], 1):
            assert p < b and blocks[p][0] >= count
            assert d == tuple(map(sub, t, blocks[p][1]))
        assert len({d for _count, _t, (_p, d) in blocks[1:]}) <= n


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 16, 256])
def test_the_tail_table_holds_at_most_its_bound(bound, monkeypatch):
    # the table is bounded by the block size, read at each call
    monkeypatch.setattr(isorbit.domain, "BLOCK_POINTS", bound)
    for box in random_boxes(bound, 300):
        template = TEMPLATE_OF[box.n]
        k, table = _tail_table(box, template)
        ranges = box.ranges
        assert len(table) <= bound
        # the longest run of trailing axes within the bound, and its texts
        assert k == 0 or len(ranges[k - 1]) * len(table) > bound
        tail = "%d".join(["", *template.split("%d")[k + 1:]])
        assert table == [tail % p for p in itertools.product(*ranges[k:])]


def test_texts_of_a_box_past_any_list_cost_a_table_and_a_chunk():
    # 10^12 points: the chunk texts, the texts of the first chunk and the
    # joins of chunks far apart fit in a few hundred kilobytes
    box = Box((0, 0, -5, 0), (999_999, 999_999, 5, 9))
    template = TEMPLATE_OF[4]
    tracemalloc.start()
    try:
        chunk, texts, join = _point_texts(box, template, ";")
        dense = next(texts())
        sparse = [join(p, array("H", [7])) for p in range(0, 10 ** 12 // chunk, 10 ** 8)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000
    assert dense == [template % p for p in box.at(list(range(chunk)))]
    assert sparse == [template % p for p in box.at(
        [p * chunk + 7 for p in range(0, 10 ** 12 // chunk, 10 ** 8)])]


@pytest.mark.parametrize("bound", [1, 2, 3, 16, 256])
def test_texts_are_the_filled_template_of_each_point(bound, monkeypatch):
    # under blocks of bound points, _point_texts cuts the indices into chunks of
    # whole heads of a table of at most bound texts, or into one chunk when
    # the table would hold one text: texts makes every point's text, in
    # lists of a chunk or of bound points, and join writes a chunk's dense
    # offsets as runs that share a head and its sparse ones from per-point
    # texts; all must give the filled template of each point
    rng = Random(bound)
    monkeypatch.setattr(isorbit.domain, "BLOCK_POINTS", bound)
    for box in random_boxes(100 + bound, 150):
        template = TEMPLATE_OF[box.n]
        chunk, texts, join = _point_texts(box, template, ";")
        points = list(box)
        size = len(points)
        t = len(_tail_table(box, template)[1])
        assert chunk == (bound // t * t if t > 1 else size)
        lists = list(texts())
        assert [len(x) for x in lists[:-1]] == [min(chunk, bound)] * (len(lists) - 1)
        assert list(itertools.chain.from_iterable(lists)) == [template % p for p in points]
        assert list(texts()) == lists  # each call starts over
        for q, start in enumerate(range(0, size, chunk)):
            inside = range(start, min(start + chunk, size))
            a = rng.randint(0, len(inside) - 1)
            b = rng.randint(a + 1, len(inside))
            sparse = sorted(rng.sample(inside, rng.randint(1, len(inside))))
            for indices in (inside, inside[a:b], inside[a:a + 1], sparse):
                offsets = array("H", [i - start for i in indices])
                assert join(q, offsets) == ";".join([template % points[i] for i in indices])


def test_a_range_of_indices_is_read_row_by_row():
    rng = Random(7)
    for box in random_boxes(7, 400):
        points = list(box)
        a = rng.randint(0, len(points))
        b = rng.randint(a, len(points))
        assert list(box.at(range(a, b))) == points[a:b]
        assert list(box.at(list(range(a, b)))) == points[a:b]
