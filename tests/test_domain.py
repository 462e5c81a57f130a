"""Box point texts by table: the tail table's bound, the texts of each
chunk and their joins against a plain %d fill of every point, and ranges
of sorted indices read as rows."""

import itertools
import tracemalloc
from array import array
from random import Random

import pytest

import isorbit.domain
from isorbit import Box

TEMPLATE_OF = {n: "[" + ", ".join(["%d"] * n) + "]" for n in range(5)}


def random_boxes(seed, count):
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(0, 4)
        lo = [rng.randint(-12, 5) for _ in range(n)]
        yield Box(lo, [a + rng.choice([0, 0, 1, 2, 4, 7]) for a in lo])


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 16, 256])
def test_the_tail_table_holds_at_most_its_bound(bound):
    for box in random_boxes(bound, 300):
        template = TEMPLATE_OF[box.n]
        k, table = box.tail_table(template, bound)
        ranges = box._ranges
        assert len(table) <= bound
        # the longest run of trailing axes within the bound, and its texts
        assert k == 0 or len(ranges[k - 1]) * len(table) > bound
        tail = "%d".join(["", *template.split("%d")[k + 1:]])
        assert table == [tail % p for p in itertools.product(*ranges[k:])]


def test_texts_of_a_box_past_any_list_cost_a_table_and_a_chunk():
    # 10^12 points: the chunk texts, the texts of one chunk and the joins
    # of chunks far apart fit in a few hundred kilobytes
    box = Box((0, 0, -5, 0), (999_999, 999_999, 5, 9))
    template = TEMPLATE_OF[4]
    tracemalloc.start()
    try:
        chunk, texts, join = box.chunks(template, ";")
        q = 10 ** 11 // chunk
        dense = next(texts(q))
        sparse = [join(p, array("H", [7])) for p in range(0, 10 ** 12 // chunk, 10 ** 8)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000
    assert dense == [template % p for p in box.at(list(range(q * chunk, q * chunk + chunk)))]
    assert sparse == [template % p for p in box.at(
        [p * chunk + 7 for p in range(0, 10 ** 12 // chunk, 10 ** 8)])]


@pytest.mark.parametrize("bound", [1, 2, 3, 16, 256])
def test_texts_are_the_filled_template_of_each_point(bound, monkeypatch):
    # under blocks of bound points, chunks cuts the indices into chunks of
    # whole heads of a table of at most bound texts, or into one chunk when
    # the table would hold one text: texts makes every point's text, in
    # lists of a chunk or of bound points, and join writes a chunk's dense
    # offsets as runs that share a head and its sparse ones from per-point
    # texts; all must give the filled template of each point
    rng = Random(bound)
    monkeypatch.setattr(isorbit.domain, "BLOCK_POINTS", bound)
    for box in random_boxes(100 + bound, 150):
        template = TEMPLATE_OF[box.n]
        chunk, texts, join = box.chunks(template, ";")
        points = list(box)
        size = len(points)
        t = len(box.tail_table(template, bound)[1])
        assert chunk == (bound // t * t if t > 1 else size)
        lists = list(texts())
        assert [len(x) for x in lists[:-1]] == [min(chunk, bound)] * (len(lists) - 1)
        assert list(itertools.chain.from_iterable(lists)) == [template % p for p in points]
        assert list(texts(len(lists) - 1)) == lists[-1:]
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
