"""Box point texts by table: the tail table's bound, the texts against a
plain %d fill of every point, and ranges of sorted indices read as rows."""

import itertools
import tracemalloc
from random import Random
from unittest import mock

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


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 16, isorbit.domain.TEXT_TABLE])
def test_the_tail_table_holds_at_most_its_bound(bound):
    with mock.patch.object(isorbit.domain, "TEXT_TABLE", bound):
        for box in random_boxes(bound, 300):
            template = TEMPLATE_OF[box.n]
            k, table = box.tail_table(template)
            ranges = box._ranges
            assert len(table) <= bound
            # the longest run of trailing axes within the bound, and its texts
            assert k == 0 or len(ranges[k - 1]) * len(table) > bound
            tail = "%d".join(["", *template.split("%d")[k + 1:]])
            assert table == [tail % p for p in itertools.product(*ranges[k:])]


def test_texts_of_a_box_past_any_list_cost_a_table_and_a_chunk():
    # 10^12 points: a texter and the texts of one chunk of them fit in a
    # few hundred kilobytes
    box = Box((0, 0, -5, 0), (999_999, 999_999, 5, 9))
    template = TEMPLATE_OF[4]
    dense = range(10 ** 11, 10 ** 11 + 4096)
    sparse = list(range(0, 10 ** 12, 10 ** 9))
    tracemalloc.start()
    try:
        texts = box.texter(template)
        dense_texts, sparse_texts = list(texts(dense)), list(texts(sparse))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000
    assert dense_texts == [template % p for p in box.at(list(dense))]
    assert sparse_texts == [template % p for p in box.at(sparse)]


@pytest.mark.parametrize("bound", [1, 2, 3, 16, isorbit.domain.TEXT_TABLE])
def test_texts_are_the_filled_template_of_each_point(bound):
    rng = Random(bound)
    with mock.patch.object(isorbit.domain, "TEXT_TABLE", bound):
        for box in random_boxes(100 + bound, 150):
            template = TEMPLATE_OF[box.n]
            texts = box.texter(template)
            points = list(box)
            size = len(points)
            a = rng.randint(0, size)
            b = rng.randint(a, size)
            dense = list(range(a, b))
            sparse = sorted(rng.sample(range(size), rng.randint(0, size)))
            for indices in (range(a, b), dense, sparse, range(0), []):
                assert list(texts(indices)) == [template % points[i] for i in indices]


def test_a_range_of_indices_is_read_row_by_row():
    rng = Random(7)
    for box in random_boxes(7, 400):
        points = list(box)
        a = rng.randint(0, len(points))
        b = rng.randint(a, len(points))
        assert list(box.at(range(a, b))) == points[a:b]
        assert list(box.at(list(range(a, b)))) == points[a:b]
