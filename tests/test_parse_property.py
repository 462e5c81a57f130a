"""Property test of the points-file parser: cli.parse_domain checks types
over whole lists, and on any points document it must give the same sorted
point list, or the same error message, as the per-point parser of
tests/reference.py.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from isorbit import InputError  # noqa: E402
from isorbit.cli import parse_domain  # noqa: E402
from reference import per_point_parse_points  # noqa: E402

COORDINATES = st.one_of(
    st.integers(-3, 3),
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 1]),
)
BAD_COORDINATES = st.sampled_from([True, False, 1.5, -0.0, float("nan"), "x", None, [1], {}])
BAD_POINTS = st.sampled_from([3, None, "p", 1.5, True, {"x": [1]}])


@st.composite
def points_documents(draw):
    """A points document: a few distinct points repeated in any order, of
    one dimension or ragged, with up to two bad points or coordinates put
    anywhere."""
    n = draw(st.integers(1, 4))
    length = st.integers(0, 5) if draw(st.booleans()) else st.just(n)
    pool = draw(st.lists(
        length.flatmap(lambda k: st.lists(COORDINATES, min_size=k, max_size=k)),
        min_size=1, max_size=8))
    points = [list(p) for p in draw(st.lists(st.sampled_from(pool), max_size=30))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(points)))
        if draw(st.booleans()):
            point = list(draw(st.sampled_from(pool)))
            point.insert(draw(st.integers(0, len(point))), draw(BAD_COORDINATES))
        else:
            point = draw(BAD_POINTS)
        points.insert(at, point)
    return json.dumps({"points": points})


def outcome(parse, text):
    try:
        return "points", parse(text)
    except InputError as e:
        return "error", str(e)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(points_documents())
def test_parse_domain_matches_the_per_point_parser(text):
    got = outcome(parse_domain, text)
    assert got == outcome(per_point_parse_points, text)
    if got[0] == "points":
        assert all(type(c) is int for p in got[1] for c in p)
