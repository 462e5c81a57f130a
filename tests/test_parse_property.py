"""Property test of the points-file checks: cli.parse_domain checks the
document's shape and reduce_points the points, over whole lists. On any
points document a CLI run must exit 1 naming the same first bad point as
the per-point parser of tests/reference.py, or exit 0 labelling exactly
that parser's point set.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from isorbit import IsorbitError  # noqa: E402
from isorbit.cli import main  # noqa: E402
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
    """A dimension n and a points document: a few distinct points repeated
    in any order, all in Z^n or ragged, with up to two bad points or
    coordinates put anywhere."""
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
    return n, json.dumps({"points": points})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("points")


def cli_outcome(workdir, n, text):
    """("error", code, "point {idx}") or ("points", sorted point list) of a
    TSV run in Z^n on the points document."""
    gens = workdir / "gens.json"
    gens.write_text(json.dumps({"n": n, "generators": [
        {"type": "translation", "v": [1] + [0] * (n - 1)},
        {"type": "negation", "signs": [-1] * n}]}), encoding="utf-8")
    domain = workdir / "domain.json"
    domain.write_text(text, encoding="utf-8")
    out = workdir / "out.tsv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--gens", str(gens), "--domain", str(domain), "--format", "tsv",
                     "--output", str(out)])
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and not out.exists()
        doc = json.loads(lines[0])
        return "error", doc["error"], doc["message"].split(":")[0]
    assert code == 0 and err.getvalue() == ""
    return "points", [tuple(map(int, line.split("\t")[0].split(",")))
                      for line in out.read_text().splitlines()]


def oracle_outcome(n, text):
    try:
        return "points", per_point_parse_points(text, n)
    except IsorbitError as e:
        return "error", e.code, str(e).split(":")[0]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(points_documents())
def test_parse_domain_matches_the_per_point_parser(workdir, document):
    n, text = document
    assert cli_outcome(workdir, n, text) == oracle_outcome(n, text)
