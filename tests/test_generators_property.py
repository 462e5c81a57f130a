"""Property test of the generator file as the CLI reads it: on any
JSON-shaped generator document and a small box, a run exits 0, 1, 2 or 3.
An exit 1 prints exactly one JSON error object on stderr and writes no
output. An exit 0 prints a partition that the padded-box walk at padding 2
refines, since edges inside a bounded window never join two orbits.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import refines  # noqa: E402
from isorbit.cli import main, parse_box_spec, parse_generators  # noqa: E402
from reference import bfs_orbits  # noqa: E402

INTEGERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2 ** 63, -2 ** 70, 10 ** 40]),
)
JUNK = st.sampled_from([None, True, False, 1.5, -0.0, "x", "1", [], {}, [1, [2]], {"v": 1}])
KINDS = ("translation", "negation", "permutation")


@st.composite
def vectors(draw, k, values):
    """Mostly a list of k values, sometimes of another length, sometimes
    with a junk entry, sometimes junk in place of the list."""
    roll = draw(st.integers(0, 19))
    if roll == 19:
        return draw(JUNK)
    length = k if roll < 16 else draw(st.integers(0, k + 1))
    vec = draw(st.lists(values, min_size=length, max_size=length))
    if roll == 18:
        vec.insert(draw(st.integers(0, len(vec))), draw(JUNK))
    return vec


@st.composite
def permutations(draw, k):
    perm = list(range(k))
    return draw(st.permutations(perm)) if draw(st.booleans()) else draw(
        vectors(k, st.integers(-1, k)))


@st.composite
def entries(draw, k):
    """One generator entry: a well-formed one of each kind, or a broken one."""
    roll = draw(st.integers(0, 19))
    if roll < 6:
        return {"type": "translation", "v": draw(vectors(k, INTEGERS))}
    if roll < 12:
        return {"type": "negation", "signs": draw(vectors(k, st.sampled_from([1, -1, 1, -1, 0])))}
    if roll < 18:
        return {"type": "permutation", "perm": draw(permutations(k))}
    return draw(st.one_of(
        JUNK,
        st.fixed_dictionaries({"type": st.one_of(JUNK, st.sampled_from(["glide", "Translation"]))}),
        st.fixed_dictionaries({"type": st.sampled_from(KINDS)}),
        st.fixed_dictionaries({"v": vectors(k, INTEGERS)}),
    ))


@st.composite
def generator_documents(draw):
    """The box dimension and a generator document: mostly {"n", "generators"}
    with n in 1..3, sometimes with a bad n, a bad list or a bad document."""
    n = draw(st.integers(1, 3))
    k = n if draw(st.integers(0, 5)) < 5 else draw(st.integers(1, 4))
    doc = {"n": n, "generators": draw(st.lists(entries(k), max_size=4))}
    roll = draw(st.integers(0, 19))
    if roll == 16:
        doc["n"] = draw(st.one_of(JUNK, st.sampled_from([0, -1, 12])))
    elif roll == 17:
        doc["generators"] = draw(JUNK)
    elif roll == 18:
        del doc[draw(st.sampled_from(["n", "generators"]))]
    elif roll == 19:
        doc = draw(JUNK)
    box_dim = n if draw(st.integers(0, 7)) < 7 else draw(st.integers(1, 4))
    axes = draw(st.lists(
        st.integers(-2, 1).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 2))),
        min_size=box_dim, max_size=box_dim))
    box = ",".join(f"{lo}..{hi}" for lo, hi in axes)
    return json.dumps(doc), box


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generators")


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(generator_documents(), st.sampled_from([None, 1, 2, 3]))
def test_any_generator_document_exits_by_the_error_contract(workdir, document, cap):
    text, box = document
    gens = workdir / "gens.json"
    gens.write_text(text, encoding="utf-8")
    out = workdir / "out.json"
    out.unlink(missing_ok=True)
    argv = ["--gens", str(gens), f"--box={box}", "--output", str(out)]
    if cap is not None:
        argv += ["--closure-cap", str(cap)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2, 3)
    hypothesis.event(f"exit {code}")
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and not out.exists()
        doc = json.loads(lines[0])
        assert isinstance(doc, dict) and set(doc) == {"error", "message"}
        hypothesis.event(doc["error"])
    if code == 0:
        assert err.getvalue() == ""
        printed = {frozenset(map(tuple, cls["members"]))
                   for cls in json.loads(out.read_text())["classes"]}
        points = parse_box_spec(box)
        assert set().union(*printed) == set(points)
        assert refines(bfs_orbits(parse_generators(text), points, 2), printed)
