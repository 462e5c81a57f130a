"""Property test of the streamed stage 2: on random generators and domains,
the CLI's output bytes, in both formats, equal those of the whole-list
chain kept in tests/reference.py (reduce_points, the class merge,
finalize_labels, render_json and render_tsv).

The lattices have every rank from 0 to n: r translations span the first r
axes, and the rotations keep those axes apart from the rest. The domains
are boxes, with negative bounds and singleton axes, and points files,
shuffled and with duplicates. The block size is set to 1, 3 or 7 points,
so blocks cut axes and classes part way, as well as to its default.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import itertools
import json
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import isorbit.domain  # noqa: E402
from isorbit import merge_classes_generators, run_stage1  # noqa: E402
from isorbit.cli import main, parse_generators  # noqa: E402
from reference import finalize_labels, reduce_points, render_json, render_tsv  # noqa: E402


@st.composite
def generator_documents(draw):
    """(n, rank, generator document) with a lattice of exactly that rank."""
    n, r = draw(st.sampled_from([(n, r) for n in range(1, 6) for r in range(n + 1)]))
    gens = []
    for i in range(r):  # upper triangular on the first r axes, nonzero diagonal
        v = [0] * n
        v[i] = draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1]))
        for j in range(i + 1, r):
            v[j] = draw(st.integers(-3, 3))
        gens.append({"type": "translation", "v": v})
    for _ in range(draw(st.integers(0, 2))):
        gens.append({"type": "negation",
                     "signs": draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))})
    for _ in range(draw(st.integers(0, 2))):
        head = draw(st.permutations(range(r)))
        tail = draw(st.permutations(range(r, n)))
        gens.append({"type": "permutation", "perm": [*head, *tail]})
    return n, r, {"n": n, "generators": draw(st.permutations(gens))}


@st.composite
def domains(draw, n):
    """(CLI domain arguments, the domain's points in some order): a box, or
    a points file shuffled and with duplicates."""
    if draw(st.booleans()):
        lo = draw(st.lists(st.integers(-4, 2), min_size=n, max_size=n))
        size = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        spec = ",".join(f"{a}..{a + k - 1}" for a, k in zip(lo, size))
        return ["--box=" + spec], list(itertools.product(
            *(range(a, a + k) for a, k in zip(lo, size))))
    point = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    points = draw(st.lists(point, max_size=40))
    extra = draw(st.lists(st.sampled_from(points), max_size=10)) if points else []
    return ["--domain"], draw(st.permutations(points + extra))


def oracle_bytes(gens_doc, points, fmt) -> bytes:
    stage1 = run_stage1(parse_generators(json.dumps(gens_doc)))
    reps, assignment = reduce_points(stage1.basis, points)
    witness = merge_classes_generators(
        reps, stage1.gens.rotation_generators(), stage1.basis)
    labeling = finalize_labels(assignment, witness)
    text = render_json(stage1, labeling) if fmt == "json" else render_tsv(labeling)
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("stream")


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.data(), generator_documents(), st.sampled_from([1, 3, 7, 4096]))
def test_streamed_output_matches_the_whole_list_chain(workdir, data, gens, block):
    n, rank, gens_doc = gens
    domain, points = data.draw(domains(n))
    hypothesis.event(f"rank {rank} of n = {n}")
    hypothesis.event("points file" if domain == ["--domain"] else "box")
    gens_path = workdir / "gens.json"
    gens_path.write_text(json.dumps(gens_doc), encoding="utf-8")
    if domain == ["--domain"]:
        dom = workdir / "domain.json"
        dom.write_text(json.dumps({"points": points}), encoding="utf-8")
        domain = ["--domain", str(dom)]
    assert run_stage1(parse_generators(json.dumps(gens_doc))).basis.m == rank
    for fmt in ("json", "tsv"):
        out = workdir / f"out.{fmt}"
        with mock.patch.object(isorbit.domain, "BLOCK_POINTS", block):
            assert main(["--gens", str(gens_path), *domain, "--format", fmt,
                         "--output", str(out)]) == 0
        assert out.read_bytes() == oracle_bytes(gens_doc, points, fmt)
