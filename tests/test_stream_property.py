"""Property tests of the streamed stage 2 and of the box text tables.

On random generators and domains, the CLI's output bytes, in both formats,
equal those of the whole-list chain kept in tests/reference.py
(reduce_points, the dict-returning class merge witness_merge_classes,
finalize_labels, render_json and render_tsv). And a box gives the same
bytes as its points written as a points file: a points file is written by
filling a %d template per point, so it is an oracle that uses no table.

The lattices have every rank from 0 to n: r translations span the first r
axes, and the rotations keep those axes apart from the rest. The domains
are boxes, with negative bounds and singleton axes, and points files,
shuffled and with duplicates. The block size is set to 1, 3 or 7 points,
so blocks cut axes and classes part way, as well as to its default, and
the tail-table bound to 1, 2 or 3 texts, so tables stop at every axis, as
well as to its default. Some boxes end the cut axis in a short slice after
every value of the leading axes, so every head group's last block is a
prefix of the base; and stage 2 takes both of its paths on them, moving
the base's representatives or (when the base's points are all distinct
representatives) the base's points. Mutants of the tables (a tail table
one axis short, a head decode without its modulus, a head text reused
across a head boundary) and of the moved blocks (a shift with its sign
flipped or taken from the wrong axis, a short block that keeps every base
representative) must each make the box and points-file bytes differ.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import itertools
import json
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import isorbit.cli  # noqa: E402
import isorbit.domain  # noqa: E402
import isorbit.pipeline  # noqa: E402
from isorbit import Box, run_stage1  # noqa: E402
from isorbit.cli import main, parse_generators  # noqa: E402
from conftest import mutant_module  # noqa: E402
from reference import (  # noqa: E402
    finalize_labels,
    reduce_points,
    render_json,
    render_tsv,
    witness_merge_classes,
)

TABLES = [1, 2, 3, isorbit.domain.TEXT_TABLE]
BLOCKS = [1, 3, 7, isorbit.domain.BLOCK_POINTS]


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
    witness = witness_merge_classes(reps, stage1.gens.rotation_generators(), stage1.basis)
    labeling = finalize_labels(assignment, witness)
    text = render_json(stage1, labeling) if fmt == "json" else render_tsv(labeling)
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("stream")


def sizes(block, table, module=isorbit.domain):
    """BLOCK_POINTS and TEXT_TABLE of module patched to the given values."""
    return mock.patch.multiple(module, BLOCK_POINTS=block, TEXT_TABLE=table)


def run_cli(gens_path, domain, fmt, out) -> bytes:
    assert main(["--gens", str(gens_path), *domain, "--format", fmt,
                 "--output", str(out)]) == 0
    return out.read_bytes()


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.data(), generator_documents(), st.sampled_from(BLOCKS),
                  st.sampled_from(TABLES))
def test_streamed_output_matches_the_whole_list_chain(workdir, data, gens, block, table):
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
        with sizes(block, table):
            out = run_cli(gens_path, domain, fmt, workdir / f"out.{fmt}")
        assert out == oracle_bytes(gens_doc, points, fmt)


def box_and_points_bytes(workdir, gens_doc, lo, hi, fmt) -> tuple[bytes, bytes]:
    """The output bytes of the box lo..hi and of its points as a points file."""
    gens_path = workdir / "gens.json"
    gens_path.write_text(json.dumps(gens_doc), encoding="utf-8")
    dom = workdir / "domain.json"
    points = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    dom.write_text(json.dumps({"points": list(points)}), encoding="utf-8")
    box = ["--box=" + ",".join(f"{a}..{b}" for a, b in zip(lo, hi))]
    return (run_cli(gens_path, box, fmt, workdir / f"box.{fmt}"),
            run_cli(gens_path, ["--domain", str(dom)], fmt, workdir / f"points.{fmt}"))


@st.composite
def boxes(draw, n):
    """(lo, hi) of a box in Z^n of up to 6 values an axis and 1,500 points:
    tables of every bound stop inside it, with several heads."""
    lo = draw(st.lists(st.integers(-12, 3), min_size=n, max_size=n))
    hi, points = [], 1
    for a in lo:
        k = draw(st.integers(1, min(6, 1500 // points)))
        hi.append(a + k - 1)
        points *= k
    return lo, hi


@st.composite
def short_sliced_boxes(draw, n, block):
    """(lo, hi) of a box in Z^n whose cut axis, under blocks of `block`
    points, ends in a short slice after each value of the leading axes,
    and whose first leading axis (if any) has several values."""
    cut = draw(st.integers(0, n - 1))
    inner, tail = 1, []
    for _ in range(cut + 1, n):  # a slice holds at least two values of the cut axis
        tail.append(draw(st.integers(1, max(1, block // 2 // inner))))
        inner *= tail[-1]
    step = block // inner
    length = step * draw(st.integers(1, 3)) + draw(st.integers(1, step - 1))
    lead, points = [], length * inner
    for j in range(cut):
        lead.append(draw(st.integers(2 if j == 0 else 1, max(2, min(3, 1500 // points)))))
        points *= lead[-1]
    lo = draw(st.lists(st.integers(-12, 3), min_size=n, max_size=n))
    return lo, [a + k - 1 for a, k in zip(lo, [*lead, length, *tail])]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data(), generator_documents(), st.sampled_from(BLOCKS),
                  st.sampled_from(TABLES))
def test_a_box_writes_the_bytes_of_its_points_file(workdir, data, gens, block, table):
    n, rank, gens_doc = gens
    short = block in (3, 7) and data.draw(st.booleans())
    lo, hi = data.draw(short_sliced_boxes(n, block) if short else boxes(n))
    basis = run_stage1(parse_generators(json.dumps(gens_doc))).basis
    with sizes(block, table):
        counts = [size for size, _shift in Box(lo, hi).shifted_blocks()[1]]
        loc, _first, _blocks = isorbit.pipeline._local_blocks(Box(lo, hi), basis)
    assert not short or counts.count(counts[0]) < len(counts)
    hypothesis.event(f"rank {rank} of n = {n}")
    hypothesis.event("base points moved" if loc is None else "base representatives moved")
    hypothesis.event("short blocks" if min(counts) < counts[0] else "no short block")
    for fmt in ("json", "tsv"):
        with sizes(block, table):
            from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
        assert from_box == from_points


MUTANTS = {
    "tail table one axis short": [
        ('tail = "%d".join(["", *template.split("%d")[k + 1:]])',
         'tail = "%d".join(["", *template.split("%d")[k + 2:]])'),
        ("product(*self._ranges[k:])", "product(*self._ranges[k + 1:])")],
    "head decode without its modulus": [
        ("lo + i // stride % size", "lo + i // stride")],
    "head text reused across a head boundary": [
        ("map(text.__getitem__, heads)", "repeat(text[distinct[0]])")],
}

# a one-class lattice (every index of a class chunk dense) and a lattice
# with a rotation (sparse class chunks), in Z^4
MUTANT_GENS = [
    {"n": 4, "generators": [{"type": "translation", "v": v} for v in
                            ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])]},
    {"n": 4, "generators": [{"type": "translation", "v": [3, 0, 0, 0]},
                            {"type": "translation", "v": [1, 1, 1, 1]},
                            {"type": "negation", "signs": [-1, -1, -1, -1]}]},
]


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_table_mutant_makes_a_box_differ_from_its_points(workdir, monkeypatch, name):
    mutant = mutant_module(isorbit.domain, MUTANTS[name])
    cases = [(gens_doc, (-2, 0, -1, 3), (0, 2, 2, 6), fmt, table)
             for gens_doc in MUTANT_GENS for fmt in ("json", "tsv")
             for table in (4, 16, isorbit.domain.TEXT_TABLE)]

    def differs(gens_doc, lo, hi, fmt, table) -> bool:
        block = isorbit.domain.BLOCK_POINTS
        with sizes(block, table), sizes(block, table, mutant):
            try:
                from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
            except Exception:  # a mutant may fail outright
                return True
        return from_box != from_points

    assert not any(differs(*case) for case in cases)  # the tables pass every case
    for method in ("at", "tail_table", "texter"):
        monkeypatch.setattr(isorbit.domain.Box, method, getattr(mutant.Box, method))
    for fmt in ("json", "tsv"):  # each writer catches the mutant
        assert any(differs(*case) for case in cases if case[3] == fmt)


SHIFT = "[r.start - a for r, a in zip(ranges, starts)]"
STAGE2_MUTANTS = {
    "a shift with its sign flipped": (
        isorbit.domain, [(SHIFT, "[a - r.start for r, a in zip(ranges, starts)]")]),
    "a shift taken from the wrong axis": (isorbit.domain, [(SHIFT, SHIFT + "[::-1]")]),
    "a short block that keeps all base representatives": (
        isorbit.pipeline, [("m = bisect_left(first, size)", "m = len(first)")]),
}

# the base repeats representatives under both lattices, and the box's
# blocks of 40 points (2 values of axis 1 by 16 of axes 2 and 3) end each
# value of axis 0 in a short slice of 1
STAGE2_MUTANT_GENS = [MUTANT_GENS[1], {"n": 4, "generators": [
    {"type": "translation", "v": v} for v in ([3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0],
                                              [1, 1, 1, 1])]}]


@pytest.mark.parametrize("name", list(STAGE2_MUTANTS))
def test_each_moved_block_mutant_makes_a_box_differ_from_its_points(workdir, monkeypatch, name):
    module, edits = STAGE2_MUTANTS[name]
    mutant = mutant_module(module, edits)
    lo, hi = (-2, 0, -1, 3), (1, 4, 2, 6)

    def differs(gens_doc, fmt) -> bool:
        with sizes(40, isorbit.domain.TEXT_TABLE):
            try:
                from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
            except Exception:  # a mutant may fail outright
                return True
        return from_box != from_points

    cases = [(gens_doc, fmt) for gens_doc in STAGE2_MUTANT_GENS for fmt in ("json", "tsv")]
    assert not any(differs(*case) for case in cases)
    if module is isorbit.domain:
        monkeypatch.setattr(isorbit.domain.Box, "shifted_blocks", mutant.Box.shifted_blocks)
    else:
        monkeypatch.setattr(isorbit.cli, "run_stage2", mutant.run_stage2)
    for fmt in ("json", "tsv"):
        assert any(differs(*case) for case in cases if case[1] == fmt)
