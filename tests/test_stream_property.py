"""Property tests of the streamed stage 2 and of the box text tables.

On random generators and domains, the CLI's output bytes, in both formats,
equal those of the whole-list chain kept in tests/reference.py
(reduce_points, the dict-returning class merge witness_merge_classes,
finalize_labels, render_json and render_tsv). And a box gives the same
bytes as that chain and as its points written as a points file: a points
file is written by filling a %d template per point, so it is an oracle
that uses no table.

The lattices have every rank from 0 to n: r translations span the first r
axes, and the rotations keep those axes apart from the rest. The domains
are boxes, with negative bounds and singleton axes, and points files,
shuffled and with duplicates. The block size is set to 1, 3, 7 or 24
points, so blocks cut axes and classes part way and the tail table
(bounded by the block size) stops at every axis, as well as to its
default. The writers read a box in chunks of whole heads of that table: a
JSON piece, one class's members in one chunk, is written as runs that
share a head or, when its members are sparse, member by member; the
boxes meet both, with head texts from a table or decoded. Some boxes end the cut axis in a short slice after every
value of the leading axes, so every head group's last block is a prefix
of the base; and stage 2 takes both of its paths on them, moving the
base's representatives or (when the base's points are all distinct
representatives) the base's points. Boxes with two leading axes or more,
under full-rank lattices, have blocks that take their numbers through
stage 2's step maps, or that miss them and are moved, or (when the
lattice's index passes the block size) have no maps. Gathers of one index,
which itemgetter answers with an item rather than a tuple, meet a block
of 1 point, a piece of 1 member and a 1-point box.

Mutants of the tables (a tail table one axis short, a head decode without
its modulus, a head text reused across a head boundary, a chunk table not
repeated for each head), of the runs (a run that ends where its head
starts or one index early, one head text for a whole piece, a one-head
piece that takes its chunk's first head), of the grouping of indices by
class (a chunk-local offset off by one, the last chunk skipped, a mark for
the chunk a class begins in), of the JSON writer's pieces (a class's first
chunk taken one late, a one-chunk piece cut one member short), of the TSV
labels (a label's text read one line early), of the moved blocks (a
shift with its sign flipped or taken from the wrong axis, a short block
that keeps every base representative or takes its classes through the
whole base's gather) and of the labels read off the class array (a
search that starts one place late) must each make the box bytes differ
from its points file's or from the whole-list chain's. Mutants of the
step maps (a map keyed by the absolute shift, a head's first block taking
the block before it as its parent, a hit that takes all of its parent's
numbers, one map for every delta) must each change the bytes or move
more blocks; and the parent rule the box had before it named each
parent (any block past a head's first stepping from the block before
it) must move more blocks of a box of many heads, with the same classes.
A full-rank box whose generators split its axes into two parts steps
each part's numbers through the part's own maps, and writes the bytes of
its points shuffled into a file and of the whole-list chain; one map
shared by the parts must fail. Where the maps are on, stage 2 cuts a box
at a bound sized by its point count and cell: on full-rank lattices of
one part or several, the classes and labels are those of the box cut at
BLOCK_POINTS, and crit8's box reduces a base of at most 400 points.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""
import itertools
import json
import random
from collections import Counter
from contextlib import nullcontext
from math import isqrt, prod
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import isorbit.cli  # noqa: E402
import isorbit.domain  # noqa: E402
import isorbit.labeling  # noqa: E402
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

BLOCKS = [1, 3, 7, 24, isorbit.domain.BLOCK_POINTS]


@st.composite
def generator_documents(draw, dense=False, full=False, min_n=1):
    """(n, rank, generator document) with a lattice of exactly that rank,
    in Z^n for n from min_n to 5; a full one has full rank, and a dense one
    full rank and index at most 3, so its classes are few and each holds
    many points of a box."""
    n, r = draw(st.sampled_from([(n, r) for n in range(min_n, 6) for r in range(n + 1)
                                 if r == n or not (dense or full)]))
    gens = []
    for i in range(r):  # upper triangular on the first r axes, nonzero diagonal
        v = [0] * n
        v[i] = draw(st.integers(1, 3 if i == 0 or not dense else 1)) * draw(
            st.sampled_from([1, -1]))
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


def sizes(block, module=isorbit.domain):
    """BLOCK_POINTS of isorbit.domain (or of a mutant of it) patched to
    block; the writers read it at each call."""
    return mock.patch.object(module, "BLOCK_POINTS", block)


def run_cli(gens_path, domain, fmt, out) -> bytes:
    assert main(["--gens", str(gens_path), *domain, "--format", fmt,
                 "--output", str(out)]) == 0
    return out.read_bytes()


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.data(), generator_documents(), st.sampled_from(BLOCKS))
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
        with sizes(block):
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
def boxes(draw, n, values=6, most=1500):
    """(lo, hi) of a box in Z^n of up to 6 values an axis and 1,500 points
    (or the given counts): tables of every bound stop inside it, with
    several heads."""
    lo = draw(st.lists(st.integers(-12, 3), min_size=n, max_size=n))
    hi, points = [], 1
    for a in lo:
        k = draw(st.integers(1, min(values, most // points)))
        hi.append(a + k - 1)
        points *= k
    return lo, hi


@st.composite
def short_sliced_boxes(draw, n, block, heads=0):
    """(lo, hi) of a box in Z^n whose cut axis, under blocks of `block`
    points, ends in a short slice after each value of the leading axes,
    and which has at least `heads` leading axes (n > heads); its first
    leading axis, or its first `heads`, has several values."""
    cut = draw(st.integers(heads, n - 1))
    inner, tail = 1, []
    for _ in range(cut + 1, n):  # a slice holds at least two values of the cut axis
        tail.append(draw(st.integers(1, max(1, block // 2 // inner))))
        inner *= tail[-1]
    step = block // inner
    length = step * draw(st.integers(1, 3)) + draw(st.integers(1, step - 1))
    lead, points = [], length * inner
    for j in range(cut):
        several = 2 if j < max(heads, 1) else 1
        lead.append(draw(st.integers(several, max(2, min(3, 1500 // points)))))
        points *= lead[-1]
    lo = draw(st.lists(st.integers(-12, 3), min_size=n, max_size=n))
    return lo, [a + k - 1 for a, k in zip(lo, [*lead, length, *tail])]


def json_paths(paths: Counter):
    """The CLI's point texts patched to count, in paths, the pieces a box's
    join writes as runs and those it writes from per-point texts, by its
    rule: offsets that average fewer than RUN_MEMBERS a head over the
    heads they span."""
    point_texts = isorbit.cli._point_texts

    def counted_texts(points, template, sep):
        chunk, texts, join = point_texts(points, template, sep)
        if type(points) is not Box:
            return chunk, texts, join
        t = len(isorbit.cli._tail_table(points, template)[1])

        def counted(q, offsets):
            heads = offsets[-1] // t - offsets[0] // t + 1
            dense = len(offsets) >= isorbit.cli.RUN_MEMBERS * heads
            paths.update(["runs" if dense else "per point"])
            return join(q, offsets)
        return chunk, texts, counted
    return mock.patch.object(isorbit.cli, "_point_texts", counted_texts)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data(), st.one_of(generator_documents(), generator_documents(dense=True)),
                  st.sampled_from(BLOCKS))
def test_a_box_writes_the_bytes_of_its_points_file(workdir, data, gens, block):
    n, rank, gens_doc = gens
    short = block in (3, 7) and data.draw(st.booleans())
    lo, hi = data.draw(short_sliced_boxes(n, block) if short else boxes(n))
    basis = run_stage1(parse_generators(json.dumps(gens_doc))).basis
    with sizes(block):
        counts = [size for size, _shift, _parent in Box(lo, hi).shifted_blocks()[1]]
        loc = isorbit.pipeline._numbered_blocks(Box(lo, hi), basis, [range(n)])[0]
    assert not short or counts.count(counts[0]) < len(counts)
    hypothesis.event(f"rank {rank} of n = {n}")
    hypothesis.event("base points moved" if loc is None else "base representatives moved")
    hypothesis.event("short blocks" if min(counts) < counts[0] else "no short block")
    points = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    paths = Counter()
    for fmt in ("json", "tsv"):
        with sizes(block), json_paths(paths) if fmt == "json" else nullcontext():
            from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
        assert from_box == from_points == oracle_bytes(gens_doc, points, fmt)
    hypothesis.event("JSON pieces: " + " and ".join(
        [kind for kind in ("runs", "per point") if paths[kind]]))


def counted_moves(module, calls: Counter):
    """module's reduce_columns patched to count its calls in calls["moves"]:
    stage 2 calls it once for a box's base block and once for each block
    it moves, and once for each block of a points file."""
    reduce_columns = module.reduce_columns

    def counted(basis, cols):
        calls["moves"] += 1
        reduce_columns(basis, cols)
    return mock.patch.object(module, "reduce_columns", counted)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.data(), st.one_of(generator_documents(dense=True, min_n=3),
                                       generator_documents(full=True, min_n=3)),
                  st.sampled_from(BLOCKS))
def test_a_box_whose_blocks_revisit_its_cell_writes_the_bytes_of_its_points_file(
        workdir, data, gens, block):
    # the lattices have full rank, of index at most 3 or up to 3^n, so the
    # step maps are on where the index is at most BLOCK_POINTS and off
    # elsewhere; the boxes have two leading axes or more, so the first
    # blocks of heads have several deltas, and every head ends in a short
    # block under blocks of 3, 7 or 24 points (the size the box is drawn
    # for; blocks of 1 cut no short slice, and the default size makes the
    # box one block)
    n, rank, gens_doc = gens
    shape = block if block in (3, 7, 24) else data.draw(st.sampled_from([3, 7, 24]))
    lo, hi = data.draw(short_sliced_boxes(n, shape, heads=2))
    stage1 = run_stage1(parse_generators(json.dumps(gens_doc)))
    calls = Counter()
    with sizes(block), counted_moves(isorbit.pipeline, calls):
        blocks = sum(1 for _ in Box(lo, hi).shifted_blocks()[1])
        isorbit.pipeline.run_stage2(stage1, Box(lo, hi))
    moved = calls["moves"] - 1  # every block but the base has a nonzero shift
    if prod(p for _c, p, _b in stage1.basis.echelon) > block:
        assert moved == blocks - 1
        hypothesis.event("gate off")
    else:
        hypothesis.event("step map hit" if moved < blocks - 1 else "no step map hit")
        hypothesis.event("step map miss" if moved else "no step map miss")
    hypothesis.event(f"{blocks} blocks" if blocks < 3 else "3 blocks or more")
    points = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    for fmt in ("json", "tsv"):
        with sizes(block):
            from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
        assert from_box == from_points == oracle_bytes(gens_doc, points, fmt)


BOTH, JSON, TSV = ("json", "tsv"), ("json",), ("tsv",)
RUN_ENDS = "range((first + 1) * t, (last + 1) * t, t)"
RUN_HEADS = "head_texts(heads_of(q, first, last))"
NEW_CLASSES = "old.difference_update(range(new, end))"
# name: (module, edits, the writers that run the edited code)
MUTANTS = {
    "tail table one axis short": (isorbit.cli, [
        ('zip(box.ranges[k:], template.split("%d")[k + 1:])',
         'zip(box.ranges[k + 1:], template.split("%d")[k + 2:])')], BOTH),
    "head decode without its modulus": (isorbit.domain, [
        ("lo + i // stride % size", "lo + i // stride")], JSON),
    "head text reused across a head boundary": (isorbit.cli, [
        ("repeat, head_texts(heads_of(q)), repeat(t)",
         "repeat, head_texts(heads_of(q))[:1], repeat(per * t)")], TSV),
    "a run that ends at h * T instead of (h + 1) * T": (isorbit.cli, [
        (RUN_ENDS, "range(first * t, last * t, t)")], JSON),
    "a run split one index early": (isorbit.cli, [
        (RUN_ENDS, "range((first + 1) * t - 1, (last + 1) * t - 1, t)")], JSON),
    "one head text used for a whole piece": (isorbit.cli, [
        (RUN_HEADS, f"repeat({RUN_HEADS}[0])")], JSON),
    "a one-head piece that takes its chunk's first head": (isorbit.cli, [
        ("heads_of(q, first, first)", "heads_of(q, 0, 0)")], JSON),
    "a chunk table not repeated for each head of a chunk": (isorbit.cli, [
        ("chunk_table = table * per", "chunk_table = table")], JSON),
    "table-less lists cut one point short at the bound": (isorbit.cli, [
        ("indices[i:i + domain.BLOCK_POINTS]", "indices[i:i + domain.BLOCK_POINTS - 1]")], TSV),
    "a table-less join that fills its first offset's point for every member": (
        isorbit.cli, [("points.at(offsets)", "points.at(offsets[:1] * len(offsets))")], JSON),
    "a chunk-local offset off by one": (isorbit.cli, [
        ("range(chunk), repeat(2)", "range(1, chunk + 1), repeat(2)")], JSON),
    "grouping that skips the last chunk of indices": (isorbit.cli, [
        ("range(0, len(class_of), chunk)", "range(0, len(class_of) - chunk, chunk)")], JSON),
    "a mark for the chunk a class begins in": (isorbit.cli, [
        (NEW_CLASSES, "old.difference_update(range(new, new))")], JSON),
    "a class's first chunk taken as the chunk after its label's": (isorbit.cli, [
        ("first // chunk, 0", "first // chunk + 1, 0")], JSON),
    "a piece of one chunk cut one member short at the bound": (isorbit.cli, [
        ("offsets[i:i + domain.BLOCK_POINTS]", "offsets[i:i + domain.BLOCK_POINTS - 1]")], JSON),
    "a label tail read at the wrong block offset": (isorbit.cli, [
        ("lines[i - start]", "lines[i - start - 1]")], TSV),
}

# a one-class lattice (every offset of a chunk dense), a lattice whose two
# classes take alternate values of axis 1 (so, under blocks of 40, each
# piece is one head of a chunk of two) and a lattice with a rotation
# (sparse chunks), in Z^4
MUTANT_GENS = [
    {"n": 4, "generators": [{"type": "translation", "v": v} for v in
                            ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])]},
    {"n": 4, "generators": [{"type": "translation", "v": v} for v in
                            ([1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])]},
    {"n": 4, "generators": [{"type": "translation", "v": [3, 0, 0, 0]},
                            {"type": "translation", "v": [1, 1, 1, 1]},
                            {"type": "negation", "signs": [-1, -1, -1, -1]}]},
]


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_table_mutant_makes_a_box_differ_from_its_points(workdir, monkeypatch, name):
    # blocks of 8 and 40 points give the writers tables of 4 and 16 texts
    # and chunks of two heads, so a chunk's runs meet a head boundary: the
    # one-class lattice's chunks go as runs and the rotation lattice's as
    # per-point texts; at the default block size the whole 144-point box
    # is one table. Blocks of 3 are shorter than the last axis, so the box
    # has no table (T = 1) and fills the template per point, as the points
    # file it is checked against does in the unchanged module
    module, edits, writers = MUTANTS[name]
    mutant = mutant_module(module, edits)
    lo, hi = (-2, 0, -1, 3), (0, 2, 2, 6)
    points = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    cases = [(gens_doc, fmt, block) for gens_doc in MUTANT_GENS for fmt in ("json", "tsv")
             for block in (3, 8, 40, isorbit.domain.BLOCK_POINTS)]

    def differs(gens_doc, fmt, block) -> bool:
        with sizes(block), sizes(block, mutant) if module is isorbit.domain else nullcontext():
            try:
                from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
            except Exception:  # a mutant may fail outright
                return True
        return not from_box == from_points == oracle_bytes(gens_doc, points, fmt)

    assert not any(differs(*case) for case in cases)  # the writers pass every case
    if module is isorbit.domain:
        monkeypatch.setattr(isorbit.domain.Box, "at", mutant.Box.at)
    else:
        monkeypatch.setattr(isorbit.cli, "json_chunks", mutant.json_chunks)
        monkeypatch.setattr(isorbit.cli, "tsv_chunks", mutant.tsv_chunks)
    for fmt in writers:  # each writer that runs the edited code catches the mutant
        assert any(differs(*case) for case in cases if case[1] == fmt)


PLANE = {"n": 2, "generators": [{"type": "translation", "v": [12, 0]},
                                {"type": "translation", "v": [1, 1]},
                                {"type": "negation", "signs": [-1, -1]}]}
# every point of a value of axis 0 has one representative
COLUMNS = {"n": 2, "generators": [{"type": "translation", "v": [5, 0]},
                                  {"type": "translation", "v": [0, 1]},
                                  {"type": "negation", "signs": [-1, 1]}]}
# name: (generators, lo, hi, block size). itemgetter(i) gives an item, not
# a one-item tuple, so each case but the last makes some gather take one
# index: stage 2's for a block of 1 point (which only a last axis longer
# than the block cuts) or for a 1-point box, or the JSON writer's tails
# for a piece of 1 member of a box of at most a block of heads. A box with
# no table, as the last one, is one chunk: it fills the template per point
# and gathers no tails, and none of its blocks holds 1 point
ONE_INDEX_GATHERS = {
    "a short block of 1 point": (COLUMNS, (0, 0), (1, 6), 3),
    "a class with 1 member in a chunk": (PLANE, (0, 0), (3, 1), 4),
    "a 1-point box": (PLANE, (3, -2), (3, -2), isorbit.domain.BLOCK_POINTS),
    "a last axis longer than the block (T = 1)": (PLANE, (0, 0), (2, 9), 4),
}


def chunk_pieces(stage2: isorbit.labeling.Stage2, chunk: int) -> list[int]:
    """The member count of every piece the JSON writer joins, at most
    BLOCK_POINTS each."""
    members, later = isorbit.cli._grouped(stage2, chunk)
    bound, pieces = isorbit.domain.BLOCK_POINTS, []
    for c, offsets in enumerate(members):
        starts = [*later.get(c, ())[1::2], len(offsets)]
        for a, b in zip([0, *starts], starts):
            pieces.extend(min(bound, b - i) for i in range(a, b, bound))
    return pieces


@pytest.mark.parametrize("name", list(ONE_INDEX_GATHERS))
def test_one_index_gathers_write_the_bytes_of_the_points_file(workdir, monkeypatch, name):
    gens_doc, lo, hi, block = ONE_INDEX_GATHERS[name]
    stage1 = run_stage1(parse_generators(json.dumps(gens_doc)))
    box = Box(lo, hi)
    with sizes(block):
        counts = [size for size, _shift, _parent in box.shifted_blocks()[1]]
        loc = isorbit.pipeline._numbered_blocks(box, stage1.basis, [range(box.n)])[0]
        chunk, _texts, _join = isorbit.cli._point_texts(box, "%d,%d", ",")
        pieces = chunk_pieces(isorbit.pipeline.run_stage2(stage1, box), chunk)
        tail = isorbit.cli._tail_table(box, "%d,%d")[1]
    heads = len(box) // len(tail)
    assert {
        "a short block of 1 point": loc is not None and min(counts) == 1,
        "a class with 1 member in a chunk": len(tail) > 1 and heads <= block and min(pieces) == 1,
        "a 1-point box": len(box) == 1,
        "a last axis longer than the block (T = 1)": len(tail) == 1 and heads > block,
    }[name]
    points = list(box)

    def outputs():
        for fmt in ("json", "tsv"):
            with sizes(block):
                try:
                    yield fmt, box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
                except Exception:  # a mutant may fail outright
                    yield fmt, None

    for fmt, out in outputs():
        assert out == (oracle_bytes(gens_doc, points, fmt),) * 2
    # the same runs with gathers that give the item itself for one index
    mutant = mutant_module(isorbit.domain, [("if len(indices) == 1:", "if False:")])
    for module in (isorbit.pipeline, isorbit.cli):
        monkeypatch.setattr(module, "gather", mutant.gather)
    differ = [out != (oracle_bytes(gens_doc, points, fmt),) * 2 for fmt, out in outputs()]
    assert any(differ) == (name != "a last axis longer than the block (T = 1)")


def patched_stage2(monkeypatch, module, mutant):
    """Have the CLI run the mutant's stage 2, or stage 2 on the mutant's
    blocks of a box."""
    if module is isorbit.domain:
        monkeypatch.setattr(isorbit.domain.Box, "shifted_blocks", mutant.Box.shifted_blocks)
    else:
        monkeypatch.setattr(isorbit.cli, "run_stage2", mutant.run_stage2)


# the shifts of the first head's blocks and of every later head's
SHIFTS = ["[*before, i, *zeros]", "[*head, i, *zeros]"]
STAGE2_MUTANTS = {
    "a shift with its sign flipped": (isorbit.domain, [
        (shift, f"[-v for v in {shift}]") for shift in SHIFTS]),
    "a shift taken from the wrong axis": (isorbit.domain, [
        (shift, shift + "[::-1]") for shift in SHIFTS]),
    "a short block that keeps all base representatives": (
        isorbit.pipeline, [("m = bisect_left(first, size)", "m = len(first)")]),
    "a short block that takes its classes through the whole base's gather": (
        isorbit.pipeline, [("gather(loc[:size])", "gather(loc)")]),
    "a label searched for from one place past the previous label": (
        isorbit.pipeline, [("class_of.index(c, at + 1)", "class_of.index(c, at + 2)")]),
}

# the box's blocks of 40 points (2 values of axis 1 by 16 of axes 2 and 3)
# end each value of axis 0 in a short slice of 1. The base repeats
# representatives under the first two lattices; under the third its 32
# points are distinct representatives. The first has rank 2, so stage 2
# moves every block; the other two have full rank and index 27 and 32, at
# most the block size, so blocks take their numbers through step maps
STAGE2_MUTANT_GENS = [MUTANT_GENS[2], *({"n": 4, "generators": [
    {"type": "translation", "v": v} for v in vectors] + negation} for vectors, negation in [
        (([3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [1, 1, 1, 1]), []),
        (([1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]),
         [{"type": "negation", "signs": [-1, -1, -1, -1]}])])]


@pytest.mark.parametrize("name", list(STAGE2_MUTANTS))
def test_each_moved_block_mutant_makes_a_box_differ_from_its_points(workdir, monkeypatch, name):
    module, edits = STAGE2_MUTANTS[name]
    mutant = mutant_module(module, edits)
    lo, hi = (-2, 0, -1, 3), (1, 4, 2, 6)
    points = list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))))

    def differs(gens_doc, fmt) -> bool:
        with sizes(40), sizes(40, mutant) if module is isorbit.domain else nullcontext():
            try:
                from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
            except Exception:  # a mutant may fail outright
                return True
        # a mutant after the merge writes the box and its points alike
        return not from_box == from_points == oracle_bytes(gens_doc, points, fmt)

    cases = [(gens_doc, fmt) for gens_doc in STAGE2_MUTANT_GENS for fmt in ("json", "tsv")]
    assert not any(differs(*case) for case in cases)
    patched_stage2(monkeypatch, module, mutant)
    for fmt in ("json", "tsv"):
        assert any(differs(*case) for case in cases if case[1] == fmt)


LATER = "yield count, [*head, i, *zeros], (p, carry)"
BACK = "(p + len(slices) - 1, {})"  # the block before, its shift the given difference away
# name: (module, edits)
STEP_MAP_MUTANTS = {
    "a map keyed by the block's absolute shift": (
        isorbit.pipeline, [("steps[d]", "steps[tuple(t)]")]),
    "a head's first block whose parent is the block before it": (isorbit.domain, [
        (LATER, LATER + " if i else " + BACK.format("(*carry[:k - 1], -slices[-1], *zeros)"))]),
    "a hit that takes all of the parent's numbers": (isorbit.pipeline, [
        ("step.__getitem__, ids[of:of + m]", "step.__getitem__, ids[of:of + len(first)]")]),
    "one map shared by every delta": (isorbit.pipeline, [("steps[d]", "steps[()]")]),
}


@pytest.mark.parametrize("name", list(STEP_MAP_MUTANTS))
def test_each_step_map_mutant_changes_the_bytes_or_moves_more_blocks(workdir, monkeypatch, name):
    # a map keyed by the absolute shift is never read twice, since no two
    # blocks share a shift: its bytes are right, but every block is moved
    module, edits = STEP_MAP_MUTANTS[name]
    mutant = mutant_module(module, edits)
    lo, hi = (-2, 0, -1, 3), (1, 4, 2, 6)

    def outcome(stage2, gens_doc, fmt):  # stage2: the module whose stage 2 runs
        calls = Counter()
        with sizes(40), sizes(40, mutant) if module is isorbit.domain else nullcontext(), \
                counted_moves(stage2, calls):
            try:
                from_box, from_points = box_and_points_bytes(workdir, gens_doc, lo, hi, fmt)
            except Exception:  # a mutant may fail outright
                return None
        return from_box == from_points, calls["moves"]

    cases = [(gens_doc, fmt) for gens_doc in STAGE2_MUTANT_GENS for fmt in ("json", "tsv")]
    right = {i: outcome(isorbit.pipeline, *case) for i, case in enumerate(cases)}
    assert all(same for same, _moves in right.values())
    patched_stage2(monkeypatch, module, mutant)
    stage2 = mutant if module is isorbit.pipeline else isorbit.pipeline
    for fmt in ("json", "tsv"):
        assert any(outcome(stage2, *case) != right[i]
                   for i, case in enumerate(cases) if case[1] == fmt)


CHORDS4 = {"n": 4, "generators": [
    {"type": "translation", "v": [12, 0, 0, 0]},
    {"type": "translation", "v": [1, 1, 1, 1]},
    {"type": "negation", "signs": [-1, -1, -1, -1]},
    {"type": "permutation", "perm": [1, 0, 2, 3]},
    {"type": "permutation", "perm": [1, 2, 3, 0]}]}


def test_a_parent_one_block_back_past_a_head_s_first_moves_more_blocks(monkeypatch):
    # the rule before the box named each parent: a head's first block steps
    # from the head before's first and any other block from the block before
    # it, so a head's short block meets the map of the cut-axis step with
    # images known only for the representatives of the whole blocks before
    # it. The box is 21 heads (axis 0) of a whole block and a short one over
    # the 1,728-point cell of chords4's lattice, all of it in the base
    stage1 = run_stage1(parse_generators(json.dumps(CHORDS4)))
    box = Box((0, 0, 0, 0), (20, 20, 15, 15))

    def run():
        calls = Counter()
        with counted_moves(isorbit.pipeline, calls):
            stage2 = isorbit.pipeline.run_stage2(stage1, box)
        return (stage2.class_of, stage2.label_at), calls["moves"]

    right, moves = run()
    monkeypatch.setattr(Box, "shifted_blocks", mutant_module(isorbit.domain, [
        (LATER, LATER + " if not i else " + BACK.format("along"))]).Box.shifted_blocks)
    mutated, more = run()
    assert mutated == right
    assert (moves, more) == (3, 10)


# scatter4's generators with the translations (4, 0, 0, 0) and (0, 0, 0, 5):
# the Hermite rows (4, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 4) and (0, 0, 0, 5)
# make a 20-point cell, and the flip of axis 0 moves it, so stage 2 numbers
# two parts: axis 0, merged, and the rest, keyed on axis 3 alone
PARTS = {"n": 4, "generators": [
    {"type": "translation", "v": [0, 1, 1, 0]},
    {"type": "negation", "signs": [-1, 1, 1, 1]},
    {"type": "permutation", "perm": [0, 1, 3, 2]},
    {"type": "translation", "v": [4, 0, 0, 0]},
    {"type": "translation", "v": [0, 0, 0, 5]}]}
PARTS_BOX = (-9, 0, 0, 0), (9, 15, 15, 15)
SHARED_MAP = (isorbit.pipeline, [(
    "maps = [defaultdict(lambda k=prod(pivots[a][0] for a in axes): [None] * k) if gate else None\n"
    "            for axes in part_axes]",
    "maps = [defaultdict(lambda: [None] * cell) if gate else None] * len(parts)")])


@pytest.fixture(scope="module")
def parts_files(workdir):
    """The generators, the box's points shuffled into a points file, and the
    whole-list chain's bytes of those points in each format."""
    gens_path, dom = workdir / "parts.json", workdir / "parts_points.json"
    gens_path.write_text(json.dumps(PARTS), encoding="utf-8")
    points = list(itertools.product(*(range(a, b + 1) for a, b in zip(*PARTS_BOX))))
    shuffled = list(points)
    random.Random(5).shuffle(shuffled)
    dom.write_text(json.dumps({"points": shuffled}), encoding="utf-8")
    return gens_path, dom, {fmt: oracle_bytes(PARTS, points, fmt) for fmt in ("json", "tsv")}


@pytest.mark.parametrize("block", [48, 64, isorbit.domain.BLOCK_POINTS])
def test_a_box_of_several_parts_steps_each_part_through_its_own_maps(
        workdir, monkeypatch, parts_files, block):
    # under blocks of 48 and 64 the box cuts axis 2, in slices of 3 values
    # (each head ending in a short slice of 1) or of 4, and a head's carry
    # moves axis 1 or axes 0 and 1; under the default it cuts axis 0 alone,
    # so the rest's maps are the identity and axis 0's are not
    gens_path, dom, oracle = parts_files
    stage1 = run_stage1(parse_generators(json.dumps(PARTS)))
    parts = isorbit.pipeline.axis_parts(stage1.blocks, stage1.basis)
    assert [(list(axes), bool(rotations)) for axes, rotations, _b in parts] == [
        ([0], True), ([3], False)]
    box = Box(*PARTS_BOX)
    calls = Counter()
    with sizes(block), counted_moves(isorbit.pipeline, calls):
        blocks = sum(1 for _ in box.shifted_blocks()[1])
        isorbit.pipeline.run_stage2(stage1, box)
    assert 0 < calls["moves"] - 1 < blocks - 1  # some blocks step, some move
    spec = "--box=" + ",".join(f"{a}..{b}" for a, b in zip(*PARTS_BOX))

    def outputs():
        for fmt in ("json", "tsv"):
            with sizes(block):
                try:
                    yield (run_cli(gens_path, [spec], fmt, workdir / f"box.{fmt}"),
                           run_cli(gens_path, ["--domain", str(dom)], fmt, workdir / f"pts.{fmt}"),
                           oracle[fmt])
                except Exception:  # a mutant may fail outright
                    yield None

    assert all(out is not None and out[0] == out[1] == out[2] for out in outputs())
    # one step map shared by the parts mixes their numbers
    monkeypatch.setattr(isorbit.cli, "run_stage2", mutant_module(*SHARED_MAP).run_stage2)
    assert not any(out is not None and out[0] == out[1] == out[2] for out in outputs())


@st.composite
def gated_generators(draw):
    """(n, parts drawn, generator document) of a full-rank lattice of index
    at most 4^5 = 1,024, below BLOCK_POINTS, so stage 2 sizes a box's base
    by its cell: the axes fall in up to three groups, each with its own
    upper triangular translations, negations and permutations, so that
    stage 2 numbers one part or several."""
    n = draw(st.integers(1, 5))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    gens = []
    for axes in map(range, [0, *cuts], [*cuts, n]):
        for i in axes:
            v = [0] * n
            v[i] = draw(st.integers(1, 4))
            for j in range(i + 1, axes.stop):
                v[j] = draw(st.integers(-3, 3))
            gens.append({"type": "translation", "v": v})
        for _ in range(draw(st.integers(0, 2))):
            signs = [draw(st.sampled_from([1, -1])) if a in axes else 1 for a in range(n)]
            gens.append({"type": "negation", "signs": signs})
        for _ in range(draw(st.integers(0, 1))):
            perm = list(range(n))
            perm[axes.start:axes.stop] = draw(st.permutations(axes))
            gens.append({"type": "permutation", "perm": perm})
    return n, len(cuts) + 1, {"n": n, "generators": draw(st.permutations(gens))}


def blocks_of_block_points():
    """Box.shifted_blocks patched to cut every box at BLOCK_POINTS, the
    bound stage 2 passes ignored."""
    shifted_blocks = Box.shifted_blocks
    return mock.patch.object(Box, "shifted_blocks", lambda self, bound=None: shifted_blocks(self))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.data(), gated_generators())
def test_a_sized_base_gives_the_classes_of_a_base_of_block_points(data, gens):
    # stage 2 cuts a gated box at min(BLOCK_POINTS, 4 max(isqrt(N), cell)):
    # the classes and labels are those of the box cut at BLOCK_POINTS
    n, groups, gens_doc = gens
    stage1 = run_stage1(parse_generators(json.dumps(gens_doc)))
    assert stage1.basis.m == n
    lo, hi = data.draw(boxes(n, values=12, most=3000))
    box = Box(lo, hi)
    cell = prod(p for _c, p, _b in stage1.basis.echelon)
    bound = min(isorbit.domain.BLOCK_POINTS, 4 * max(isqrt(len(box)), cell))
    parts = isorbit.pipeline.axis_parts(stage1.blocks, stage1.basis)
    hypothesis.event(f"{len(parts)} part{'s' * (len(parts) > 1)} of {groups} group(s)")
    hypothesis.event("base sized below the box" if bound < len(box) else "box one block")
    sized = isorbit.pipeline.run_stage2(stage1, box)
    with blocks_of_block_points():
        pinned = isorbit.pipeline.run_stage2(stage1, box)
    assert (sized.class_of, sized.label_at) == (pinned.class_of, pinned.label_at)


CRIT8 = {"n": 6, "generators": [
    *({"type": "translation", "v": [2 * (a == i) for a in range(6)]} for i in range(3)),
    {"type": "negation", "signs": [-1, 1, 1, 1, 1, 1]},
    {"type": "permutation", "perm": [1, 0, 2, 3, 4, 5]},
    {"type": "permutation", "perm": [1, 2, 3, 4, 5, 0]}]}


def test_crit8_s_base_reduces_at_most_400_points():
    # crit8's 10,000-point box has a 64-point cell: its base is cut at
    # 4 isqrt(10,000) = 400 points rather than 4,000, and the classes stay
    stage1 = run_stage1(parse_generators(json.dumps(CRIT8)))
    box = Box((0,) * 6, (9, 9, 9, 9, 0, 0))

    def run():  # the point count of each reduce_columns call, the base's first
        sizes, reduce_columns = [], isorbit.pipeline.reduce_columns

        def counted(basis, cols):
            sizes.append(len(cols[0]))
            reduce_columns(basis, cols)
        with mock.patch.object(isorbit.pipeline, "reduce_columns", counted):
            stage2 = isorbit.pipeline.run_stage2(stage1, box)
        return (stage2.class_of, stage2.label_at), sizes

    right, sizes = run()
    assert sizes[0] <= 400
    with blocks_of_block_points():
        pinned, pinned_sizes = run()
    assert pinned == right and pinned_sizes[0] == 4000
