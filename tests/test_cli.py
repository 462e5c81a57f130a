import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from random import Random

import pytest

from isorbit import (
    BoxTooLargeError,
    ClosureCapExceededError,
    DimensionMismatchError,
    InputError,
    InvalidDomainError,
    InvalidRotationError,
    LatticeBasis,
    NotAtomicError,
    Box,
    SignedPermutation,
    Stage2,
)
import isorbit.check
import isorbit.cli
import isorbit.domain
import isorbit.labeling
import isorbit.lattice
import isorbit.pipeline
from isorbit.check import first_failure
from isorbit.cli import OPTIONS, main, parse_box_spec, parse_domain, parse_generators
from isorbit.lattice import hnf_reduce
from isorbit.permgroup import DEFAULT_MAX_DIMENSION
from isorbit.pipeline import run_stage1
from conftest import mutant_module
from reference import bfs_orbits, partition_doc

DIAGONAL_DOC = {
    "n": 2,
    "generators": [
        {"type": "translation", "v": [1, 1]},
        {"type": "negation", "signs": [-1, -1]},
    ],
}


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_generators_diagonal_instance():
    gens = parse_generators(json.dumps(DIAGONAL_DOC))
    assert gens.n == 2
    assert [g.v for g in gens.translations] == [(1, 1)]
    assert [g.r for g in gens.negations] == [SignedPermutation.negation((-1, -1))]
    assert gens.permutations == ()


def test_parse_generators_empty():
    gens = parse_generators('{"n": 3, "generators": []}')
    assert gens.n == 3 and gens.translations == gens.negations == gens.permutations == ()


def test_parse_generators_repeated_permutation_index():
    doc = {"n": 2, "generators": [{"type": "permutation", "perm": [0, 0]}]}
    with pytest.raises(InvalidRotationError) as info:
        parse_generators(json.dumps(doc))
    assert "generator 0" in str(info.value)


def test_parse_generators_bad_signs():
    doc = {"n": 2, "generators": [{"type": "negation", "signs": [2, 1]}]}
    with pytest.raises(InvalidRotationError):
        parse_generators(json.dumps(doc))


def test_parse_generators_wrong_length():
    doc = {"n": 2, "generators": [{"type": "translation", "v": [1, 2, 3]}]}
    with pytest.raises(DimensionMismatchError) as info:
        parse_generators(json.dumps(doc))
    assert "generator 0" in str(info.value)


def test_parse_generators_unknown_type():
    doc = {"n": 2, "generators": [{"type": "glide", "v": [1, 0]}]}
    with pytest.raises(NotAtomicError):
        parse_generators(json.dumps(doc))


@pytest.mark.parametrize("entry,field", [
    ({"type": "permutation", "perm": [1, 0], "signs": [-1, 1]}, "signs"),
    ({"type": "negation", "signs": [-1, 1], "perm": [1, 0]}, "perm"),
    ({"type": "translation", "perm": [1, 0], "v": [1, 0]}, "perm"),
    ({"type": "translation", "v": [1, 0], "V": [0, 1]}, "V"),
], ids=["permutation-signs", "negation-perm", "translation-perm-first", "translation-V"])
def test_a_generator_field_its_type_does_not_take_is_a_parse_error(tmp_path, capsys, entry, field):
    # each would otherwise run a different group from the one the file asks for
    gens = write(tmp_path / "gens.json", {"n": 2, "generators": [
        {"type": "translation", "v": [0, 2]}, entry]})
    out = tmp_path / "out"
    assert main(["--gens", gens, "--box", "0..1,0..1", "--output", str(out)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"generator 1: unknown field {field!r}; a {entry['type']} ")
    assert not out.exists()


@pytest.mark.parametrize("box,field", [
    ({"min": [0, 0], "max": [3, 3], "step": [2, 2]}, "step"),
    ({"lo": [0, 0], "min": [0, 0], "max": [1, 1]}, "lo"),
], ids=["step", "lo"])
def test_a_box_field_other_than_min_and_max_is_a_parse_error(tmp_path, capsys, box, field):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    domain = write(tmp_path / "domain.json", {"box": box})
    out = tmp_path / "out"
    assert main(["--gens", gens, "--domain", domain, "--output", str(out)]) == 1
    err = _single_json_error(capsys)
    assert err == {"error": "ParseError", "message":
                   f"box: unknown field {field!r}; a box takes only 'min' and 'max'"}
    assert not out.exists()


GENERATOR_TYPO_DOC = {"n": 2, "generators": [{"type": "translation", "v": [1, 1]}],
                      "generator": [{"type": "permutation", "perm": [1, 0]}]}


@pytest.mark.parametrize("gens_doc,domain_doc,message", [
    (GENERATOR_TYPO_DOC, {"points": [[0, 0], [1, 1]]},
     "generator file: unknown field 'generator'; a generator file takes only 'n' and 'generators'"),
    (DIAGONAL_DOC, {"points": [[0, 0], [1, 1]], "pionts": [[2, 2]]},
     "domain file: unknown field 'pionts'; a points file takes only 'points'"),
    (DIAGONAL_DOC, {"comment": "two points", "box": {"min": [0, 0], "max": [1, 1]}},
     "domain file: unknown field 'comment'; a box file takes only 'box'"),
], ids=["generator-file", "points-file", "box-file"])
def test_an_unknown_top_level_key_is_a_parse_error(tmp_path, capsys, gens_doc, domain_doc, message):
    # the entries under a misspelled key were once dropped, and the run
    # exited 0 without the swap or the point (2, 2)
    gens = write(tmp_path / "gens.json", gens_doc)
    domain = write(tmp_path / "domain.json", domain_doc)
    out = tmp_path / "out"
    assert main(["--gens", gens, "--domain", domain, "--output", str(out)]) == 1
    assert _single_json_error(capsys) == {"error": "ParseError", "message": message}
    assert not out.exists()


def test_parse_generators_bad_json_reports_position():
    with pytest.raises(InputError) as info:
        parse_generators('{"n": 2,\n "generators": [}')
    assert "line 2" in str(info.value)


def test_parse_domain_box():
    # a box is not listed: parse_domain returns it as a Box of that many points
    pts = parse_domain('{"box": {"min": [0, 0], "max": [1, 1]}}')
    assert pts == Box((0, 0), (1, 1)) and len(pts) == 4
    assert list(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_parse_domain_points_keep_file_order_and_duplicates():
    # the library dedupes and the renderers sort, so the parser does neither
    assert parse_domain('{"points": [[5], [2], [5]]}') == [(5,), (2,), (5,)]


def _run_points_file(tmp_path, points_text, fmt="json"):
    """main's exit status and output path for a points file given as the
    JSON text of its list, under the generators of DIAGONAL_DOC (Z^2)."""
    domain = tmp_path / "domain.json"
    domain.write_text('{"points": %s}' % points_text, encoding="utf-8")
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    out = tmp_path / "out"
    return main(["--gens", gens, "--domain", str(domain), "--format", fmt,
                 "--output", str(out)]), out


def test_parse_domain_points_dedupe(tmp_path):
    code, out = _run_points_file(tmp_path, "[[5, 5], [5, 5]]", fmt="tsv")
    assert code == 0
    assert out.read_text() == "5,5\t5,5\n"


def test_parse_domain_empty_points():
    assert parse_domain('{"points": []}') == []


# (bad point as JSON text, test id)
BAD_POINTS = [("[0, true]", "bool"), ("[0, 1.5]", "float"), ('[0, "x"]', "str"),
              ("[0, null]", "null"), ("[NaN, 0]", "nan"), ("[0, [1]]", "nested"),
              ("3", "non-list")]


@pytest.mark.parametrize("good", [1, 4])
@pytest.mark.parametrize("bad", [b for b, _ in BAD_POINTS], ids=[i for _, i in BAD_POINTS])
def test_parse_domain_names_the_first_bad_point(tmp_path, capsys, good, bad):
    # through main: parse_domain rejects a point that is not an array and
    # sort_points a bad coordinate. A second bad point after the first,
    # and good points around both; the index is the point's place in the file.
    points = ["[%d, %d]" % (i, -i) for i in range(good)] + [bad, "[7, 7]", bad, "[0, 0]"]
    code, out = _run_points_file(tmp_path, "[%s]" % ", ".join(points))
    assert code == 1 and not out.exists()
    err = _single_json_error(capsys)
    assert err["error"] == "ParseError"
    if bad == "3":
        assert err["message"] == f"point {good}: coordinates must be a list of integers"
    else:
        assert err["message"].startswith(f"point {good}: coordinate ")


def test_parse_domain_rejects_inverted_box():
    with pytest.raises(InvalidDomainError):
        parse_domain('{"box": {"min": [2], "max": [0]}}')


def test_parse_domain_box_cap(tmp_path, capsys):
    with pytest.raises(BoxTooLargeError):
        parse_domain('{"box": {"min": [0, 0], "max": [99, 99]}}', box_cap=100)
    # a box of exactly box_cap points parses, and one more point does not
    assert len(parse_domain('{"box": {"min": [0, 0], "max": [9, 9]}}', box_cap=100)) == 100
    with pytest.raises(BoxTooLargeError):
        parse_domain('{"box": {"min": [0], "max": [100]}}', box_cap=100)
    code, _ = run_main(tmp_path, ["--box", "0..1,0..1", "--box-cap", "4"])
    assert code == 0
    code, _ = run_main(tmp_path, ["--box", "0..1,0..1", "--box-cap", "3"])
    assert code == 1
    assert _single_json_error(capsys)["error"] == "BoxTooLarge"


def test_parse_domain_requires_exactly_one_shape():
    with pytest.raises(InputError):
        parse_domain('{"points": [], "box": {"min": [0], "max": [0]}}')
    with pytest.raises(InputError):
        parse_domain("{}")


def test_parse_box_spec():
    assert list(parse_box_spec("0..1,-1..0")) == [(0, -1), (0, 0), (1, -1), (1, 0)]
    with pytest.raises(InputError):
        parse_box_spec("0..1,nope")


def run_main(tmp_path, extra, gens_doc=DIAGONAL_DOC, name="out"):
    gens = write(tmp_path / "gens.json", gens_doc)
    out = tmp_path / name
    code = main(["--gens", gens, "--output", str(out)] + extra)
    return code, out


def test_run_json_output(tmp_path):
    code, out = run_main(tmp_path, ["--box", "0..1,0..1"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 2 and doc["rank_m"] == 1
    assert doc["basis_rows"] == [[1, 1]]
    assert doc["rotation_order"] == 2
    assert doc["classes"] == [
        {"label": [0, 0], "members": [[0, 0], [1, 1]]},
        {"label": [0, 1], "members": [[0, 1], [1, 0]]},
    ]


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_box_with_a_negative_first_bound_spaced_or_glued(tmp_path, fmt):
    # an option takes the next argument as its value, whatever it starts with
    outputs = []
    for name, box in [("spaced", ["--box", "-1..0,0..1"]), ("glued", ["--box=-1..0,0..1"])]:
        code, out = run_main(tmp_path, box + ["--format", fmt], name=name)
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    if fmt == "tsv":
        points = [line.split("\t")[0] for line in outputs[0].decode().splitlines()]
        assert points == ["-1,0", "-1,1", "0,0", "0,1"]


def test_box_without_its_spec_is_a_bad_command_line(tmp_path):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    with pytest.raises(SystemExit) as e:
        main(["--gens", gens, "--box"])
    assert e.value.code == 2


@pytest.mark.parametrize("glued", [False, True])
@pytest.mark.parametrize("spec,axis", [
    ("0..1_0,0..0", "0 '0..1_0'"),  # int() reads 1_0 as 10
    ("0..0,0..٣", "1 '0..٣'"),  # an Arabic-Indic three
    (" 0.. 1,0..0", "0 ' 0.. 1'"),
    ("0..0,+1..2", "1 '+1..2'"),
    ("0..0,--1..0", "1 '--1..0'"),
    ("0..0,-..0", "1 '-..0'"),
    ("0..0,0..", "1 '0..'"),
])
def test_box_bounds_are_ascii_integers(tmp_path, capsys, glued, spec, axis):
    box = ["--box=" + spec] if glued else ["--box", spec]
    code, out = run_main(tmp_path, box)
    assert code == 1 and not out.exists()
    err = _single_json_error(capsys)
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"bad box axis {axis}")


@pytest.mark.parametrize("fmt,built", [("tsv", set()), ("json", set())])
def test_run_builds_only_the_view_its_renderer_reads(tmp_path, monkeypatch, fmt, built):
    # both writers read stage 2's class indices as they are: a run lists no
    # OrbitLabeling, so it builds neither of its views
    labelings = []
    listed = Stage2.labeling

    def keep(self):
        labelings.append(listed(self))
        return labelings[-1]

    monkeypatch.setattr(Stage2, "labeling", keep)
    code, _ = run_main(tmp_path, ["--box", "0..1,0..1", "--format", fmt])
    assert code == 0
    assert labelings == []
    assert {v for lab in labelings for v in {"labels", "classes"} & set(vars(lab))} == built


def test_run_tsv_encodes_the_same_partition(tmp_path):
    _, json_out = run_main(tmp_path, ["--box", "0..1,0..1"], name="out.json")
    code, tsv_out = run_main(
        tmp_path, ["--box", "0..1,0..1", "--format", "tsv"], name="out.tsv")
    assert code == 0
    pairs = [line.split("\t") for line in tsv_out.read_text().splitlines()]
    tsv_classes = {}
    for x, label in pairs:
        tsv_classes.setdefault(label, set()).add(tuple(map(int, x.split(","))))
    json_doc = json.loads(json_out.read_text())
    json_classes = {frozenset(map(tuple, c["members"])) for c in json_doc["classes"]}
    assert {frozenset(v) for v in tsv_classes.values()} == json_classes


def test_run_byte_identical_across_reruns_and_threads(tmp_path):
    # the run is single-threaded; three reruns must agree byte for byte
    outputs = []
    for i in range(3):
        _, out = run_main(tmp_path, ["--box", "0..1,0..1"], name=f"out{i}")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_run_with_domain_file(tmp_path):
    domain = write(tmp_path / "domain.json", {"points": [[0, 0], [1, 1]]})
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    out = tmp_path / "out"
    assert main(["--gens", gens, "--domain", domain, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["classes"] == [{"label": [0, 0], "members": [[0, 0], [1, 1]]}]


def test_run_empty_generators_all_singletons(tmp_path):
    code, out = run_main(
        tmp_path, ["--box", "0..1,0..1"], gens_doc={"n": 2, "generators": []})
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rotation_order"] == 1 and doc["rank_m"] == 0
    assert len(doc["classes"]) == 4


def test_run_full_signed_shift_collapses_the_cube(tmp_path):
    gens_doc = {"n": 3, "generators": [
        {"type": "negation", "signs": [-1, 1, 1]},
        {"type": "permutation", "perm": [2, 0, 1]},
        {"type": "translation", "v": [1, 0, 0]},
    ]}
    code, out = run_main(
        tmp_path, ["--box", "0..1,0..1,0..1", "--oracle-check"],
        gens_doc=gens_doc)
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 1
    assert len(doc["classes"][0]["members"]) == 8
    assert doc["rotation_order"] == 24
    assert doc["rank_m"] == 3


def test_run_oracle_check_passes(tmp_path):
    code, _ = run_main(tmp_path, ["--box", "0..1,0..1", "--oracle-check"])
    assert code == 0


FOUR_CYCLE_DOC = {"n": 4, "generators": [{"type": "permutation", "perm": [1, 2, 3, 0]}]}


def test_run_oracle_check_reports_diff(tmp_path, capsys, monkeypatch):
    # (2, 3, 0, 1) is two 4-cycle steps from (0, 1, 2, 3) either way, so a
    # merge that stops after its first round prints them apart
    mutant = mutant_module(isorbit.labeling, [
        ("frontier.append((k, fresh, range(start, len(parent))))", "pass")])
    monkeypatch.setattr(isorbit.pipeline, "merge_classes_generators",
                        mutant.merge_classes_generators)
    points = [(0, 1, 2, 3), (2, 3, 0, 1)]
    domain = write(tmp_path / "domain.json", {"points": points})
    code, out = run_main(tmp_path, ["--domain", domain, "--oracle-check"],
                         gens_doc=FOUR_CYCLE_DOC)
    assert code == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "OracleMismatch", "check": "split",
        "message": "split: one orbit holds sorted points 0 and 1 in two classes"}
    # the output is written before the check, and the padded box, given
    # room, also finds one orbit where the mutant printed two
    printed = sorted(c["members"] for c in json.loads(out.read_text())["classes"])
    assert printed == [[[0, 1, 2, 3]], [[2, 3, 0, 1]]]
    reference = bfs_orbits(parse_generators(json.dumps(FOUR_CYCLE_DOC)), points, 1)
    assert partition_doc(reference) == [[[0, 1, 2, 3], [2, 3, 0, 1]]]


def _with_basis(rows):
    """A run_stage1 that puts the lattice of the rows in place of the basis,
    split into the generators' axis blocks."""
    def run(gens, max_dimension):
        s = run_stage1(gens, max_dimension)
        basis = hnf_reduce(rows, gens.n)
        return isorbit.pipeline.Stage1(gens, s.neg_basis, s.perm_order, basis,
                                       isorbit.pipeline.axis_blocks(gens, basis))
    return run


def _with_classes(edit):
    """A run_stage2 whose (class_of, label_at) lists pass through edit."""
    real = isorbit.pipeline.run_stage2

    def run(stage1, domain, closure_cap):
        s = real(stage1, domain, closure_cap)
        class_of, label_at = edit(list(s.class_of), list(s.label_at))
        return Stage2(s.domain, array("I", class_of), array("I", label_at))
    return run


SWAP_DOC = {"n": 2, "generators": [{"type": "translation", "v": [1, 0]},
                                   {"type": "permutation", "perm": [1, 0]}]}


# The one-round merge is test_run_oracle_check_reports_diff. Under
# DIAGONAL_DOC the box 0..1,0..1 has the classes 0 = {(0, 0), (1, 1)} and
# 1 = {(0, 1), (1, 0)}, at sorted indices 0, 3 and 1, 2.
@pytest.mark.parametrize("gens_doc,module,name,replacement,check", [
    (DIAGONAL_DOC, isorbit.cli, "run_stage1", _with_basis([(2, 2)]), "translations"),
    (DIAGONAL_DOC, isorbit.cli, "run_stage1", _with_basis([(1, 0), (0, 1)]), "span"),
    (SWAP_DOC, isorbit.pipeline, "translation_basis_from_generators", mutant_module(
        isorbit.lattice, [("rows.add(r.apply(b))", "pass")]).translation_basis_from_generators,
     "rotations"),
    (DIAGONAL_DOC, isorbit.cli, "run_stage2",
     _with_classes(lambda c, at: ([0, 1, 1, 2], [0, 1, 3])), "split"),
    (DIAGONAL_DOC, isorbit.cli, "run_stage2", _with_classes(lambda c, at: ([0] * 4, [0])),
     "joined"),
    (DIAGONAL_DOC, isorbit.cli, "run_stage2", _with_classes(lambda c, at: (c, [3, 1])), "labels"),
], ids=["translation-outside", "z-n-basis", "missing-rotated-row", "split-class", "joined-orbits", "label-moved"])
def test_oracle_check_names_the_failed_check(
        tmp_path, capsys, monkeypatch, gens_doc, module, name, replacement, check):
    monkeypatch.setattr(module, name, replacement)
    code, out = run_main(tmp_path, ["--box", "0..1,0..1"], gens_doc=gens_doc)
    assert code == 0 and out.exists()  # without the check the run passes
    code, _ = run_main(tmp_path, ["--box", "0..1,0..1", "--oracle-check"], gens_doc=gens_doc)
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OracleMismatch" and err["check"] == check
    assert err["message"].startswith(check + ": ")


def test_oracle_check_rejects_a_row_that_is_not_its_combination(monkeypatch):
    # a fixed-point step whose first row carries a coefficient one off
    real = isorbit.check.hnf_reduce

    def one_off(rows, n):
        first, *rest = real(rows, n).hnf_rows
        return LatticeBasis(n, (first[:-1] + (first[-1] + 1,), *rest))
    monkeypatch.setattr(isorbit.check, "hnf_reduce", one_off)
    stage1 = run_stage1(parse_generators(json.dumps(DIAGONAL_DOC)))
    stage2 = isorbit.pipeline.run_stage2(stage1, [(0, 0)])
    assert first_failure(stage1, stage2) == (
        "span", "a Hermite row is not the combination it carries")


def test_oracle_check_walk_is_bounded_by_the_closure_cap():
    # the orbit of (0, 1, 2, 3) holds 4 cell points, 3 beyond its one
    # representative; the check's walk holds at most the domain's points
    # plus the cap, so a cap of 3 passes both and a cap of 2 stops both
    stage1 = run_stage1(parse_generators(json.dumps(FOUR_CYCLE_DOC)))
    stage2 = isorbit.pipeline.run_stage2(stage1, [(0, 1, 2, 3)], 3)
    assert first_failure(stage1, stage2, 3) is None
    with pytest.raises(ClosureCapExceededError, match="cap of 2 cell points beyond its R = 1 "):
        isorbit.pipeline.run_stage2(stage1, [(0, 1, 2, 3)], 2)
    with pytest.raises(ClosureCapExceededError) as info:
        first_failure(stage1, stage2, 2)
    assert str(info.value) == (
        "the orbit walk passed the closure cap of 2 cell points beyond the D = 1 domain points")
    # four domain points of one orbit: the merge adds none, and the walk
    # never refuses a run the merge accepted, at the smallest cap
    points = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    assert first_failure(stage1, isorbit.pipeline.run_stage2(stage1, points, 0), 0) is None


def test_run_domain_dimension_mismatch(tmp_path, capsys):
    code, _ = run_main(tmp_path, ["--box", "0..1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DimensionMismatch"


def _fail_if_listed(monkeypatch):
    """Make every way of reading a Box's points fail the test."""
    def listed(self, *args):
        raise AssertionError("a box point was made")
    for name in ("__iter__", "shifted_blocks", "at"):
        monkeypatch.setattr(Box, name, listed)
    monkeypatch.setattr(isorbit.cli, "_point_texts", listed)  # and the texts of its points


@pytest.mark.parametrize("box,axes", [
    (["--box", "0..1"], "1 axis"),
    (["--box", "0..1,0..1,0..0"], "3 axes"),
    ({"min": [0], "max": [1]}, "1 axis"),
    ({"min": [], "max": []}, "0 axes"),
], ids=["inline-1", "inline-3", "file-1", "file-0"])
def test_box_dimension_is_checked_before_any_point(tmp_path, capsys, monkeypatch, box, axes):
    # the message names the box, not a point that is in no file
    if isinstance(box, dict):
        box = ["--domain", write(tmp_path / "domain.json", {"box": box})]
    _fail_if_listed(monkeypatch)
    code, out = run_main(tmp_path, box)
    assert code == 1 and not out.exists()
    assert _single_json_error(capsys) == {
        "error": "DimensionMismatch",
        "message": f"box has {axes}, the generators act on Z^2"}


def _main_stdout(argv, capfd):
    """main's exit status and what it printed on stdout."""
    code = main(argv)
    return code, capfd.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_stdout_and_output_file_give_the_same_bytes(tmp_path, capfd, fmt):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    out = tmp_path / "out"
    argv = ["--gens", gens, "--box", "-3..4,-2..5", "--format", fmt]
    assert _main_stdout(argv + ["--output", str(out)], capfd) == (0, "")
    code, printed = _main_stdout(argv, capfd)
    assert code == 0 and printed.encode() == out.read_bytes()


def test_no_stdout_gives_an_io_error_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # a process started with fd 1 closed (isorbit ... >&-) has sys.stdout
    # None; the run fails as an IOError object on stderr, not a traceback
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["--gens", gens, "--box", "0..1,0..1"]) == 1
    assert _single_json_error(capsys) == {
        "error": "IOError", "message": "no standard output to write to"}


# the child caps its own address space at 48 MB past what it maps once
# isorbit is imported; parsing 400,000 points needs more than that
OUT_OF_MEMORY = """\
import re, resource, sys
from isorbit.cli import main
with open("/proc/self/status", encoding="ascii") as f:
    mapped = int(re.search(r"VmSize:\\s+(\\d+) kB", f.read())[1]) << 10
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = mapped + (48 << 20)
resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_running_out_of_memory_is_one_json_error(tmp_path):
    gens = write(tmp_path / "gens.json", {"n": 4, "generators": [
        {"type": "translation", "v": [0, 1, 1, 0]}]})
    points = tmp_path / "points.json"
    points.write_text('{"points": [%s]}' % ",".join(
        f"[{i}, {i + 1}, {i + 2}, {i + 3}]" for i in range(400_000)), encoding="ascii")
    out = tmp_path / "out.tsv"
    done = _python(OUT_OF_MEMORY, "--gens", gens, "--domain", points, "--format", "tsv",
                   "--output", out)
    assert done.returncode == 1 and not done.stdout and not out.exists()
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0]) == {"error": "OutOfMemory", "message": "the run ran out of memory"}


def test_the_output_joins_small_pieces_into_64_kb_writes(tmp_path, monkeypatch, capfd):
    # the JSON writer makes pieces of a few bytes to a few KB; the output
    # file's buffer copies them and writes when the next piece does not
    # fit, so every raw write but the last is over 64 KB less the longest
    # piece, to a file or to stdout. The same run through the file opened
    # unbuffered or with an 8 KB buffer makes writes of a few bytes or KB,
    # and fails the check
    gens = write(tmp_path / "gens.json", CHORDS4_DOC)
    out = tmp_path / "out.json"
    argv = ["--gens", gens, "--box", "0..15,0..15,0..15,0..15", "--output", str(out)]
    json_chunks, lengths = isorbit.cli.json_chunks, []

    def measured(head, stage2):
        for piece in json_chunks(head, stage2):
            lengths.append(len(piece))
            yield piece
    monkeypatch.setattr(isorbit.cli, "json_chunks", measured)

    def raw_writes(forced=None, argv=argv) -> list[int]:
        sizes = []

        class Counted(io.FileIO):
            def write(self, b):
                sizes.append(super().write(b))
                return sizes[-1]

        def opener(path, mode="r", buffering=-1, closefd=True, **text):
            if mode == "r":  # an input file
                return open(path, **text)
            assert mode == "wb"  # no output is opened in text mode
            buffering = buffering if forced is None else forced
            raw = Counted(path, mode, closefd)
            return raw if buffering == 0 else io.BufferedWriter(
                raw, buffering if buffering > 0 else io.DEFAULT_BUFFER_SIZE)
        monkeypatch.setattr(isorbit.cli, "open", opener, raising=False)
        assert main(argv) == 0
        return sizes

    sizes = raw_writes()
    longest = max(lengths)
    assert sum(sizes) == out.stat().st_size > 1 << 20 and longest < 1 << 14
    assert min(sizes[:-1]) > (1 << 16) - longest
    capfd.readouterr()
    sizes = raw_writes(argv=argv[:-2])
    assert capfd.readouterr().out.encode() == out.read_bytes()
    assert min(sizes[:-1]) > (1 << 16) - longest
    for forced in (0, 8192):
        assert min(raw_writes(forced)[:-1]) < (1 << 16) - longest


def test_merge_failure_writes_nothing(tmp_path, capfd):
    # rank 0: the orbit of (1, 2) under the signed swaps needs 8 cell points
    gens = write(tmp_path / "gens.json", {"n": 2, "generators": [
        {"type": "negation", "signs": [-1, 1]},
        {"type": "permutation", "perm": [1, 0]}]})
    out = tmp_path / "out"
    for fmt in ("json", "tsv"):
        argv = ["--gens", gens, "--box", "0..3,0..3", "--closure-cap", "1", "--format", fmt]
        assert _main_stdout(argv + ["--output", str(out)], capfd) == (1, "")
        assert not out.exists()
        assert _main_stdout(argv, capfd) == (1, "")


def test_digit_limit_writes_nothing(tmp_path, capfd):
    big = "1" + "0" * 4000
    gens = tmp_path / "gens.json"
    gens.write_text('{"n": 2, "generators": [{"type": "translation", "v": [%s, 1]}, '
                    '{"type": "translation", "v": [1, %s]}]}' % (big, big),
                    encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--gens", str(gens), "--box", "0..1,0..1"]
    assert _main_stdout(argv + ["--output", str(out)], capfd) == (1, "")
    assert not out.exists()
    assert _main_stdout(argv, capfd) == (1, "")


CHORDS4_DOC = {"n": 4, "generators": [
    {"type": "translation", "v": [12, 0, 0, 0]},
    {"type": "translation", "v": [1, 1, 1, 1]},
    {"type": "negation", "signs": [-1, -1, -1, -1]},
    {"type": "permutation", "perm": [1, 0, 2, 3]},
    {"type": "permutation", "perm": [1, 2, 3, 0]}]}


def traced_slope(tmp_path, gens_doc, fmt, boxes) -> float:
    """Bytes per point between the traced peaks of the CLI runs on the last
    two (point count, box) pairs; the runs go in turn, so the first, on a
    small box, fills what any run fills once."""
    gens = write(tmp_path / "gens.json", gens_doc)
    peaks = []
    for points, spec in boxes:
        argv = ["--gens", gens, "--box", spec, "--format", fmt,
                "--output", str(tmp_path / f"out.{fmt}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append((points, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (p, a), (q, b) = peaks[-2:]
    return (b - a) / (q - p)


CHORDS4_BOXES = [(16, "0..1,0..1,0..1,0..1"), (2 ** 16, "0..15,0..15,0..15,0..15"),
                 (2 ** 18, "0..15,0..15,0..31,0..31")]


def test_streamed_tsv_run_holds_at_most_8_bytes_per_point(tmp_path):
    # stage 2 reduces a box's first block and moves its representatives to
    # the others, keeping per block a 4-byte number for each of them; only
    # the 4-byte class of every point grows with the points, so the traced
    # peak of a run grows by about 4 bytes a point (3.5 measured on Python
    # 3.11, where the 2^16-point run peaks in the merge)
    assert traced_slope(tmp_path, CHORDS4_DOC, "tsv", CHORDS4_BOXES) <= 8


def test_streamed_json_run_holds_at_most_10_bytes_per_point(tmp_path):
    # the JSON twin of the TSV bound: stage 2's 4-byte class numbers, and
    # the writer's member indices, one array per class, 4 bytes a point
    # and the arrays' growth margin; the text tables add a table and a
    # piece, not bytes per point (7.9 measured on Python 3.11)
    assert traced_slope(tmp_path, CHORDS4_DOC, "json", CHORDS4_BOXES) <= 10


def test_a_box_of_distinct_representatives_holds_at_most_370_bytes_per_point(tmp_path):
    # every point of 0..0,0..N,0..0,0..0 is its own representative under
    # this rank-2 lattice, so stage 2 moves the first block's points, not
    # its representatives, and holds what the merge of N representatives
    # holds: 308.4 bytes a point on Python 3.11. The generators split the
    # axes into the blocks {0} and {1, 2, 3}, and only the flip of axis 0
    # moves a cell point, so the merge runs on the one value of axis 0 and
    # numbers the projections on axes 1 to 3 together. The peak comes while
    # it numbers those: the representative tuples (72) and stage 2's dict
    # of them (68), their coordinate ints (32), the projection tuples (64)
    # and their dict (68), and the 4-byte numbers
    gens_doc = {"n": 4, "generators": [
        {"type": "translation", "v": [0, 1, 1, 0]},
        {"type": "negation", "signs": [-1, 1, 1, 1]},
        {"type": "permutation", "perm": [0, 1, 3, 2]}]}
    boxes = [(points, f"0..0,0..{points - 1},0..0,0..0") for points in (16, 2 ** 13, 2 ** 15)]
    assert traced_slope(tmp_path, gens_doc, "tsv", boxes) <= 370


def test_step_maps_hold_at_most_8_bytes_per_cell_point_and_axis(monkeypatch):
    # the box's blocks revisit the 1,728 points of the chords4 cell: each of
    # its two deltas (the step of axis 1 and the carry of axis 0) has a
    # step map of one 8-byte entry per cell point, and there are at most n
    # deltas; against stage 2 without the maps, the traced peak may grow
    # by no more than that (on Python 3.11 the two peaks are within 0.1 KB,
    # as the maps spare moving blocks). Each runs twice and the second run
    # counts, so caches filled once are not charged
    stage1 = run_stage1(parse_generators(json.dumps(CHORDS4_DOC)))
    index, n = math.prod(p for _c, p, _b in stage1.basis.echelon), 4
    assert index == 12 ** 3
    gate_off = mutant_module(isorbit.pipeline, [
        ("basis.m == domain.n and cell", "False and cell")])
    box = Box((0, 0, 0, 0), (20, 20, 15, 15))
    peaks, moves = {}, {}

    def counted(module):  # module's reduce_columns, counting the blocks it moves
        reduce_columns = module.reduce_columns

        def reduce(basis, cols):
            moves[module] += 1
            reduce_columns(basis, cols)
        return reduce
    for module in (isorbit.pipeline, gate_off):
        monkeypatch.setattr(module, "reduce_columns", counted(module))
    for module in (isorbit.pipeline, gate_off) * 2:
        moves[module] = 0
        tracemalloc.start()
        try:
            module.run_stage2(stage1, box)
            peaks[module] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 21 heads of 2 blocks; with the maps, stage 2 moves the base, the
    # first head's short block (5 values of axis 1, its parent the block
    # before it) and the second head's first block (its parent the first
    # head's). That block fills the carry's map for every representative
    # of the base, which holds all 1,728 cell points, so each later block,
    # whose parent is the block of its slice one head back, takes its
    # numbers through the map
    assert moves == {isorbit.pipeline: 3, gate_off: 21 * 2}
    assert peaks[isorbit.pipeline] - peaks[gate_off] <= 8 * index * n


@pytest.mark.parametrize("n,spec", [(1, "0..99999"), (2, "0..2,0..40000")])
def test_a_box_with_no_tail_table_writes_the_bytes_of_its_points_file(tmp_path, n, spec):
    # the last axis alone is longer than a tail table, so every point fills
    # the whole template, as a points file's points do
    gens = write(tmp_path / "gens.json", {"n": n, "generators": [
        {"type": "translation", "v": [3] + [0] * (n - 1)},
        {"type": "translation", "v": [0] * (n - 1) + [7]},
        {"type": "negation", "signs": [-1] * n}]})
    axes = [range(int(a), int(b) + 1) for a, b in (axis.split("..") for axis in spec.split(","))]
    assert len(axes[-1]) > isorbit.domain.BLOCK_POINTS
    domain = write(tmp_path / "domain.json", {"points": list(itertools.product(*axes))})
    for fmt in ("json", "tsv"):
        outs = []
        for source in (["--box", spec], ["--domain", domain]):
            out = tmp_path / f"out-{len(outs)}.{fmt}"
            assert main(["--gens", gens, *source, "--format", fmt, "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_run_missing_file(tmp_path, capsys):
    code = main(["--gens", str(tmp_path / "nope.json"), "--box", "0..1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IOError"


def test_run_not_atomic_error_object(tmp_path, capsys):
    gens_doc = {"n": 2, "generators": [{"type": "screw", "v": [1, 0]}]}
    code, _ = run_main(tmp_path, ["--box", "0..1,0..1"], gens_doc=gens_doc)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NotAtomic"


def test_stdout_when_no_output_path(tmp_path, capfd):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    assert main(["--gens", gens, "--box", "0..0,0..0", "--format", "tsv"]) == 0
    assert capfd.readouterr().out == "0,0\t0,0\n"


def _swap_doc(n):
    return {"n": n, "generators": [
        {"type": "permutation", "perm": [1, 0] + list(range(2, n))}]}


def _cycle_doc(n, k):
    """A k-cycle of axes 0..k-1 in Z^n: it moves k axes."""
    return {"n": n, "generators": [
        {"type": "permutation", "perm": [*range(1, k), 0, *range(k, n)]}]}


def test_dimension_cap_flag(tmp_path, capsys):
    # a cycle of 33 axes, one past the default permutation-group cap;
    # raising the cap unblocks it
    n = k = DEFAULT_MAX_DIMENSION + 1
    box = ",".join(["0..0"] * n)
    code, _ = run_main(tmp_path, ["--box", box], gens_doc=_cycle_doc(n, k), name="capped")
    assert code == 1
    assert _single_json_error(capsys)["error"] == "DimensionTooLarge"
    code, out = run_main(
        tmp_path, ["--box", box, "--max-dimension", str(k)],
        gens_doc=_cycle_doc(n, k), name="uncapped")
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 1 and doc["rotation_order"] == k


def test_dimension_cap_only_where_a_closure_is_built(tmp_path, capsys):
    # the cap counts the axes the permutations move, not n: without a
    # permutation generator there is no group to build, and a swap at
    # n = 40 moves 2 axes; generators moving 33 axes there are refused
    n = 40
    e0 = [1] + [0] * (n - 1)
    flip0 = [-1] + [1] * (n - 1)
    gens_doc = {"n": n, "generators": [
        {"type": "translation", "v": e0}, {"type": "negation", "signs": flip0}]}
    box = ",".join(["0..1"] + ["0..0"] * (n - 1))
    code, out = run_main(tmp_path, ["--box", box], gens_doc=gens_doc, name="free")
    assert code == 0
    assert json.loads(out.read_text())["classes"] == [
        {"label": [0] * n, "members": [[0] * n, e0]}]
    box = ",".join(["0..1"] * 2 + ["0..0"] * (n - 2))
    code, out = run_main(tmp_path, ["--box", box], gens_doc=_swap_doc(n), name="swap")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rotation_order"] == 2 and len(doc["classes"]) == 3
    moved = DEFAULT_MAX_DIMENSION + 1
    gens_doc = {"n": n, "generators": [_swap_doc(n)["generators"][0],
                                       _cycle_doc(n, moved)["generators"][0]]}
    code, _ = run_main(tmp_path, ["--box", box], gens_doc=gens_doc, name="moved")
    assert code == 1
    assert _single_json_error(capsys) == {
        "error": "DimensionTooLarge",
        "message": f"the permutation generators move {moved} axes, "
                   f"past the permutation-group cap {DEFAULT_MAX_DIMENSION}"}


def test_dimension_far_past_the_cap_is_one_json_error(tmp_path, capsys):
    # the message once printed n!, which has more than 4,300 digits here
    n = 2000
    box = ",".join(["0..0"] * n)
    code, out = run_main(tmp_path, ["--box", box], gens_doc=_cycle_doc(n, n))
    assert code == 1 and not out.exists()
    err = _single_json_error(capsys)
    assert err["error"] == "DimensionTooLarge" and len(err["message"]) < 100


def test_default_dimension_with_many_random_permutations(tmp_path):
    # at the cap: 20 random permutations, a negation and a translation
    n = DEFAULT_MAX_DIMENSION
    rng = Random(304)
    perms = [rng.sample(range(n), n) for _ in range(20)]
    gens_doc = {"n": n, "generators": [
        *({"type": "permutation", "perm": p} for p in perms),
        {"type": "negation", "signs": [-1] + [1] * (n - 1)},
        {"type": "translation", "v": [1] + [0] * (n - 1)}]}
    box = ",".join(["0..1"] * 2 + ["0..0"] * (n - 2))
    code, out = run_main(tmp_path, ["--box", box], gens_doc=gens_doc)
    assert code == 0
    doc = json.loads(out.read_text())
    # the permutations generate the alternating group, or the symmetric one
    # if any is odd; either way the flip of e0 is conjugated onto every axis
    odd = any(sum(1 for i in range(n) for j in range(i) if p[j] > p[i]) % 2 for p in perms)
    perm_order = math.factorial(n) // (1 if odd else 2)
    assert doc["rotation_order"] == 2 ** n * perm_order


def test_usage_error_for_conflicting_domains(tmp_path):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    with pytest.raises(SystemExit) as info:
        main(["--gens", gens, "--box", "0..1,0..1", "--domain", "x.json"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", ["--mode", "--threads", "--stage1-cache"])
def test_removed_flags_are_bad_command_lines(tmp_path, flag):
    # removed, not ignored: an old command line exits 2 instead of running
    # something other than what it asked for
    value = {"--mode": "group", "--threads": "4",
             "--stage1-cache": str(tmp_path / "stage1.json")}[flag]
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--gens", gens, "--box", "0..1,0..1", "--output", str(out), flag, value])
    assert info.value.code == 2
    assert not out.exists() and not (tmp_path / "stage1.json").exists()


def _readme_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return {flag for line in readme.splitlines() if line.startswith("| `--")
            for flag in re.findall(r"--[a-z0-9-]+", line.split(" | ")[0])}


def test_readme_flag_table_matches_the_parser():
    assert _readme_flags() == set(OPTIONS)


def test_help_exits_0_and_lists_every_readme_flag(capsys):
    flags = _readme_flags()
    for argv in (["--help"], ["-h"], ["--gens", "x", "--he"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: isorbit") and not out.err
        assert flags <= set(re.findall(r"--[a-z0-9-]+", out.out))


@pytest.mark.parametrize("argv,error", [
    (["--box", "0..1,0..1", "--bogus"], "unrecognized argument: --bogus"),
    (["--box", "0..1,0..1", "-x"], "unrecognized argument: -x"),
    (["--box", "0..1,0..1", "stray"], "unrecognized argument: stray"),
    (["--box", "0..1,0..1", "--"], "unrecognized argument: --"),
    (["--box"], "argument --box: expected one argument"),
    (["--box", "0..1,0..1", "--format"], "argument --format: expected one argument"),
    ([], "one of the arguments --domain --box is required"),
    (["--box", "0..1,0..1", "--domain", "d.json"],
     "argument --box: not allowed with argument --domain"),
    (["--box", "0..1,0..1", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["--box", "0..1,0..1", "--format="], "argument --format: invalid choice: ''"),
    (["--box", "0..1,0..1", "--o", "x"],
     "ambiguous option: --o could match --output, --oracle-check"),
    (["--box", "0..1,0..1", "--oracle-check=yes"],
     "argument --oracle-check: ignored explicit argument 'yes'"),
    (["--box", "0..1,0..1", "--gens="], "argument --gens: expected a file name"),
    (["--domain", ""], "argument --domain: expected a file name"),
    (["--box", "0..1,0..1", "--max-padding", "6"], "unrecognized argument: --max-padding"),
], ids=["unknown", "single-dash", "positional", "double-dash", "no-value", "no-format",
        "no-domain", "two-domains", "bad-format", "empty-format", "ambiguous",
        "flag-value", "empty-gens", "empty-domain", "removed-flag"])
def test_bad_command_line_exits_2_with_the_usage(tmp_path, capsys, argv, error):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--gens", gens, "--output", str(out)] + argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: isorbit ")
    assert err.splitlines()[-1].startswith(f"isorbit: error: {error}")
    assert not out.exists()


def test_gens_is_required(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--box", "0..1,0..1"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "isorbit: error: the following arguments are required: --gens\n")


@pytest.mark.parametrize("output", [["--output="], ["--output", ""], ["--out", ""]])
def test_empty_output_is_a_bad_command_line(tmp_path, capsys, output):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    with pytest.raises(SystemExit) as info:
        main(["--gens", gens, "--box", "0..1,0..1"] + output)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "isorbit: error: argument --output: expected a file name" in captured.err


def test_prefixes_name_their_option_and_the_last_value_wins(tmp_path):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    out = tmp_path / "out"
    assert main(["--ge", gens, "--box", "9..9,9..9", "--box=0..1,0..1",
                 "--form", "json", "--format=tsv", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["0,0\t0,0", "0,1\t0,1", "1,0\t0,1", "1,1\t0,0"]


# --max-padding went with the padded-box check: whatever its value, it is
# an unknown option now, and still a bad command line
CAP_FLAGS = ["--closure-cap", "--box-cap", "--max-padding", "--max-dimension"]


@pytest.mark.parametrize("flag", CAP_FLAGS)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_caps_must_be_positive(tmp_path, capsys, flag, value):
    gens = write(tmp_path / "gens.json", {"n": 2, "generators": [
        {"type": "translation", "v": [1, 0]}]})
    with pytest.raises(SystemExit) as info:
        main(["--gens", gens, "--box", "0..1,0..1", flag, value])
    assert info.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("isorbit: error: unrecognized argument: --max-padding"
                            if flag == "--max-padding" else f"isorbit: error: argument {flag}: ")


@pytest.mark.parametrize("flag", CAP_FLAGS)
@pytest.mark.parametrize("value", ["1_0", " +5", "+5", "5 ", "\u0663", "0x10", "1e3", ""])
def test_caps_are_ascii_digits(tmp_path, capsys, flag, value):
    # int() would read the first five as 10, 5, 5, 5 and 3
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    with pytest.raises(SystemExit) as info:
        main(["--gens", gens, "--box", "0..1,0..1", f"{flag}={value}"])
    assert info.value.code == 2
    error = (f"unrecognized argument: {flag}={value}" if flag == "--max-padding"
             else f"argument {flag}: expected a positive integer, got {value!r}")
    assert capsys.readouterr().err.endswith(f"isorbit: error: {error}\n")


def test_closure_cap_of_one_needs_no_closure_without_rotations(tmp_path):
    gens_doc = {"n": 2, "generators": [{"type": "translation", "v": [1, 0]}]}
    code, out = run_main(
        tmp_path, ["--box", "0..2,0..1", "--closure-cap", "1", "--format", "tsv"],
        gens_doc=gens_doc)
    assert code == 0
    assert out.read_text().splitlines() == [
        "0,0\t0,0", "0,1\t0,1", "1,0\t0,0", "1,1\t0,1", "2,0\t0,0", "2,1\t0,1"]


def test_closure_cap_exceeded_is_one_json_error(tmp_path, capsys):
    # rank 0: the orbit of (1, 2) under the signed swaps has 8 cell points,
    # 7 of them beyond the one-point domain's representative
    gens_doc = {"n": 2, "generators": [
        {"type": "negation", "signs": [-1, 1]},
        {"type": "permutation", "perm": [1, 0]}]}
    box = ["--box", "1..1,2..2"]
    code, _ = run_main(tmp_path, box + ["--closure-cap", "6"], gens_doc=gens_doc)
    assert code == 1
    err = _single_json_error(capsys)
    assert err == {"error": "ClosureCapExceeded",
                   "message": "the class merge passed the closure cap of 6 cell points "
                              "beyond its R = 1 representatives"}
    code, _ = run_main(tmp_path, box + ["--closure-cap", "7"], gens_doc=gens_doc)
    assert code == 0


def test_closure_cap_past_the_digit_limit_is_one_json_error(tmp_path, capsys):
    # each literal is under the 4,300-digit parse limit, but the cell point
    # the negation takes (1, 0) or (2, 0) to has a coordinate of about
    # 6,000 digits; the error names the cap and R, no point
    big = "1" + "0" * 3000
    gens = tmp_path / "gens.json"
    gens.write_text('{"n": 2, "generators": [{"type": "translation", "v": [%s, 1]}, '
                    '{"type": "translation", "v": [1, %s]}, '
                    '{"type": "negation", "signs": [-1, -1]}]}' % (big, big),
                    encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--gens", str(gens), "--closure-cap", "1", "--format", "tsv", "--output", str(out)]
    # (0, 0) is fixed, so the merge adds one cell point for 0..1 and two for 0..2
    assert main(argv + ["--box", "0..2,0..0"]) == 1
    assert not out.exists()
    err = _single_json_error(capsys)
    assert err == {"error": "ClosureCapExceeded",
                   "message": "the class merge passed the closure cap of 1 cell points "
                              "beyond its R = 3 representatives"}
    assert main(argv + ["--box", "0..1,0..0"]) == 0
    assert out.read_text() == "0,0\t0,0\n1,0\t1,0\n"


def _single_json_error(capsys):
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert isinstance(err, dict)
    return err


def _run_with_file(tmp_path, kind, path):
    """Run the CLI with path as its generator or domain file."""
    out = ["--output", str(tmp_path / "out")]
    if kind == "gens":
        return main(["--gens", str(path), "--box", "0..1,0..1"] + out)
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    return main(["--gens", gens, "--domain", str(path)] + out)


@pytest.mark.parametrize("kind", ["gens", "domain"])
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert _run_with_file(tmp_path, kind, bad) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "ParseError" and "UTF-8" in err["message"]


@pytest.mark.parametrize("kind", ["gens", "domain"])
def test_deeply_nested_file_is_a_parse_error(tmp_path, capsys, kind):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert _run_with_file(tmp_path, kind, deep) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "ParseError" and "nested" in err["message"]


def test_oversized_integer_literal_is_a_parse_error(tmp_path, capsys):
    gens = tmp_path / "big.json"
    gens.write_text('{"n": 2, "generators": [{"type": "translation", "v": [%s, 0]}]}'
                    % ("1" * 5000), encoding="utf-8")
    assert _run_with_file(tmp_path, "gens", gens) == 1
    assert _single_json_error(capsys)["error"] == "ParseError"


def test_domain_dimension_error_names_the_first_bad_point(tmp_path, capsys):
    # the index is the point's place in the file, before any sorting or
    # dedupe, and the first bad point wins whichever rule it breaks
    for points, message in [
        ("[[0, 0], [1, 1], [0, 0, 1], [5]]", "point 2: (0, 0, 1) has dimension 3, expected 2"),
        ("[[5, 5], [9, 9], [1]]", "point 2: (1,) has dimension 1, expected 2"),
        ("[[5, 5], [9, 1.5], [1]]", "point 1: coordinate 1 is 1.5, expected an integer"),
        ("[[5, 5], [9], [1.5, 0]]", "point 1: (9,) has dimension 1, expected 2"),
    ]:
        assert _run_points_file(tmp_path, points)[0] == 1
        code = "ParseError" if "coordinate" in message else "DimensionMismatch"
        assert _single_json_error(capsys) == {"error": code, "message": message}


def test_output_integer_past_the_digit_limit_is_one_json_error(tmp_path, capsys):
    # each literal is under the 4,300-digit parse limit, but a Hermite pivot
    # of the two translations has about 8,000 digits
    big = "1" + "0" * 4000
    gens = tmp_path / "gens.json"
    gens.write_text('{"n": 2, "generators": [{"type": "translation", "v": [%s, 1]}, '
                    '{"type": "translation", "v": [1, %s]}]}' % (big, big),
                    encoding="utf-8")
    out = tmp_path / "out"
    argv = ["--gens", str(gens), "--box", "0..1,0..1", "--output", str(out)]
    assert main(argv + ["--format", "json"]) == 1
    assert not out.exists()
    err = _single_json_error(capsys)
    assert err["error"] == "DigitLimitExceeded"
    assert main(argv + ["--format", "tsv"]) == 0
    assert out.read_text().splitlines() == ["0,0\t0,0", "0,1\t0,1", "1,0\t1,0", "1,1\t1,1"]


def _gc_states(tmp_path):
    """main's exit status and the collector's state after it (enabled, and
    the number of frozen objects), for an exit 0, an exit 1 (a float
    coordinate) and an exit 2 (two domains)."""
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    bad = write(tmp_path / "bad.json", {"points": [[0, 0], [0, 1.5]]})
    out = ["--output", str(tmp_path / "out")]
    states = [(main(["--gens", gens, "--box", "0..1,0..1"] + out),
               gc.isenabled(), gc.get_freeze_count()),
              (main(["--gens", gens, "--domain", bad] + out),
               gc.isenabled(), gc.get_freeze_count())]
    with pytest.raises(SystemExit) as info:
        main(["--gens", gens, "--box", "0..1,0..1", "--domain", bad])
    return states + [(info.value.code, gc.isenabled(), gc.get_freeze_count())]


@pytest.fixture
def keep_gc_state():
    """Give the collector back in the state the test found it in."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_hands_back_the_gc_state(tmp_path, capsys, keep_gc_state, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    frozen = gc.get_freeze_count()  # the freeze waits for this process's exit
    assert _gc_states(tmp_path) == [(0, enabled, frozen), (1, enabled, frozen),
                                    (2, enabled, frozen)]


def test_run_goes_without_the_cyclic_gc(tmp_path, monkeypatch, keep_gc_state):
    seen = []

    def failing_run(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(isorbit.cli, "run", failing_run)
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    gc.enable()
    with pytest.raises(RuntimeError):
        main(["--gens", gens, "--box", "0..1,0..1"])
    assert seen == [False] and gc.isenabled()


SRC = str(Path(isorbit.__file__).resolve().parent.parent)

# An exit handler registered before main runs after main's (they run last
# registered first), so it sees what main left behind.
FROZEN_AT_EXIT = """\
import atexit, gc, sys
def report():
    with open(sys.argv[1], "w", encoding="ascii") as f:
        f.write(str(gc.get_freeze_count()))
atexit.register(report)
from isorbit.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _python(code, *args):
    """A fresh interpreter, with isorbit on its path, run on code and args."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, timeout=60)


@pytest.mark.parametrize("status", [0, 1, 2])
def test_a_cli_process_freezes_the_collector_at_exit(tmp_path, capfdbinary, status):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    bad = write(tmp_path / "bad.json", {"points": [[0, 0], [0, 1.5]]})
    argv = {0: ["--gens", gens, "--box", "0..1,0..1"],
            1: ["--gens", gens, "--domain", bad],
            2: ["--gens", gens, "--box", "0..1,0..1", "--domain", bad]}[status]
    done = _python(FROZEN_AT_EXIT, tmp_path / "frozen", *argv)
    assert done.returncode == status
    assert int((tmp_path / "frozen").read_text(encoding="ascii")) > 0
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capfdbinary.readouterr()
    assert code == status
    # the process's stdout, flushed at its exit, and its stderr, byte for byte
    assert (done.stdout, done.stderr) == (captured.out, captured.err)
    assert (bool(done.stdout), bool(done.stderr)) == (status == 0, status != 0)


def test_two_runs_in_one_process_freeze_once_at_exit(tmp_path):
    gens = write(tmp_path / "gens.json", DIAGONAL_DOC)
    done = _python("""\
import atexit, gc, sys
calls, freeze = [], gc.freeze
def counted():
    calls.append(None)
    freeze()
gc.freeze = counted
atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))
from isorbit.cli import main
print(main(sys.argv[1:]), main(sys.argv[1:]), len(calls))
""", "--gens", gens, "--box", "0..1,0..1", "--output", tmp_path / "out")
    assert done.returncode == 0 and not done.stderr
    assert done.stdout.decode().splitlines() == ["0 0 0", "1 True"]
