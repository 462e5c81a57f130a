"""Tests of the benchmark's own checks and timing; they do not run isorbit.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from clock import INTERPRETER, SLICE_S, run_child
from run import COUNTS, END_TO_END_UNITS, PER_LAYER_TIMES
from workloads import WORKLOADS, CheckError, check_empty_output, check_output

STAGE1 = {
    "crit8": {"n": 6, "rank_m": 6, "rotation_order": 46080,
              "basis_rows": [[2 if i == j else 0 for j in range(6)] for i in range(6)]},
    "chords4": {"n": 4, "rank_m": 4, "rotation_order": 48,
                "basis_rows": [[1, 1, 1, 1], [0, 12, 0, 0], [0, 0, 12, 0], [0, 0, 0, 12]]},
}


def classes_of(w, points):
    classes = {}
    for p in points:
        classes.setdefault(w.key(p), []).append(p)
    return sorted(sorted(c) for c in classes.values())


def render(w, classes, stage1=None) -> bytes:
    """Output bytes in the workload's format for the given class lists."""
    if w.format == "json":
        doc = dict(stage1 or STAGE1[w.name])
        doc["classes"] = [{"label": list(c[0]), "members": [list(p) for p in c]}
                          for c in classes]
        return json.dumps(doc).encode()
    lines = sorted(",".join(map(str, p)) + "\t" + ",".join(map(str, c[0]))
                   for c in classes for p in c)
    return "".join(line + "\n" for line in lines).encode()


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def case(request):
    w = WORKLOADS[request.param]
    points = w.points(1)
    return w, points, classes_of(w, points)


def test_correct_output_passes(case):
    w, points, classes = case
    assert check_output(w, points, render(w, classes)) == len(classes)
    assert len(classes) == {"crit8": 5, "chords4": 72}.get(w.name, len(classes))


def test_two_classes_merged_is_rejected(case):
    w, points, classes = case
    merged = [sorted(classes[0] + classes[1])] + classes[2:]
    with pytest.raises(CheckError, match="one orbit|different orbits"):
        check_output(w, points, render(w, merged))


def test_class_split_is_rejected(case):
    w, points, classes = case
    big = next(c for c in classes if len(c) > 1)
    split = [c for c in classes if c is not big] + [big[:1], big[1:]]
    with pytest.raises(CheckError, match="one orbit"):
        check_output(w, points, render(w, split))


def test_label_not_minimum_is_rejected(case):
    w, points, classes = case
    big = next(c for c in classes if len(c) > 1)
    relabelled = [c if c is not big else big[1:] + big[:1] for c in classes]
    with pytest.raises(CheckError, match="minimum"):
        check_output(w, points, render(w, relabelled))


def test_missing_point_is_rejected(case):
    w, points, classes = case
    big = next(c for c in classes if len(c) > 1)
    short = [c if c is not big else big[:-1] for c in classes]
    with pytest.raises(CheckError, match="input points"):
        check_output(w, points, render(w, short))


@pytest.mark.parametrize("name", sorted(STAGE1))
def test_wrong_stage1_is_rejected(name):
    w = WORKLOADS[name]
    good = STAGE1[name]
    bad_rows = [list(r) for r in good["basis_rows"]]
    bad_rows[0][0] *= 2  # a sublattice of index 2
    check_output(w, [], render(w, [], good))
    for bad in ({"rotation_order": good["rotation_order"] // 2},
                {"rank_m": good["rank_m"] - 1}, {"basis_rows": bad_rows}):
        with pytest.raises(CheckError):
            check_output(w, [], render(w, [], {**good, **bad}))


def test_empty_domain_must_report_the_same_stage1():
    w = WORKLOADS["crit8"]
    full = render(w, classes_of(w, w.points(1)))
    check_empty_output(w, render(w, []), full)
    with pytest.raises(CheckError, match="rotation_order"):
        check_empty_output(w, render(w, [], {**STAGE1["crit8"], "rotation_order": 1}), full)
    tsv = WORKLOADS["scatter4"]
    check_empty_output(tsv, b"", b"")
    with pytest.raises(CheckError):
        check_empty_output(tsv, b"0,0,0,0\t0,0,0,0\n", b"")


def test_scatter_points_follow_the_seed():
    w = WORKLOADS["scatter4"]
    assert w.points(7) == w.points(7)
    assert w.points(7) != w.points(8)
    assert len(set(w.points(7))) == 15_000


def test_run_child_slices_and_reports_status():
    quick = run_child([sys.executable, "-c", "raise SystemExit(3)"], {}, ".", INTERPRETER, 60)
    assert quick.status == 3 and quick.raw_s > 0 and quick.calibrated_s > 0
    busy = f"import time\nt = time.perf_counter()\nwhile time.perf_counter() - t < {3 * SLICE_S}: pass"
    slow = run_child([sys.executable, "-c", busy], {}, ".", INTERPRETER, 60)
    assert slow.status == 0
    assert len(slow.kernels_s) >= 4  # one before the start, one per slice
    assert slow.raw_s >= 2 * SLICE_S  # the busy loop also counts the pauses


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**dict.fromkeys(PER_LAYER_TIMES, "s"),
                         **dict.fromkeys(COUNTS, "count")}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
