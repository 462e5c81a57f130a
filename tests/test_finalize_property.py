"""Property test: the one-sort finalize_labels against the per-class-sort
reference, both in tests/reference.py, and both chunk writers against
their references on its output.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
tier-1 still collects where the extra is not installed.
"""

import pytest

from isorbit import run_stage1, validate_atomic
from reference import dumps_reference, finalize_labels, line_by_line_render_tsv
from reference import per_class_finalize_labels
from reference import streamed_json as render_json
from reference import streamed_tsv as render_tsv

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def stage_outputs(draw):
    """(n, assignment, witness) as stage 2 hands them to finalize_labels:
    the points in drawn order, not sorted, each sent to one of a few
    representatives, and every class of representatives witnessed by its
    largest member, not its smallest."""
    n = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-6, 6)] * n)
    points = draw(st.lists(point, unique=True, max_size=40))
    reps = draw(st.lists(point, unique=True, min_size=1, max_size=8))
    class_of = draw(st.lists(st.integers(0, 3), min_size=len(reps), max_size=len(reps)))
    root: dict = {}
    for r, c in zip(reps, class_of):
        root[c] = max(root.get(c, r), r)
    witness = {r: root[c] for r, c in zip(reps, class_of)}
    picks = draw(st.lists(st.sampled_from(reps), min_size=len(points), max_size=len(points)))
    return n, dict(zip(points, picks)), witness


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(stage_outputs())
def test_finalize_matches_the_per_class_reference(case):
    n, assignment, witness = case
    labeling = finalize_labels(assignment, witness)
    labels, classes = per_class_finalize_labels(assignment, witness)
    assert labeling.labels == labels
    assert labeling.classes == classes
    assert list(labeling.classes) == list(classes)
    assert labeling.partition() == {frozenset(m) for m in classes.values()}
    assert list(labeling.points) == sorted(assignment)
    stage1 = run_stage1(validate_atomic([], n))
    assert render_json(stage1, labeling) == dumps_reference(stage1, labeling)
    assert render_tsv(labeling) == line_by_line_render_tsv(labeling)
