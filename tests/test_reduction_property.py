"""Property tests of the batched point reduction: it gives the same
translation classes as the pseudoinverse oracle in tests/reference.py, and
point for point the same representatives as the single-point
reduce_mod_lattice, with the map in first-seen order and equal
representatives shared as one tuple.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from isorbit import hnf_reduce, reduce_mod_lattice, reduce_points  # noqa: E402
from reference import build_pseudoinverse, pinv_reduce_points  # noqa: E402


def _partition(assignment):
    classes = {}
    for x, rep in assignment.items():
        classes.setdefault(rep, set()).add(x)
    return {frozenset(c) for c in classes.values()}


@st.composite
def bases_and_points(draw):
    n = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-6, 6)] * n)
    rows = draw(st.lists(vec, max_size=n + 1))
    points = draw(st.lists(st.tuples(*[st.integers(-30, 30)] * n), max_size=40))
    return n, rows, points


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(bases_and_points())
def test_echelon_and_pseudoinverse_reductions_agree(case):
    """Both reductions split the points into the same translation classes,
    on full-rank and rank-deficient bases alike."""
    n, rows, points = case
    basis = hnf_reduce(rows, n)
    _reps, echelon = reduce_points(basis, points)
    _pinv_reps, pseudo = pinv_reduce_points(build_pseudoinverse(basis), basis, points)
    assert _partition(echelon) == _partition(pseudo)


@st.composite
def ranked_bases_and_points(draw):
    """A basis of every rank 0..n, and points with negative, multi-digit and
    repeated coordinates, some of them given twice."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, n))
    vec = st.tuples(*[st.integers(-40, 40)] * n)
    rows = draw(st.lists(vec, min_size=rank, max_size=rank))
    basis = hnf_reduce(rows, n)
    hypothesis.assume(basis.m == rank)
    points = draw(st.lists(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * n), max_size=60))
    repeats = draw(st.lists(st.sampled_from(points), max_size=20)) if points else []
    order = draw(st.permutations(points + repeats))
    return basis, order


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(ranked_bases_and_points())
def test_batched_reduction_matches_single_point_form(case):
    basis, points = case
    reps, assignment = reduce_points(basis, points)
    assert list(assignment) == list(dict.fromkeys(points))
    assert [assignment[x] for x in points] == [reduce_mod_lattice(basis, x) for x in points]
    assert reps == set(assignment.values())
    shared = {}
    for rep in assignment.values():
        assert shared.setdefault(rep, rep) is rep
