"""Property tests of the batched point reduction and the batched class
merge. The reduction gives the same translation classes as the
pseudoinverse oracle in tests/reference.py, and point for point the same
representatives as the single-point reduce_mod_lattice there, with the map in
first-seen order and equal representatives shared as one tuple. The merge
gives the same witness dict as the per-witness closure merge and the
explicit-group sweep of tests/reference.py.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from isorbit import (  # noqa: E402
    Isometry,
    SignedPermutation,
    hnf_reduce,
    merge_classes_generators,
    reduce_points,
    run_stage1,
    validate_atomic,
)
from reference import (  # noqa: E402
    build_pseudoinverse,
    closure_merge_classes,
    merge_classes_group,
    pinv_reduce_points,
    reduce_mod_lattice,
    rotation_group,
)


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


@st.composite
def ranked_generators_and_points(draw):
    """Atomic generators whose lattice has a drawn rank 0..n, and points.

    The translations live on `rank` chosen coordinates and the permutations
    keep those coordinates among themselves, so the rotations leave the
    lattice's span alone and a rank below n survives stage 1; the orbits
    then run off along the other coordinates, away from the domain.
    """
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(0, n))
    coords = draw(st.permutations(range(n)))
    inside, outside = coords[:rank], coords[rank:]
    raw = []
    for _ in range(draw(st.integers(rank, rank + 1))):
        v = [0] * n
        for c in inside:
            v[c] = draw(st.integers(-3, 3))
        raw.append(Isometry.translation(tuple(v)))
    for _ in range(draw(st.integers(0, 2))):
        signs = draw(st.tuples(*[st.sampled_from((1, -1))] * n))
        raw.append(Isometry.rotation(SignedPermutation.negation(signs)))
    for _ in range(draw(st.integers(0, 2))):
        perm = [0] * n
        for block in (inside, outside):
            for i, j in zip(block, draw(st.permutations(block))):
                perm[i] = j
        raw.append(Isometry.rotation(SignedPermutation.permutation(perm)))
    stage1 = run_stage1(validate_atomic(raw, n))
    hypothesis.assume(stage1.basis.m == rank)
    points = draw(st.lists(st.tuples(*[st.integers(-8, 8)] * n), min_size=1, max_size=25))
    repeats = draw(st.lists(st.sampled_from(points), max_size=5))
    return stage1, points + repeats


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(ranked_generators_and_points())
def test_batched_merge_matches_closure_and_group_merges(case):
    stage1, points = case
    basis = stage1.basis
    reps, _assignment = reduce_points(basis, points)
    gens = stage1.gens.rotation_generators()
    witness = merge_classes_generators(reps, gens, basis)
    assert witness == closure_merge_classes(reps, gens, basis)
    assert witness == merge_classes_group(reps, rotation_group(stage1).elements, basis)
