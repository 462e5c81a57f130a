"""Property tests of the batched point reduction and the batched class
merge. The reduction gives the same translation classes as the
pseudoinverse oracle in tests/reference.py, and point for point the same
representatives as the single-point reduce_mod_lattice there, with the map in
first-seen order and equal representatives shared as one tuple. The merge
gives the same witness dict as its earlier dict-returning form, the
per-witness closure merge and the explicit-group sweep of
tests/reference.py, and in any order of the representatives it roots each
orbit at its first one. The edges it skips join nothing: it gives the
roots of the walk that skips none, or trips the closure cap with the same
message, and a mutant that skips a 3-cycle's edges as an involution's
does not. The closure cap counts the cell points the merge adds over all
axis blocks: a cap of the count that an orbit walk in each block finds
passes, through stage 2 and the exact check (and, with one block, through
the merge and the full walk), and one less fails. The exact check of --oracle-check passes every run, at
every lattice rank, and at n = 6 to 12 with a lattice rank below n.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

from functools import partial
from itertools import count

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import isorbit.labeling  # noqa: E402
from isorbit import (  # noqa: E402
    ClosureCapExceededError,
    Isometry,
    SignedPermutation,
    hnf_reduce,
    run_stage1,
    run_stage2,
    validate_atomic,
)
from isorbit.check import first_failure  # noqa: E402
from isorbit.labeling import DEFAULT_CLOSURE_CAP  # noqa: E402
from conftest import merge_list, merge_witnesses, mutant_module  # noqa: E402
from reference import (  # noqa: E402
    block_walk_added,
    build_pseudoinverse,
    closure_merge_classes,
    full_walk_merge_classes,
    merge_classes_group,
    pinv_reduce_points,
    reduce_mod_lattice,
    reduce_points,
    rotation_group,
    witness_merge_classes,
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
def ranked_generators_and_points(draw, max_n=5):
    """Atomic generators whose lattice has a drawn rank 0..n, n at most
    max_n, and points.

    The translations live on `rank` chosen coordinates and the permutations
    keep those coordinates among themselves, so the rotations leave the
    lattice's span alone and a rank below n survives stage 1; the orbits
    then run off along the other coordinates, away from the domain.
    """
    n = draw(st.integers(1, max_n))
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
    witness = merge_witnesses(reps, gens, basis)
    assert witness == witness_merge_classes(reps, gens, basis)
    assert witness == closure_merge_classes(reps, gens, basis)
    assert witness == merge_classes_group(reps, rotation_group(stage1).elements, basis)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(ranked_generators_and_points(), st.randoms(use_true_random=False))
def test_merge_roots_are_first_representatives_in_any_order(case, rng):
    """In any order of the representatives, as stage 2 hands them over in
    the order first met, each one's root is the first representative of
    its orbit in that order."""
    stage1, points = case
    basis = stage1.basis
    reps = sorted(reduce_points(basis, points)[0])
    rng.shuffle(reps)
    gens = stage1.gens.rotation_generators()
    root = merge_list(reps, gens, basis)
    witness = witness_merge_classes(reps, gens, basis)
    first = {}
    for i, p in enumerate(reps):
        first.setdefault(witness[p], i)
    assert root == [first[witness[p]] for p in reps]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(ranked_generators_and_points())
def test_the_exact_check_passes_every_run(case):
    stage1, points = case
    hypothesis.event(f"lattice rank {stage1.basis.m} in Z^{stage1.gens.n}")
    assert first_failure(stage1, run_stage2(stage1, points)) is None


@st.composite
def wide_generators_and_points(draw):
    """As ranked_generators_and_points, in Z^n for n from 6 to 12 with a
    lattice rank below n, and a small rotation group: up to two swaps of
    disjoint coordinate pairs, each pair inside the lattice's coordinates
    or outside them, and up to two flips. So every orbit holds at most
    2^8 * 4 cell points, far under the default closure cap."""
    n = draw(st.integers(6, 12))
    rank = draw(st.integers(0, n - 1))
    coords = draw(st.permutations(range(n)))
    inside, outside = coords[:rank], coords[rank:]
    raw = []
    for _ in range(draw(st.integers(rank, rank + 1))):
        v = [0] * n
        for c in inside:
            v[c] = draw(st.integers(-3, 3))
        raw.append(Isometry.translation(tuple(v)))
    pairs = [tuple(block[i:i + 2]) for block in (inside, outside) for i in range(0, len(block) - 1, 2)]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)):
        perm = list(range(n))
        perm[i], perm[j] = j, i
        raw.append(Isometry.rotation(SignedPermutation.permutation(perm)))
    for _ in range(draw(st.integers(0, 2))):
        signs = draw(st.tuples(*[st.sampled_from((1, -1))] * n))
        raw.append(Isometry.rotation(SignedPermutation.negation(signs)))
    stage1 = run_stage1(validate_atomic(draw(st.permutations(raw)), n))
    hypothesis.assume(stage1.basis.m == rank)
    points = draw(st.lists(st.tuples(*[st.integers(-8, 8)] * n), min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(points), max_size=3))
    return stage1, points + repeats


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(wide_generators_and_points())
def test_the_exact_check_passes_wide_runs_of_lower_rank(case):
    stage1, points = case
    hypothesis.event(f"lattice rank {stage1.basis.m} in Z^{stage1.gens.n}")
    assert stage1.basis.m < stage1.gens.n
    assert first_failure(stage1, run_stage2(stage1, points)) is None


def added_cell_points(reps, gens, basis):
    """(roots, v): the uncapped merge's roots of the list reps, and v, the
    cell points it adds beyond them."""
    index = dict(zip(reps, count()))
    roots = isorbit.labeling.merge_classes_generators(index, gens, basis, DEFAULT_CLOSURE_CAP)
    return roots, len(index) - len(reps)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.one_of(ranked_generators_and_points(), wide_generators_and_points()))
def test_a_cap_of_the_added_cell_points_passes_and_one_less_fails(case):
    # v comes from an orbit walk in each axis block of its own, one point
    # at a time; with one block the one-block merge and the full walk
    # must add v cell points too
    stage1, points = case
    basis, gens = stage1.basis, stage1.gens.rotation_generators()
    reps = sorted(reduce_points(basis, points)[0])
    v = block_walk_added(stage1.gens, basis, reps)
    hypothesis.event("no cell point added" if v == 0 else "cell points added")
    hypothesis.event("one axis block" if len(stage1.blocks) == 1 else "several axis blocks")
    labeling = run_stage2(stage1, points).labeling()
    stage2 = run_stage2(stage1, points, v)
    assert stage2.labeling() == labeling
    assert first_failure(stage1, stage2, v) is None
    if v:
        with pytest.raises(ClosureCapExceededError):
            run_stage2(stage1, points, v - 1)
    if len(stage1.blocks) == 1:
        roots, added = added_cell_points(reps, gens, basis)
        assert added == v
        assert merge_list(reps, gens, basis, v) == roots
        assert full_walk_merge_classes(reps, gens, basis, v) == roots
        if v:
            for merge in (merge_list, full_walk_merge_classes):
                with pytest.raises(ClosureCapExceededError):
                    merge(reps, gens, basis, v - 1)


def roots_or_error(merge, reps, gens, basis, closure_cap):
    """The roots that merge gives the list reps, or the message of the
    closure cap it tripped."""
    try:
        return merge(reps, gens, basis, closure_cap)
    except ClosureCapExceededError as e:
        return str(e)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(ranked_generators_and_points(), st.randoms(use_true_random=False),
                  st.one_of(st.integers(1, 40), st.just(DEFAULT_CLOSURE_CAP)))
def test_pruned_merge_matches_the_full_walk(case, rng, closure_cap):
    stage1, points = case
    basis = stage1.basis
    reps = sorted(reduce_points(basis, points)[0])
    rng.shuffle(reps)
    gens = stage1.gens.rotation_generators()
    kept = [r for r in gens if not isorbit.labeling._fixes_the_cell(basis, r.signs, r.perm)]
    hypothesis.event("a generator fixes the cell" if len(kept) < len(gens) else "none fixes the cell")
    hypothesis.event("an involution" if any(
        isorbit.labeling._fixes_the_cell(basis, *isorbit.labeling._squared(r)) for r in kept)
        else "no involution")
    pruned = roots_or_error(merge_list, reps, gens, basis, closure_cap)
    hypothesis.event("cap tripped" if isinstance(pruned, str) else "cap kept")
    assert pruned == roots_or_error(full_walk_merge_classes, reps, gens, basis, closure_cap)
    # both walks pass at the count v of cell points added and fail below it
    roots, v = added_cell_points(reps, gens, basis)
    assert isinstance(pruned, str) == (closure_cap < v)
    for cap in (v - 1, v) if v else (0,):
        pruned = roots_or_error(merge_list, reps, gens, basis, cap)
        assert pruned == roots_or_error(full_walk_merge_classes, reps, gens, basis, cap)
        assert pruned == (roots if cap == v else
                          "the class merge passed the closure cap of %d cell points "
                          "beyond its R = %d representatives" % (cap, len(reps)))


def test_a_3_cycle_skipped_as_an_involution_fails():
    # the orbit of (0, 1, 2) under the 3-cycle has three cell points at
    # rank 0 and at rank 1, and the walk reaches the third only as the
    # cycle's image of a point the cycle found itself; the full walk adds
    # 2 cell points for the one representative, 4 for the two at rank 1
    mutant = mutant_module(isorbit.labeling, [
        ("_fixes_the_cell(basis, *_squared(r))", "_fixes_the_cell(basis, (1,) * n, range(n))")])
    gens = [SignedPermutation.permutation((1, 2, 0))]
    cases = [([(0, 1, 2)], hnf_reduce([], 3), cap) for cap in (1, 2, 3, DEFAULT_CLOSURE_CAP)]
    cases += [([(0, 1, 2), (0, 2, 1)], hnf_reduce([(1, 1, 1)], 3), cap) for cap in (2, 3, 4)]
    for reps, basis, cap in cases:
        full = roots_or_error(full_walk_merge_classes, reps, gens, basis, cap)
        assert roots_or_error(merge_list, reps, gens, basis, cap) == full
        assert isinstance(full, str) == (cap < 2 * len(reps))
    mutant_merge = partial(merge_list, merge=mutant.merge_classes_generators)
    assert any(roots_or_error(mutant_merge, reps, gens, basis, cap)
               != roots_or_error(full_walk_merge_classes, reps, gens, basis, cap)
               for reps, basis, cap in cases)
