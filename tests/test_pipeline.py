import math
import time
import tracemalloc
from random import Random

import pytest

from conftest import random_sweep_instance
import isorbit
import isorbit.cli
import isorbit.pipeline
from isorbit import (
    Isometry,
    SignedPermutation,
    compute_labeling,
    compute_orbits,
    run_stage1,
    validate_atomic,
)
from isorbit.domain import SortedPoints
from isorbit.permgroup import DEFAULT_MAX_DIMENSION
from reference import bfs_orbits, reference_labeling, reference_stage1, rotation_group

UNIT_SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_diagonal_reflection_instance():
    gens = validate_atomic(
        [Isometry.translation((1, 1)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))], 2)
    labeling = compute_orbits(gens, UNIT_SQUARE)
    assert labeling.partition() == {
        frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}


def test_empty_generators_give_singletons():
    gens = validate_atomic([], 2)
    labeling = compute_orbits(gens, UNIT_SQUARE)
    assert labeling.partition() == {frozenset({p}) for p in UNIT_SQUARE}


def test_everything_equivalent_with_full_signed_shift_group():
    gens = validate_atomic(
        [Isometry.rotation(SignedPermutation.negation((-1, 1, 1))),
         Isometry.rotation(SignedPermutation.permutation((2, 0, 1))),
         Isometry.translation((1, 0, 0))], 3)
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    labeling = compute_orbits(gens, cube)
    assert labeling.partition() == {frozenset(cube)}
    assert bfs_orbits(gens, cube, padding=3) == labeling.partition()


def test_stage1_diagnostics():
    gens = validate_atomic(
        [Isometry.rotation(SignedPermutation.negation((-1, 1))),
         Isometry.rotation(SignedPermutation.permutation((1, 0)))], 2)
    stage1 = run_stage1(gens)
    assert stage1.rotation_order == 8
    assert rotation_group(stage1).order == 8
    assert stage1.basis.m == 0
    assert stage1.perm_order == 2
    assert stage1.neg_basis.dim == 2


def test_stage1_without_generators_does_not_grow_with_n():
    # nothing to close and no rows to reduce: no pass over the n columns and
    # no identity permutation of length n
    gens = validate_atomic([], 10**6)
    t0 = time.perf_counter()
    stage1 = run_stage1(gens)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5
    assert stage1.rotation_order == 1 and stage1.basis.m == 0
    tracemalloc.start()
    try:
        run_stage1(gens)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _rotations(n, perms):
    flip = Isometry.rotation(SignedPermutation.negation((-1,) + (1,) * (n - 1)))
    return validate_atomic(
        [flip, *(Isometry.rotation(SignedPermutation.permutation(p)) for p in perms)], n)


def test_stage1_scales_to_the_default_dimension():
    # swap, n-cycle and a flip: the full signed permutation group, 2^n * n!
    for n, budget in ((20, 0.2), (DEFAULT_MAX_DIMENSION, 2.0)):
        gens = _rotations(n, [(1, 0) + tuple(range(2, n)),
                              tuple((i + 1) % n for i in range(n))])
        t0 = time.perf_counter()
        stage1 = run_stage1(gens)
        elapsed = time.perf_counter() - t0
        assert stage1.rotation_order == 2 ** n * math.factorial(n)
        assert elapsed < budget
    # 20 random permutations at the cap: the alternating or symmetric group
    n = DEFAULT_MAX_DIMENSION
    rng = Random(305)
    gens = _rotations(n, [tuple(rng.sample(range(n), n)) for _ in range(20)])
    t0 = time.perf_counter()
    stage1 = run_stage1(gens)
    elapsed = time.perf_counter() - t0
    assert stage1.perm_order in (math.factorial(n), math.factorial(n) // 2)
    assert elapsed < 2.0


def test_stage1_modes_agree():
    # the production stage 1 against the explicit-group reference
    rng = Random(901)
    for _ in range(20):
        gens, _points = random_sweep_instance(rng)
        ref = reference_stage1(gens)
        stage1 = run_stage1(gens)
        assert stage1.neg_basis == ref.neg_basis
        assert stage1.basis == ref.basis
        assert stage1.rotation_order == ref.rotations.order
        assert rotation_group(stage1) == ref.rotations


def test_modes_and_threads_give_identical_labelings():
    # the production labeling against the explicit-group reference
    rng = Random(902)
    for _ in range(10):
        gens, points = random_sweep_instance(rng)
        labeling = compute_labeling(run_stage1(gens), points)
        assert labeling == reference_labeling(reference_stage1(gens), points)


def test_lattice_shifted_window_has_same_class_sizes():
    gens = validate_atomic(
        [Isometry.translation((1, 1)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))], 2)
    labeling = compute_orbits(gens, UNIT_SQUARE)
    shifted = [(x + 1, y + 1) for x, y in UNIT_SQUARE]
    labeling_shifted = compute_orbits(gens, shifted)
    assert sorted(len(c) for c in labeling.partition()) == \
        sorted(len(c) for c in labeling_shifted.partition())


def test_public_api_is_what_a_run_calls():
    assert isorbit.__all__ == sorted(set(isorbit.__all__))
    assert isorbit.__all__ == [
        "Box", "BoxTooLargeError", "ClosureCapExceededError", "DigitLimitExceededError",
        "DimensionMismatchError", "DimensionTooLargeError", "GeneratingSet", "Gf2Basis",
        "InputError", "InvalidDomainError", "InvalidRotationError", "Isometry",
        "IsorbitError", "LatticeBasis", "NotAtomicError",
        "OrbitLabeling", "Point", "SignedPermutation", "Stage1", "Stage2",
        "compute_labeling", "compute_orbits", "hnf_reduce", "merge_classes_generators",
        "negation_basis_from_generators", "perm_group_order", "rref", "run_stage1",
        "run_stage2", "translation_basis_from_generators", "validate_atomic",
    ]
    for name in isorbit.__all__:
        assert getattr(isorbit, name) is not None
    # the isometry algebra no run calls is gone, not just unexported
    assert not hasattr(isorbit, "conjugate")
    assert not hasattr(isorbit, "project_components")
    # so is the permutation closure: its reference form is tests/reference.py
    assert not hasattr(isorbit.permgroup, "PermGroup")
    assert not hasattr(isorbit.permgroup, "generate_perm_group")
    # and the whole-list stage 2: run_stage2 and the CLI's chunk writers
    # replaced it, and its reference form is tests/reference.py
    assert not hasattr(isorbit.lattice, "reduce_points")
    assert not hasattr(isorbit.labeling, "finalize_labels")
    assert not hasattr(isorbit.cli, "render_json")
    assert not hasattr(isorbit.cli, "render_tsv")
    # and the padded-box reference, with the isometry algebra only it used:
    # --oracle-check runs an exact check, and the box is tests/reference.py's
    assert not hasattr(isorbit, "bfs_orbits")
    assert not hasattr(isorbit.errors, "NotStabilizedError")
    assert not hasattr(isorbit.cli, "DEFAULT_MAX_PADDING")
    assert not hasattr(isorbit.Isometry, "apply")
    assert not hasattr(isorbit.GeneratingSet, "members")
    # and the stage-1 pass cap: both closures end when they stop growing
    assert not hasattr(isorbit, "IterationCapExceededError")
    assert not hasattr(isorbit.errors, "IterationCapExceededError")
    assert not hasattr(isorbit.Isometry, "identity")


def test_sorted_points_are_taken_as_they_are(monkeypatch):
    # a points list is checked and sorted once; the SortedPoints that
    # stage 2 returns as its domain goes back in without sort_points
    calls = []
    sort_points = isorbit.pipeline.sort_points
    monkeypatch.setattr(isorbit.pipeline, "sort_points",
                        lambda *args: calls.append(args) or sort_points(*args))
    gens = validate_atomic(
        [Isometry.translation((1, 1)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))], 2)
    stage1 = run_stage1(gens)
    first = isorbit.pipeline.run_stage2(stage1, UNIT_SQUARE[::-1] + UNIT_SQUARE)
    assert len(calls) == 1 and isinstance(first.domain, SortedPoints)
    again = isorbit.pipeline.run_stage2(stage1, first.domain)
    assert len(calls) == 1 and again == first and again.domain is first.domain
    with pytest.raises(isorbit.DimensionMismatchError, match="dimension 3"):
        isorbit.pipeline.run_stage2(stage1, SortedPoints(3, [(0, 0, 0)]))
    assert len(calls) == 1
