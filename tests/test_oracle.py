from random import Random

import pytest

from conftest import random_sweep_instance, refines
from isorbit import (
    BoxTooLargeError,
    InputError,
    Isometry,
    SignedPermutation,
    compute_orbits,
    validate_atomic,
)
from reference import NotStabilizedError, bfs_orbits, stabilized_bfs_orbits

UNIT_SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]


def diagonal_reflection_gens():
    return validate_atomic(
        [Isometry.translation((1, 1)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))], 2)


def test_zero_padding_misses_the_outside_path():
    part = bfs_orbits(diagonal_reflection_gens(), UNIT_SQUARE, padding=0)
    assert frozenset({(0, 0), (1, 1)}) in part
    assert frozenset({(1, 0)}) in part and frozenset({(0, 1)}) in part


def test_padding_two_finds_the_merge():
    part = bfs_orbits(diagonal_reflection_gens(), UNIT_SQUARE, padding=2)
    assert part == {frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}


def test_empty_generators_give_singletons():
    gens = validate_atomic([], 2)
    for padding in (0, 3):
        part = bfs_orbits(gens, UNIT_SQUARE, padding)
        assert part == {frozenset({p}) for p in UNIT_SQUARE}


def test_non_integer_points_are_rejected_not_truncated():
    # int() used to truncate (0.5, 0) to (0, 0), one step from (1, 0)
    gens = validate_atomic([Isometry.translation((1, 0))], 2)
    with pytest.raises(InputError, match="0.5"):
        bfs_orbits(gens, [(0.5, 0), (1, 0)], 1)


def test_empty_points():
    assert bfs_orbits(diagonal_reflection_gens(), [], 2) == set()


def test_box_cap():
    gens = validate_atomic([], 2)
    with pytest.raises(BoxTooLargeError):
        bfs_orbits(gens, UNIT_SQUARE, padding=3, box_cap=10)


def test_padding_only_merges():
    rng = Random(801)
    for _ in range(25):
        gens, points = random_sweep_instance(rng)
        parts = [bfs_orbits(gens, points, p) for p in range(4)]
        for coarse, fine in zip(parts[1:], parts):
            assert refines(fine, coarse)


def test_stabilized_on_the_reflection_instance():
    part, padding = stabilized_bfs_orbits(diagonal_reflection_gens(), UNIT_SQUARE, 8)
    assert part == {frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}
    assert padding <= 2


def test_stabilizes_immediately_without_rotations():
    gens = validate_atomic(
        [Isometry.translation((2, 0)), Isometry.translation((0, 2))], 2)
    part, padding = stabilized_bfs_orbits(gens, UNIT_SQUARE, 8)
    assert padding == 0
    assert part == {frozenset({p}) for p in UNIT_SQUARE}


def test_not_stabilized_when_no_pair_can_agree():
    with pytest.raises(NotStabilizedError) as info:
        stabilized_bfs_orbits(diagonal_reflection_gens(), UNIT_SQUARE, 0)
    assert info.value.partition is not None
    assert info.value.padding == 0


def test_insufficient_padding_under_merges():
    # joining (3,0) to (97,0) requires passing through (-3,0), far outside
    # any padding <= 4 of the bounding box, so the walk under-merges while
    # the pipeline finds the true single class; the walk result must still
    # refine the true partition (soundness is one-directional)
    gens = validate_atomic(
        [Isometry.translation((100, 0)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))], 2)
    points = [(3, 0), (97, 0)]
    labeling = compute_orbits(gens, points)
    assert labeling.partition() == {frozenset({(3, 0), (97, 0)})}
    try:
        part, _padding = stabilized_bfs_orbits(gens, points, 4)
    except NotStabilizedError as e:
        part = e.partition
    assert part != labeling.partition()
    assert refines(part, labeling.partition())


def test_soundness_against_pipeline():
    rng = Random(802)
    for _ in range(25):
        gens, points = random_sweep_instance(rng)
        labeling = compute_orbits(gens, points)
        for padding in (0, 2):
            part = bfs_orbits(gens, points, padding)
            assert refines(part, labeling.partition())
