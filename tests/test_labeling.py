import pickle
from array import array
from collections import defaultdict
from itertools import count
from random import Random

import pytest

from conftest import merge_list, merge_witnesses, random_sweep_instance
from isorbit import (
    Box,
    ClosureCapExceededError,
    InputError,
    SignedPermutation,
    hnf_reduce,
    merge_classes_generators,
    run_stage1,
    validate_atomic,
    Isometry,
    Stage2,
)
from isorbit.cli import _grouped
from reference import (
    closure_merge_classes,
    apply,
    bfs_orbits,
    finalize_labels,
    members,
    merge_classes_group,
    reduce_points,
    rotate_mod_lattice,
    rotation_group,
    witness_merge_classes,
)

POINT_REFLECTION = SignedPermutation.negation((-1, -1))
SWAP = SignedPermutation.permutation((1, 0))
UNIT_SQUARE = [(0, 0), (0, 1), (1, 0), (1, 1)]


def diagonal_cell():
    return hnf_reduce([(1, 1)], 2)


# the canonical representatives of the unit square's classes mod Z(1,1):
# (0,0) and (1,1) -> (0,0), (1,0) -> (0,-1), (0,1) -> (0,1)
DIAGONAL_REPS = ((0, 0), (0, -1), (0, 1))


def test_rotate_mod_lattice_reflection():
    basis = diagonal_cell()
    assert rotate_mod_lattice(basis, POINT_REFLECTION, (1, 0)) == (0, 1)


def test_rotate_mod_lattice_identity():
    basis = diagonal_cell()
    for w in DIAGONAL_REPS:
        assert rotate_mod_lattice(basis, SignedPermutation.identity(2), w) == w


def test_rotate_mod_lattice_trivial_lattice_is_plain_rotation():
    basis = hnf_reduce([], 2)
    assert rotate_mod_lattice(basis, POINT_REFLECTION, (2, 3)) == (-2, -3)


def _witness_partition(witness):
    classes = {}
    for p, w in witness.items():
        classes.setdefault(w, set()).add(p)
    return {frozenset(c) for c in classes.values()}


def test_merge_group_reflection_classes():
    basis = diagonal_cell()
    reps = set(DIAGONAL_REPS)
    rotations = [SignedPermutation.identity(2), POINT_REFLECTION]
    witness = merge_classes_group(reps, rotations, basis)
    assert _witness_partition(witness) == {
        frozenset({(0, 0)}), frozenset({(0, -1), (0, 1)})}
    # lexicographically smallest representative wins the witness role
    assert witness[(0, 1)] == (0, -1)
    assert witness[(0, 0)] == (0, 0)


def test_merge_group_identity_only_keeps_everything_apart():
    basis = diagonal_cell()
    reps = set(DIAGONAL_REPS)
    witness = merge_classes_group(reps, [SignedPermutation.identity(2)], basis)
    assert witness == {p: p for p in reps}


def test_merge_group_single_representative():
    basis = diagonal_cell()
    witness = merge_classes_group({(1, 0)}, [SignedPermutation.identity(2)], basis)
    assert witness == {(1, 0): (1, 0)}


def test_merge_generators_matches_group_mode():
    # same witness for every representative as the explicit-group sweep
    basis = diagonal_cell()
    reps = set(DIAGONAL_REPS)
    group_witness = merge_classes_group(
        reps, [SignedPermutation.identity(2), POINT_REFLECTION], basis)
    gen_witness = merge_witnesses(reps, [POINT_REFLECTION], basis)
    assert gen_witness == group_witness
    assert gen_witness == witness_merge_classes(reps, [POINT_REFLECTION], basis)
    rng = Random(703)
    for _ in range(25):
        gens, points = random_sweep_instance(rng)
        stage1 = run_stage1(gens)
        reps, _assignment = reduce_points(stage1.basis, points)
        assert merge_witnesses(
            reps, gens.rotation_generators(), stage1.basis) == \
            merge_classes_group(
                reps, rotation_group(stage1).elements, stage1.basis)
        assert merge_witnesses(reps, gens.rotation_generators(), stage1.basis) == \
            witness_merge_classes(reps, gens.rotation_generators(), stage1.basis)


def test_merge_roots_are_first_representatives_in_the_order_given():
    # the reflection joins (0, -1) and (0, 1); each class's root is its
    # representative that comes first in reps, whatever the point order
    basis = diagonal_cell()
    for reps, root in [([(0, 1), (0, 0), (0, -1)], [0, 1, 0]),
                       ([(0, -1), (0, 1), (0, 0)], [0, 0, 2]),
                       ([(0, 0), (0, -1), (0, 1)], [0, 1, 1])]:
        assert merge_list(reps, [POINT_REFLECTION], basis) == root
        assert merge_list(reps, [], basis) == [0, 1, 2]


def test_merge_takes_an_index_numbered_in_order_and_extends_it():
    # the merge numbers the cell points it finds in the caller's dict, after
    # the representatives; an index numbered in any other order, as a
    # point listed twice leaves it, would break its union-find
    basis = diagonal_cell()
    for gens in ([POINT_REFLECTION], []):
        for index, message in [({(0, 1): 1, (0, 0): 0}, "representative 0 is numbered 1, not 0"),
                               ({(0, 0): 0, (0, 1): 2}, "representative 1 is numbered 2, not 1")]:
            with pytest.raises(InputError, match=message):
                merge_classes_generators(index, gens, basis)
        with pytest.raises(InputError, match="representative 0 is numbered 2, not 0"):
            merge_list([(0, 1), (0, 0), (0, 1), (0, -1)], gens, basis)
    index = defaultdict(count().__next__)
    assert [index[0, 1], index[0, 0]] == [0, 1]
    assert merge_classes_generators(index, [], basis) == [0, 1]
    assert index == {(0, 1): 0, (0, 0): 1}
    # the reflection finds (0, -1), the image of (0, 1) in the cell
    assert merge_classes_generators(index, [POINT_REFLECTION], basis) == [0, 1]
    assert index == {(0, 1): 0, (0, 0): 1, (0, -1): 2}


def test_merge_generators_no_generators():
    basis = diagonal_cell()
    reps = {(0, 0), (1, 0)}
    assert merge_witnesses(reps, [], basis) == {p: p for p in reps}


def test_merge_generators_even_grid_with_swap():
    basis = hnf_reduce([(2, 0), (0, 2)], 2)
    reps, assignment = reduce_points(basis, UNIT_SQUARE)
    witness = merge_witnesses(reps, [SWAP], basis)
    labeling = finalize_labels(assignment, witness)
    assert labeling.partition() == {
        frozenset({(0, 0)}),
        frozenset({(0, 1), (1, 0)}),
        frozenset({(1, 1)}),
    }


def test_merge_generators_closure_cap():
    basis = diagonal_cell()
    reps = {(0, 1), (1, 0)}
    with pytest.raises(ClosureCapExceededError):
        merge_witnesses(reps, [POINT_REFLECTION], basis, closure_cap=1)


# Z^3 with lattice Z(1,0,0), rotated by the signed swaps of coordinates 1
# and 2: the cell is the plane x0 = 0, and the orbit of (0, a, b) with
# 0 < a < b holds 8 cell points
SIGNED_SWAP_GENS = [SignedPermutation.negation((1, -1, 1)),
                    SignedPermutation.permutation((0, 2, 1))]


def test_merge_generators_closure_cap_boundary():
    basis = hnf_reduce([(1, 0, 0)], 3)
    reps = {(0, 1, 2)}
    assert merge_witnesses(reps, SIGNED_SWAP_GENS, basis, closure_cap=8) == \
        {(0, 1, 2): (0, 1, 2)}
    with pytest.raises(ClosureCapExceededError) as info:
        merge_witnesses(reps, SIGNED_SWAP_GENS, basis, closure_cap=7)
    assert str(info.value) == "class closure around (0, 1, 2) exceeded 7 elements"
    # below 1 every representative alone exceeds the cap, a fixed point too;
    # without rotations there is no closure to cap
    with pytest.raises(ClosureCapExceededError):
        merge_witnesses({(0, 0, 0)}, SIGNED_SWAP_GENS, basis, closure_cap=0)
    assert merge_witnesses(reps, [], basis, closure_cap=0) == {(0, 1, 2): (0, 1, 2)}


def test_merge_generators_cap_bounds_one_orbit_not_their_union():
    basis = hnf_reduce([(1, 0, 0)], 3)
    reps = {(0, a, b) for a in range(1, 30) for b in range(a + 1, 30)}
    witness = merge_witnesses(reps, SIGNED_SWAP_GENS, basis, closure_cap=8)
    # 406 orbits of 8 cell points each: 3,248 visited under a cap of 8
    assert len(reps) == 406
    assert witness == {p: p for p in reps}
    mixed = reps | {(0, b, a) for (_, a, b) in reps} | {(0, -a, b) for (_, a, b) in reps}
    assert merge_witnesses(mixed, SIGNED_SWAP_GENS, basis, closure_cap=8) == \
        closure_merge_classes(mixed, SIGNED_SWAP_GENS, basis)


def test_finalize_diagonal_reflection_classes():
    basis = diagonal_cell()
    reps, assignment = reduce_points(basis, UNIT_SQUARE)
    witness = merge_classes_group(
        reps, [SignedPermutation.identity(2), POINT_REFLECTION], basis)
    labeling = finalize_labels(assignment, witness)
    assert labeling.partition() == {
        frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}
    assert labeling.labels[(1, 1)] == (0, 0)
    assert labeling.classes[(0, 1)] == ((0, 1), (1, 0))


def test_finalize_translations_only_keeps_singletons():
    basis = hnf_reduce([(2, 0), (0, 2)], 2)
    reps, assignment = reduce_points(basis, UNIT_SQUARE)
    witness = merge_classes_group(reps, [SignedPermutation.identity(2)], basis)
    labeling = finalize_labels(assignment, witness)
    assert len(labeling.classes) == 4
    assert labeling.labels[(0, 0)] != labeling.labels[(1, 1)]


def test_finalize_empty():
    labeling = finalize_labels({}, {})
    assert labeling.labels == {} and labeling.classes == {}


def test_finalize_inconsistent_inputs_is_an_error():
    with pytest.raises(KeyError):
        finalize_labels({(0, 0): (0, 0)}, {})


def test_views_are_cached_read_only_and_outside_equality():
    assignment = {(5, 0): (5, 0), (1, 0): (1, 0), (3, 0): (3, 0), (2, 2): (2, 2)}
    witness = {(5, 0): (5, 0), (1, 0): (5, 0), (3, 0): (5, 0), (2, 2): (2, 2)}
    labeling = finalize_labels(assignment, witness)
    assert labeling.points == ((1, 0), (2, 2), (3, 0), (5, 0))
    assert labeling.point_labels == ((1, 0), (2, 2), (1, 0), (1, 0))
    assert labeling.labels is labeling.labels
    assert labeling.classes is labeling.classes
    with pytest.raises(TypeError):
        labeling.labels[(0, 0)] = (0, 0)
    with pytest.raises(TypeError):
        labeling.classes[(0, 0)] = ((0, 0),)
    # equality is on the columns, whichever views were built
    assert labeling == finalize_labels(assignment, witness)
    copied = pickle.loads(pickle.dumps(labeling))
    assert copied == labeling and copied.classes == labeling.classes


def test_labels_canonical_to_class_minimum():
    # witnesses deliberately not the minima; finalize must rewrite them
    assignment = {(5, 0): (5, 0), (1, 0): (1, 0), (3, 0): (3, 0)}
    witness = {(5, 0): (5, 0), (1, 0): (5, 0), (3, 0): (5, 0)}
    labeling = finalize_labels(assignment, witness)
    assert set(labeling.labels.values()) == {(1, 0)}
    assert labeling.classes == {(1, 0): ((1, 0), (3, 0), (5, 0))}


def test_generator_invariance_of_labels():
    rng = Random(701)
    for _ in range(25):
        gens, points = random_sweep_instance(rng)
        stage1 = run_stage1(gens)
        reps, assignment = reduce_points(stage1.basis, points)
        witness = merge_classes_group(
            reps, rotation_group(stage1).elements, stage1.basis)
        labeling = finalize_labels(assignment, witness)
        pts = set(labeling.labels)
        for g in members(gens):
            for x in pts:
                y = apply(g, x)
                if y in pts:
                    assert labeling.labels[x] == labeling.labels[y]


def test_pick_order_does_not_change_the_partition():
    # random-pick reimplementation of the group-mode sweep
    def merge_random_pick(reps, rotations, basis, rng):
        remaining = set(reps)
        witness = {}
        while remaining:
            w = rng.choice(sorted(remaining))
            images = {rotate_mod_lattice(basis, r, w) for r in rotations}
            cls = (images & remaining) | {w}
            for p in cls:
                witness[p] = w
            remaining -= cls
        return witness

    rng = Random(702)
    for _ in range(15):
        gens, points = random_sweep_instance(rng)
        stage1 = run_stage1(gens)
        reps, assignment = reduce_points(stage1.basis, points)
        rotations = rotation_group(stage1).elements
        lex = merge_classes_group(reps, rotations, stage1.basis)
        rnd = merge_random_pick(reps, rotations, stage1.basis, rng)
        assert finalize_labels(assignment, lex) == finalize_labels(assignment, rnd)


def test_classes_merge_even_when_paths_leave_the_window():
    # the connecting path (1,0) -> (-1,0) -> (0,1) exits the unit square,
    # yet the pipeline must still identify (1,0) with (0,1)
    gens = validate_atomic(
        [Isometry.translation((1, 1)), Isometry.rotation(POINT_REFLECTION)], 2)
    stage1 = run_stage1(gens)
    reps, assignment = reduce_points(stage1.basis, UNIT_SQUARE)
    witness = merge_classes_group(
        reps, rotation_group(stage1).elements, stage1.basis)
    labeling = finalize_labels(assignment, witness)
    assert labeling.labels[(1, 0)] == labeling.labels[(0, 1)]
    # a window-bound walk cannot see it
    assert bfs_orbits(gens, UNIT_SQUARE, padding=0) != labeling.partition()


def test_grouped_is_a_stable_sort_of_the_indices_by_class():
    # each class's offsets, put back in their chunks, are its sorted
    # indices: its first chunk holds its label, and later names each other
    # chunk that holds it once, in order, with where its offsets start
    rng = Random(704)
    for _ in range(200):
        classes, size = rng.randint(1, 12), rng.choice([0, 1, 5, 40, 300, 5000])
        chunk = rng.choice([1, 2, 7, 64, 4096])
        number: dict[int, int] = {}  # classes numbered by their first points
        class_of = array("I", (number.setdefault(rng.randrange(classes), len(number))
                               for _ in range(size)))
        label_at = array("I", map(class_of.index, range(len(number))))
        members, later = _grouped(Stage2(Box((0,), (size,)), class_of, label_at), chunk)
        assert [a.typecode for a in members] == ["I" if chunk >= size else "H"] * len(number)
        indices = []
        for c, offsets in enumerate(members):
            q, a, chunks, starts = label_at[c] // chunk, 0, [], iter(later.get(c, ()))
            for q_next, b in [*zip(starts, starts), (None, len(offsets))]:
                assert a < b and max(offsets[a:b]) < chunk
                chunks.append(q)
                indices.extend(q * chunk + o for o in offsets[a:b])
                q, a = q_next, b
            assert chunks == sorted({i // chunk for i, k in enumerate(class_of) if k == c})
        assert indices == sorted(range(size), key=class_of.__getitem__)
