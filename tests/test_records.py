"""The value-object contract of the exported record classes.

Each record is built positionally from its fields, compares equal by those
fields and only to its own class, hashes by its field tuple when frozen
and refuses assignment to a field; SignedPermutation and Isometry also
order by their field tuples. Stage1 and Stage2 are the mutable, unhashable
records.
"""

import pickle
from array import array

import pytest

from isorbit import (
    Box,
    GeneratingSet,
    Gf2Basis,
    InvalidRotationError,
    Isometry,
    LatticeBasis,
    OrbitLabeling,
    SignedPermutation,
    Stage1,
    Stage2,
    compute_orbits,
    hnf_reduce,
    rref,
    run_stage1,
    run_stage2,
    validate_atomic,
)
from isorbit.labeling import AxisBlock

SWAP = SignedPermutation.permutation((1, 0))
FLIP = SignedPermutation.negation((-1, -1))


def _gens(*extra):
    return validate_atomic([Isometry.translation((1, 1)), *extra], 2)


BOX = [(0, 0), (0, 1), (1, 0), (1, 1)]

# class, its field names in order, and three builders: a, an equal copy of a
# built separately, and an instance that differs from a in some field
RECORDS = {
    "SignedPermutation": (SignedPermutation, ("signs", "perm"),
                          lambda: SignedPermutation((1, -1), (1, 0)),
                          lambda: SignedPermutation((1, -1), (1, 0)),
                          lambda: SignedPermutation((1, 1), (1, 0))),
    "Isometry": (Isometry, ("v", "r"),
                 lambda: Isometry((1, 2), SWAP),
                 lambda: Isometry((1, 2), SignedPermutation((1, 1), (1, 0))),
                 lambda: Isometry((1, 2), SignedPermutation.identity(2))),
    "GeneratingSet": (GeneratingSet, ("n", "translations", "negations", "permutations"),
                      lambda: _gens(Isometry.rotation(FLIP)),
                      lambda: _gens(Isometry.rotation(FLIP)),
                      lambda: _gens(Isometry.rotation(SWAP))),
    "Gf2Basis": (Gf2Basis, ("n", "rows"),
                 lambda: rref([0b11], 2), lambda: rref([0b11, 0b11], 2),
                 lambda: rref([0b01], 2)),
    "LatticeBasis": (LatticeBasis, ("n", "hnf_rows"),
                     lambda: hnf_reduce([(1, 1)], 2), lambda: hnf_reduce([(2, 2), (1, 1)], 2),
                     lambda: hnf_reduce([(2, 0)], 2)),
    "OrbitLabeling": (OrbitLabeling, ("points", "point_labels"),
                      lambda: compute_orbits(_gens(Isometry.rotation(FLIP)), BOX),
                      lambda: compute_orbits(_gens(Isometry.rotation(FLIP)), BOX[::-1]),
                      lambda: compute_orbits(_gens(), BOX)),
    "AxisBlock": (AxisBlock, ("axes", "rotations", "basis"),
                  lambda: AxisBlock((0, 1), (SWAP,), hnf_reduce([(1, 1)], 2)),
                  lambda: AxisBlock((0, 1), (SignedPermutation((1, 1), (1, 0)),),
                                    hnf_reduce([(2, 2), (1, 1)], 2)),
                  lambda: AxisBlock((0, 1), (), hnf_reduce([(1, 1)], 2))),
    "Stage1": (Stage1, ("gens", "neg_basis", "perm_order", "basis", "blocks"),
               lambda: run_stage1(_gens(Isometry.rotation(FLIP))),
               lambda: run_stage1(_gens(Isometry.rotation(FLIP))),
               lambda: run_stage1(_gens(Isometry.rotation(SWAP)))),
    "Box": (Box, ("lo", "hi"),
            lambda: Box((0, -1), (1, 1)), lambda: Box([0, -1], [1, 1]),
            lambda: Box((0, -1), (1, 2))),
    "Stage2": (Stage2, ("domain", "class_of", "label_at"),
               lambda: run_stage2(run_stage1(_gens(Isometry.rotation(FLIP))), BOX),
               lambda: run_stage2(run_stage1(_gens(Isometry.rotation(FLIP))), BOX[::-1]),
               lambda: run_stage2(run_stage1(_gens()), BOX)),
}
FROZEN = sorted(set(RECORDS) - {"Stage1", "Stage2"})


def _fields(x, names):
    return tuple(getattr(x, name) for name in names)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_is_by_field_and_by_class(name):
    cls, names, make, make_equal, make_other = RECORDS[name]
    a, same, other = make(), make_equal(), make_other()
    assert type(a) is cls and a is not same
    assert a == same and not a != same
    assert a != other and not a == other
    assert cls(*_fields(a, names)) == a == cls(**dict(zip(names, _fields(a, names))))
    with pytest.raises(TypeError):
        cls(*_fields(a, names)[1:])
    with pytest.raises(TypeError):
        cls(*_fields(a, names), **{names[0]: getattr(a, names[0])})
    # a record is not equal to its field tuple, nor to any other class
    assert a != _fields(a, names)
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_field_and_refuse_assignment(name):
    cls, names, make, make_equal, _ = RECORDS[name]
    a = make()
    assert hash(a) == hash(make_equal()) == hash(_fields(a, names))
    assert len({a, make_equal()}) == 1
    for field in names:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert _fields(a, names) == _fields(make_equal(), names)


def test_stage1_is_mutable_and_unhashable():
    stage1 = RECORDS["Stage1"][2]()
    with pytest.raises(TypeError):
        hash(stage1)
    stage1.perm_order = 7
    assert stage1.perm_order == 7 and stage1 != RECORDS["Stage1"][3]()


def test_stage2_is_mutable_and_unhashable():
    stage2 = RECORDS["Stage2"][2]()
    with pytest.raises(TypeError):
        hash(stage2)
    stage2.label_at = array("I")
    assert stage2.label_at == array("I") and stage2 != RECORDS["Stage2"][3]()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_the_class_and_each_field(name):
    _, names, make, _, _ = RECORDS[name]
    a = make()
    body = ", ".join(f"{field}={getattr(a, field)!r}" for field in names)
    assert repr(a) == f"{name}({body})"


@pytest.mark.parametrize("name", ["SignedPermutation", "Isometry"])
def test_ordered_records_sort_by_their_field_tuples(name):
    _, names, *makers = RECORDS[name]
    values = [make() for make in makers] + [
        Isometry.identity(2) if name == "Isometry" else SignedPermutation.identity(2)]
    assert sorted(values) == sorted(values, key=lambda x: _fields(x, names))
    a, _, b = (make() for make in makers)
    assert (a < b) == (_fields(a, names) < _fields(b, names))
    assert (a >= b) == (_fields(a, names) >= _fields(b, names))
    assert a <= makers[1]() and a >= makers[1]() and not a < makers[1]()
    with pytest.raises(TypeError):
        a < _fields(a, names)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"SignedPermutation", "Isometry"}))
def test_unordered_records_refuse_ordering(name):
    a = RECORDS[name][2]()
    with pytest.raises(TypeError):
        a < a


def test_post_init_validates_positional_construction():
    with pytest.raises(InvalidRotationError):
        SignedPermutation((1, 2), (0, 1))
    with pytest.raises(InvalidRotationError):
        SignedPermutation((1, 1), (0, 0))
    assert SignedPermutation([1, -1], [1, 0]).signs == (1, -1)  # stored as tuples


def test_cached_views_are_built_once():
    basis = hnf_reduce([(2, 4), (0, 3)], 2)
    assert basis.echelon is basis.echelon
    labeling = RECORDS["OrbitLabeling"][2]()
    assert labeling.labels is labeling.labels
    assert labeling.classes is labeling.classes


def test_orbit_labeling_pickles_after_its_views_were_read():
    labeling = RECORDS["OrbitLabeling"][2]()
    labels, classes = dict(labeling.labels), dict(labeling.classes)
    clone = pickle.loads(pickle.dumps(labeling))
    assert clone == labeling and hash(clone) == hash(labeling)
    assert dict(clone.labels) == labels and dict(clone.classes) == classes
    assert clone.partition() == labeling.partition()
