"""Exact orbit partitions of finite subsets of Z^n under subgroups of
lattice isometries generated by atomic (pure translation / negation /
permutation) generators.

Typical use::

    from isorbit import Isometry, SignedPermutation, validate_atomic, compute_orbits

    gens = validate_atomic(
        [Isometry.translation((1, 1)),
         Isometry.rotation(SignedPermutation.negation((-1, -1)))],
        n=2)
    labeling = compute_orbits(gens, [(0, 0), (0, 1), (1, 0), (1, 1)])
    labeling.points, labeling.point_labels
    # (((0, 0), (0, 1), (1, 0), (1, 1)), ((0, 0), (0, 1), (0, 1), (0, 0)))
    dict(labeling.classes)
    # {(0, 0): ((0, 0), (1, 1)), (0, 1): ((0, 1), (1, 0))}
"""

from .errors import (
    BoxTooLargeError,
    ClosureCapExceededError,
    DigitLimitExceededError,
    DimensionMismatchError,
    DimensionTooLargeError,
    InputError,
    InvalidDomainError,
    InvalidRotationError,
    IsorbitError,
    NotAtomicError,
)
from .gf2 import Gf2Basis, negation_basis_from_generators, rref
from .isometry import (
    GeneratingSet,
    Isometry,
    Point,
    SignedPermutation,
    validate_atomic,
)
from .domain import Box
from .labeling import OrbitLabeling, Stage2, merge_classes_generators
from .lattice import LatticeBasis, hnf_reduce, translation_basis_from_generators
from .permgroup import perm_group_order
from .pipeline import Stage1, compute_labeling, compute_orbits, run_stage1, run_stage2

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BoxTooLargeError",
    "ClosureCapExceededError",
    "DigitLimitExceededError",
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "GeneratingSet",
    "Gf2Basis",
    "InputError",
    "InvalidDomainError",
    "InvalidRotationError",
    "Isometry",
    "IsorbitError",
    "LatticeBasis",
    "NotAtomicError",
    "OrbitLabeling",
    "Point",
    "SignedPermutation",
    "Stage1",
    "Stage2",
    "compute_labeling",
    "compute_orbits",
    "hnf_reduce",
    "merge_classes_generators",
    "negation_basis_from_generators",
    "perm_group_order",
    "rref",
    "run_stage1",
    "run_stage2",
    "translation_basis_from_generators",
    "validate_atomic",
]
