"""Exact isometries of the integer lattice Z^n.

An isometry is stored in factored form: a translation vector ``v`` plus a
signed permutation ``r`` (the only orthogonal integer matrices), acting as

    h(x) = R*x + v

i.e. rotate first, translate second. This convention is fixed once here and
used everywhere else. The (v, R) pair of a given map is unique, so equality
of pairs is equality of maps. All coordinates are Python ints and therefore
arbitrary precision.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import record
from .errors import DimensionMismatchError, InputError, InvalidRotationError, NotAtomicError

Point = tuple[int, ...]


def int_tuple(values: Iterable, what: str, error: type[Exception] = InputError) -> Point:
    """The values as a tuple, each of type int; anything else (bool, float,
    an int subclass) raises error rather than being truncated by int()."""
    t = tuple(values)
    if set(map(type, t)) - {int}:
        bad = next(v for v in t if type(v) is not int)
        raise error(f"{what}: {bad!r} is not an integer")
    return t


def _require_same_dim(a: int, b: int, what: str) -> None:
    if a != b:
        raise DimensionMismatchError(f"{what}: dimension {a} does not match {b}")


@record(frozen=True, order=True)
class SignedPermutation:
    """Rotation of Z^n stored compactly as a sign vector and a permutation.

    Applying it to x yields y with y[i] = signs[i] * x[perm[i]]; the dense
    matrix is never built.
    """

    signs: tuple[int, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "signs", int_tuple(self.signs, "signs", InvalidRotationError))
        object.__setattr__(self, "perm", int_tuple(self.perm, "perm", InvalidRotationError))
        if len(self.signs) != len(self.perm):
            raise InvalidRotationError(
                f"signs ({len(self.signs)}) and perm ({len(self.perm)}) lengths differ")
        if any(s not in (1, -1) for s in self.signs):
            raise InvalidRotationError(f"signs must be +1 or -1: {self.signs}")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise InvalidRotationError(f"perm is not a bijection of 0..n-1: {self.perm}")

    @property
    def n(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls((1,) * n, tuple(range(n)))

    @classmethod
    def negation(cls, signs: Sequence[int]) -> "SignedPermutation":
        return cls(tuple(signs), tuple(range(len(signs))))

    @classmethod
    def permutation(cls, perm: Sequence[int]) -> "SignedPermutation":
        return cls((1,) * len(perm), tuple(perm))

    def apply(self, x: Sequence[int]) -> Point:
        _require_same_dim(len(x), self.n, "rotation applied to point")
        return tuple(s * x[p] for s, p in zip(self.signs, self.perm))

    def is_identity(self) -> bool:
        return self.is_negation() and all(s == 1 for s in self.signs)

    def is_negation(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def is_permutation(self) -> bool:
        return all(s == 1 for s in self.signs)


@record(frozen=True, order=True)
class Isometry:
    """Isometry of Z^n in its unique translation/rotation factorization."""

    v: Point
    r: SignedPermutation

    def __post_init__(self):
        object.__setattr__(self, "v", int_tuple(self.v, "translation vector"))
        _require_same_dim(len(self.v), self.r.n, "isometry translation vs rotation")

    @property
    def n(self) -> int:
        return self.r.n

    @classmethod
    def identity(cls, n: int) -> "Isometry":
        return cls((0,) * n, SignedPermutation.identity(n))

    @classmethod
    def translation(cls, v: Sequence[int]) -> "Isometry":
        return cls(tuple(v), SignedPermutation.identity(len(v)))

    @classmethod
    def rotation(cls, r: SignedPermutation) -> "Isometry":
        return cls((0,) * r.n, r)

    def is_translation(self) -> bool:
        return self.r.is_identity()

    def is_rotation(self) -> bool:
        return not any(self.v)

    def is_negation(self) -> bool:
        return self.is_rotation() and self.r.is_negation()

    def is_permutation(self) -> bool:
        return self.is_rotation() and self.r.is_permutation()


@record(frozen=True)
class GeneratingSet:
    """An atomic generating set, partitioned into its three pure kinds."""

    n: int
    translations: tuple[Isometry, ...]
    negations: tuple[Isometry, ...]
    permutations: tuple[Isometry, ...]

    def translation_vectors(self) -> list[Point]:
        return [g.v for g in self.translations]

    def negation_rotations(self) -> list[SignedPermutation]:
        return [g.r for g in self.negations]

    def rotation_generators(self) -> list[SignedPermutation]:
        """All rotation generators (negations first, then permutations)."""
        return [g.r for g in self.negations + self.permutations]


def validate_atomic(generators: Iterable[Isometry], n: int) -> GeneratingSet:
    """Partition generators into pure translations, negations and permutations.

    A generator mixing a nonzero translation with a nontrivial rotation is
    rejected rather than split: splitting would change the generated
    subgroup. The identity counts as a (trivial) translation.
    """
    translations: list[Isometry] = []
    negations: list[Isometry] = []
    permutations: list[Isometry] = []
    for idx, g in enumerate(generators):
        if g.n != n:
            raise DimensionMismatchError(
                f"generator {idx} has dimension {g.n}, expected {n}")
        if g.is_translation():
            translations.append(g)
        elif g.is_negation():
            negations.append(g)
        elif g.is_permutation():
            permutations.append(g)
        else:
            raise NotAtomicError(
                f"generator {idx} is not a pure translation, negation or "
                f"permutation: v={g.v}, signs={g.r.signs}, perm={g.r.perm}")
    return GeneratingSet(
        n,
        tuple(sorted(set(translations))),
        tuple(sorted(set(negations))),
        tuple(sorted(set(permutations))),
    )
