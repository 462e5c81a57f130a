"""Closure of coordinate permutations into the full generated subgroup."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ._record import record
from .errors import DimensionTooLargeError, InvalidRotationError
from .isometry import int_tuple

Perm = tuple[int, ...]

# The closure holds up to n! elements; past this dimension, refuse instead
# of silently eating memory. Raise via the max_dimension argument if needed.
DEFAULT_MAX_DIMENSION = 10


@record(frozen=True)
class PermGroup:
    """All elements of a permutation subgroup, sorted in one-line notation."""

    n: int
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def generate_perm_group(
    gens: Iterable[Sequence[int]],
    n: int,
    max_dimension: int = DEFAULT_MAX_DIMENSION,
) -> PermGroup:
    """Breadth-first closure of the generators into the whole subgroup.

    Every element of a finite group is a product of generators (inverses are
    positive powers), so the frontier walk below reaches everything. The
    dimension cap applies only when there is a generator to close: the
    closure of none is the identity alone.
    """
    gen_list = sorted({int_tuple(g, "permutation", InvalidRotationError) for g in gens})
    if gen_list and n > max_dimension:
        raise DimensionTooLargeError(
            f"dimension {n} exceeds the closure cap {max_dimension} "
            f"(the subgroup can hold up to {math.factorial(n)} elements)")
    for g in gen_list:
        if sorted(g) != list(range(n)):
            raise InvalidRotationError(f"not a permutation of 0..{n - 1}: {g}")
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gen_list:
                b = tuple(g[i] for i in a)  # the permutation acting as a after g
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return PermGroup(n, tuple(sorted(seen)))
