"""Order of a coordinate-permutation subgroup, without listing its elements."""

import math
from collections.abc import Iterable, Sequence

from .errors import DimensionTooLargeError, InvalidRotationError
from .isometry import int_tuple

# Past this many moved axes, refuse rather than run for seconds: 20 random
# generators take 0.2 s on 32 axes, 2 s on 48 and 6 s on 64 (Python 3.11,
# one Xeon core).
DEFAULT_MAX_DIMENSION = 32


def perm_group_order(gens: Iterable[Sequence[int]], n: int,
                     max_dimension: int = DEFAULT_MAX_DIMENSION) -> int:
    """Order of the subgroup of S_n the permutations (p maps i to p[i]) generate,
    by deterministic Schreier–Sims (Sims 1970; Knuth 1991; Seress 2003, ch. 4).

    The chain acts on the m axes some generator moves, renumbered 0..m-1
    in their order, since the whole group fixes the others: its work does
    not grow with n, and max_dimension caps m. Along the base 0..m-1,
    level k keeps generators of the subgroup fixing 0..k-1 and maps each
    point j of the orbit of k to a representative u with u[k] == j, and
    to its inverse. Each (representative, generator) pair is tried once:
    it adds an orbit point, or its Schreier generator goes to level k+1,
    which drops it if it sifts through the chain. The order is the
    product of the orbit lengths; no moved axis, no chain, no cap.
    """
    gen_list = sorted({int_tuple(g, "permutation", InvalidRotationError) for g in gens})
    for g in gen_list:
        if sorted(g) != list(range(n)):
            raise InvalidRotationError(f"not a permutation of 0..{n - 1}: {g}")
    moved = sorted({i for g in gen_list for i, j in enumerate(g) if i != j})
    if len(moved) > max_dimension:
        raise DimensionTooLargeError(f"the permutation generators move {len(moved)} axes, "
                                     f"past the permutation-group cap {max_dimension}")
    number = {axis: i for i, axis in enumerate(moved)}
    gen_list = sorted({tuple(number[g[axis]] for axis in moved) for g in gen_list})
    n = len(moved)
    identity = tuple(range(n))
    strong = [[] for _ in range(n)]
    transversals = [{k: (identity, identity)} for k in range(n)]

    def sifts(g: tuple[int, ...], k: int) -> bool:
        for level in range(k, n):
            if g[level] != level:
                rep = transversals[level].get(g[level])
                if rep is None:
                    return False
                g = tuple(map(rep[1].__getitem__, g))
        return True

    pending = [(0, g) for g in reversed(gen_list)]
    while pending:
        k, g = pending.pop()
        if sifts(g, k):
            continue
        strong[k].append(g)
        transversal = transversals[k]
        pairs = [(u, g) for u, _ in transversal.values()]
        while pairs:
            u, s = pairs.pop()
            image = tuple(map(s.__getitem__, u))  # u, then s
            rep = transversal.get(image[k])
            if rep is None:
                inverse = tuple(sorted(range(n), key=image.__getitem__))
                transversal[image[k]] = (image, inverse)
                pairs.extend((image, t) for t in strong[k])
            else:
                pending.append((k + 1, tuple(map(rep[1].__getitem__, image))))
    return math.prod(map(len, transversals))
