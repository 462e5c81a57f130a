"""Shared test helpers: dense-matrix oracles, random instance generators,
and a check that every test leaves the collector's state as it found it.

The matrix helpers deliberately re-derive everything from dense integer
matrices so that agreement with the compact sign/permutation representation
is independent evidence, not a tautology.
"""

from __future__ import annotations

import gc
import itertools
import tempfile
import types
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from isorbit import (
    GeneratingSet,
    Isometry,
    SignedPermutation,
    merge_classes_generators,
    validate_atomic,
)
from isorbit.labeling import DEFAULT_CLOSURE_CAP

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    pass
else:
    # the same examples on every run and no example database; hypothesis
    # still caches the constants it mines from source files, so that cache
    # goes to the temp dir rather than a .hypothesis/ in the checkout
    settings.register_profile("isorbit", derandomize=True, database=None, deadline=None)
    settings.load_profile("isorbit")
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "isorbit-hypothesis")

Matrix = list[list[int]]


@pytest.fixture(autouse=True)
def _keeps_the_gc_state():
    """Every test, and every in-process main it runs, leaves the collector
    as it found it: on or off, and with as many objects frozen."""
    state = gc.isenabled(), gc.get_freeze_count()
    yield
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def mat_vec(m: Matrix, x) -> list[int]:
    return [sum(a * b for a, b in zip(row, x)) for row in m]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def identity_matrix(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def signed_perm_matrix(r: SignedPermutation) -> Matrix:
    """The dense n x n matrix of r: row i holds signs[i] in column perm[i]."""
    out = [[0] * r.n for _ in range(r.n)]
    for i, (s, p) in enumerate(zip(r.signs, r.perm)):
        out[i][p] = s
    return out


def bits(s: str) -> int:
    """Parse a bit-vector string, leftmost char standing for coordinate 0."""
    mask = 0
    for i, ch in enumerate(s):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bit string {s!r}")
    return mask


def gf2_span(masks) -> set[int]:
    """All XOR combinations of the masks (brute-force span enumeration)."""
    span = {0}
    for m in masks:
        span |= {x ^ m for x in span}
    return span


def cycle(n: int, points) -> tuple[int, ...]:
    """The permutation of 0..n-1 that sends each of the points to the next
    one, the last to the first, and fixes the rest."""
    p = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return tuple(p)


def random_signed_permutation(rng: Random, n: int) -> SignedPermutation:
    perm = list(range(n))
    rng.shuffle(perm)
    return SignedPermutation(tuple(rng.choice((1, -1)) for _ in range(n)), tuple(perm))


def random_isometry(rng: Random, n: int, span: int = 5) -> Isometry:
    return Isometry(
        tuple(rng.randint(-span, span) for _ in range(n)),
        random_signed_permutation(rng, n))


def random_point(rng: Random, n: int, span: int = 10) -> tuple[int, ...]:
    return tuple(rng.randint(-span, span) for _ in range(n))


def random_atomic_generators(rng: Random, n: int) -> GeneratingSet:
    """At most two translations with entries in [-2, 2], at most one
    negation, at most one permutation."""
    raw: list[Isometry] = []
    for _ in range(rng.randint(0, 2)):
        raw.append(Isometry.translation(tuple(rng.randint(-2, 2) for _ in range(n))))
    if rng.random() < 0.75:
        raw.append(Isometry.rotation(
            SignedPermutation.negation(tuple(rng.choice((1, -1)) for _ in range(n)))))
    if rng.random() < 0.75:
        perm = list(range(n))
        rng.shuffle(perm)
        raw.append(Isometry.rotation(SignedPermutation.permutation(tuple(perm))))
    return validate_atomic(raw, n)


def random_sweep_instance(rng: Random) -> tuple[GeneratingSet, list[tuple[int, ...]]]:
    """Small random instance with a box of at most 125 points placed
    anywhere near the origin."""
    n = rng.randint(1, 3)
    gens = random_atomic_generators(rng, n)
    lo = [rng.randint(-3, 3) for _ in range(n)]
    edges = [rng.randint(1, 5) for _ in range(n)]
    points = list(itertools.product(*(range(a, a + e) for a, e in zip(lo, edges))))
    return gens, points


def random_origin_window_instance(rng: Random) -> tuple[GeneratingSet, list[tuple[int, ...]]]:
    """Like random_sweep_instance, but the box always straddles the origin.

    Rotations fix the origin, so a window around it keeps orbit detours
    short and the padding the box walk needs stays small.
    """
    n = rng.randint(1, 3)
    gens = random_atomic_generators(rng, n)
    edges = [rng.randint(1, 5) for _ in range(n)]
    lo = [rng.randint(-(e - 1), 0) for e in edges]
    points = list(itertools.product(*(range(a, a + e) for a, e in zip(lo, edges))))
    return gens, points


def exact_lattice_member(rows, v) -> bool:
    """Rational-solve membership oracle, independent of back-substitution.

    Solves the normal equations of the (full column rank) basis over
    Fractions and checks the solution is integral and exact.
    """
    m = len(rows)
    if m == 0:
        return not any(v)
    gram = [[Fraction(sum(a * b for a, b in zip(ri, rj))) for rj in rows] for ri in rows]
    rhs = [Fraction(sum(a * b for a, b in zip(ri, v))) for ri in rows]
    coeffs = _solve_fractions(gram, rhs)
    if coeffs is None or any(c.denominator != 1 for c in coeffs):
        return False
    recon = [sum(int(c) * ri[k] for c, ri in zip(coeffs, rows)) for k in range(len(v))]
    return recon == list(v)


def _solve_fractions(a, b):
    m = len(a)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][m] for i in range(m)]


def refines(fine, coarse) -> bool:
    """True when every class of `fine` lies inside some class of `coarse`."""
    return all(any(cls <= big for big in coarse) for cls in fine)


def merge_list(reps, rotation_gens, basis, closure_cap=DEFAULT_CLOSURE_CAP,
               merge=merge_classes_generators):
    """merge (the production merge, or a mutant's) on reps numbered 0..R-1
    in the order given, as stage 2 numbers its representatives; a point
    listed twice keeps its first place and takes its last number."""
    return merge(dict(zip(reps, itertools.count())), rotation_gens, basis, closure_cap)


def merge_witnesses(reps, rotation_gens, basis, closure_cap=DEFAULT_CLOSURE_CAP):
    """The production merge on the sorted distinct representatives, read as
    a witness dict: in sorted order each representative's root is the
    lexicographically smallest representative of its orbit."""
    order = sorted(set(map(tuple, reps)))
    root = merge_list(order, rotation_gens, basis, closure_cap)
    return {p: order[r] for p, r in zip(order, root)}


def mutant_module(module: types.ModuleType, edits: list[tuple[str, str]]) -> types.ModuleType:
    """A copy of module, in its package, with each (old, new) edit made
    once in its source; each old text must occur exactly once."""
    path = Path(module.__file__)
    source = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    mutant = types.ModuleType(module.__name__ + "_mutant")
    mutant.__package__ = module.__package__
    exec(compile(source, f"{path.stem}_mutant.py", "exec"), mutant.__dict__)
    return mutant
