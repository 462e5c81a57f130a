"""The benchmark's workloads: their inputs and output checks.

Every check here derives the expected partition from a closed form of the
workload's group, never from isorbit itself:

- crit8: the doubled lattice 2Z^6 makes coordinates matter only mod 2, the
  negation vanishes mod 2 and the permutations reach all of S6, so two
  points are equivalent exactly when their parity popcounts agree.
- chords4: the lattice 12Z^4 + Z(1,1,1,1) leaves exactly the interval
  residues (x_i - x_0) mod 12; the rotations are the 48 signed voice
  permutations, so the class key is the minimum of the residues over them.
- scatter4: the lattice is spanned by (0,1,1,0) and its swap (0,1,0,1),
  which fixes x0 and x1 - x2 - x3 and nothing else; the flip of x0 and the
  swap of x2, x3 leave (|x0|, x1 - x2 - x3).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

from clock import INTERPRETER, SET_SCAN, Kernel

Point = tuple[int, ...]


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own check."""


@dataclass(frozen=True)
class Stage1Facts:
    """What the JSON diagnostics must say, from the workload's closed form."""

    rank: int
    rotation_order: int
    index: int  # |det| of a full-rank basis (the lattice index); 0: not checked
    contains: Callable[[Point], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    generators: list[dict]
    format: str
    box: str | None  # inline --box spec, or None for a points file
    key: Callable[[Point], object]  # class invariant: equal keys, same orbit
    facts: Stage1Facts
    kernel: Kernel  # the reference kernel whose slowdown tracks the hot spot

    def gens_doc(self) -> dict:
        return {"n": self.n, "generators": self.generators}

    def points(self, seed: int) -> list[Point]:
        """The input point set, in the order it is written to the input."""
        if self.box is not None:
            ranges = [range(int(lo), int(hi) + 1)
                      for lo, hi in (axis.split("..") for axis in self.box.split(","))]
            return list(itertools.product(*ranges))
        return scatter_points(seed)


def translation(v):
    return {"type": "translation", "v": list(v)}


def negation(signs):
    return {"type": "negation", "signs": list(signs)}


def permutation(perm):
    return {"type": "permutation", "perm": list(perm)}


# scatter4: SCATTER_COUNT distinct points drawn uniformly from [-R, R]^4.
SCATTER_COUNT = 15_000
SCATTER_RADIUS = 50


def scatter_points(seed: int) -> list[Point]:
    rng = random.Random(seed)
    seen: set[Point] = set()
    out: list[Point] = []
    while len(out) < SCATTER_COUNT:
        p = tuple(rng.randint(-SCATTER_RADIUS, SCATTER_RADIUS) for _ in range(4))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _signed_voice_perms(n: int) -> list[tuple[int, tuple[int, ...]]]:
    return [(s, p) for s in (1, -1) for p in itertools.permutations(range(n))]


def chord_key(x: Point) -> Point:
    """Minimum over the signed voice permutations of the interval residues."""
    return _min_residues(tuple((c - x[0]) % 12 for c in x))


@functools.cache  # at most 12^3 residue vectors per voice count
def _min_residues(d: Point) -> Point:
    return min(
        tuple(s * (d[p[i]] - d[p[0]]) % 12 for i in range(1, len(d)))
        for s, p in _signed_voice_perms(len(d)))


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload(
        name="crit8",
        why="large rotation group (|G|=46,080): stage 1 and the per-class "
            "rotation sweep dominate",
        n=6,
        generators=[
            translation([2, 0, 0, 0, 0, 0]),
            translation([0, 2, 0, 0, 0, 0]),
            translation([0, 0, 2, 0, 0, 0]),
            negation([-1, 1, 1, 1, 1, 1]),
            permutation([1, 0, 2, 3, 4, 5]),
            permutation([1, 2, 3, 4, 5, 0]),
        ],
        format="json",
        box="0..9,0..9,0..9,0..9,0..0,0..0",
        key=lambda p: sum(c % 2 for c in p),
        facts=Stage1Facts(
            rank=6, rotation_order=46_080, index=2 ** 6,
            contains=lambda v: all(c % 2 == 0 for c in v)),
        kernel=INTERPRETER,
    ),
    Workload(
        name="chords4",
        why="65,536 points, small group: point reduction and JSON rendering "
            "dominate",
        n=4,
        generators=[
            translation([12, 0, 0, 0]),
            translation([1, 1, 1, 1]),
            negation([-1, -1, -1, -1]),
            permutation([1, 0, 2, 3]),
            permutation([1, 2, 3, 0]),
        ],
        format="json",
        box="0..15,0..15,0..15,0..15",
        key=chord_key,
        facts=Stage1Facts(
            rank=4, rotation_order=48, index=12 ** 3,
            contains=lambda v: all((c - v[0]) % 12 == 0 for c in v)),
        kernel=INTERPRETER,
    ),
    Workload(
        name="scatter4",
        why="seeded scattered points off the origin, rank-2 lattice: the "
            "class merge over many witnesses and the points-file parser",
        n=4,
        generators=[
            translation([0, 1, 1, 0]),
            negation([-1, 1, 1, 1]),
            permutation([0, 1, 3, 2]),
        ],
        format="tsv",
        box=None,
        key=lambda p: (abs(p[0]), p[1] - p[2] - p[3]),
        facts=Stage1Facts(
            rank=2, rotation_order=4, index=0,
            contains=lambda v: v[0] == 0 and v[1] - v[2] - v[3] == 0),
        kernel=SET_SCAN,
    ),
]}


def parse_output(fmt: str, data: bytes) -> tuple[dict | None, list[tuple[Point, Point]]]:
    """(JSON diagnostics or None, [(point, label)] in output order)."""
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        pairs = [(tuple(m), tuple(c["label"]))
                 for c in doc.pop("classes") for m in c["members"]]
        return doc, pairs
    pairs = []
    for line in text.splitlines():
        point, label = line.split("\t")
        pairs.append((_coords(point), _coords(label)))
    return None, pairs


def _coords(field: str) -> Point:
    return tuple(int(c) for c in field.split(","))


def check_partition(points: list[Point], pairs: list[tuple[Point, Point]],
                    key: Callable[[Point], object]) -> int:
    """Check a labelled output against the closed-form class key.

    Every input point appears exactly once, every label is the minimum of
    its class, and two points share a label exactly when they share a key.
    Returns the number of classes.
    """
    labels = dict(pairs)
    if len(labels) != len(pairs):
        raise CheckError("a point appears more than once in the output")
    if labels.keys() != set(points):
        raise CheckError(f"output labels {len(labels)} points, not the "
                         f"{len(set(points))} input points")
    classes: dict[Point, list[Point]] = {}
    for p, label in labels.items():
        classes.setdefault(label, []).append(p)
    keys = {}
    for label, members in classes.items():
        if label != min(members):
            raise CheckError(f"label {label} is not its class's minimum {min(members)}")
        class_keys = {key(p) for p in members}
        if len(class_keys) != 1:
            raise CheckError(f"class {label} joins points of different orbits")
        k = class_keys.pop()
        if k in keys:
            raise CheckError(f"classes {keys[k]} and {label} are one orbit")
        keys[k] = label
    return len(classes)


def check_stage1(doc: dict, n: int, facts: Stage1Facts) -> None:
    """The JSON diagnostics describe the workload's group."""
    rows = [tuple(r) for r in doc["basis_rows"]]
    if doc["n"] != n or doc["rank_m"] != facts.rank or len(rows) != facts.rank:
        raise CheckError(f"rank {doc['rank_m']} ({len(rows)} rows), expected {facts.rank}")
    if doc["rotation_order"] != facts.rotation_order:
        raise CheckError(f"rotation_order {doc['rotation_order']}, "
                         f"expected {facts.rotation_order}")
    if not all(len(r) == n and facts.contains(r) for r in rows):
        raise CheckError("a basis row lies outside the lattice")
    if facts.index and abs(_det(rows)) != facts.index:
        raise CheckError(f"basis spans index {abs(_det(rows))}, expected {facts.index}")


def _det(rows: list[Point]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def check_output(w: Workload, points: list[Point], data: bytes) -> int:
    """Full check of one run's output bytes; returns the class count."""
    doc, pairs = parse_output(w.format, data)
    if doc is not None:
        check_stage1(doc, w.n, w.facts)
    return check_partition(points, pairs, w.key)


def check_empty_output(w: Workload, data: bytes, full: bytes) -> None:
    """The empty-domain run reports the same stage 1 and no classes."""
    doc, pairs = parse_output(w.format, data)
    if pairs:
        raise CheckError("the empty domain produced labelled points")
    if doc is not None:
        full_doc, _ = parse_output(w.format, full)
        for field in ("n", "rank_m", "basis_rows", "rotation_order"):
            if doc[field] != full_doc[field]:
                raise CheckError(f"empty-domain {field} {doc[field]} differs "
                                 f"from the full run's {full_doc[field]}")
