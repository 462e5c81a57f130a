"""Explicit-group and pseudoinverse references for the production pipeline.

The production path in ``isorbit`` never enumerates a group: it runs
fixed-point loops over the generators, and takes the order of the
permutation subgroup from a Schreier–Sims stabilizer chain. The functions
here do the same jobs the direct way: generate_perm_group closes the
permutation generators breadth-first into every element of their subgroup,
and the whole rotation subgroup is listed and swept. They are slower, but
they depend on nothing the production loops do, so tests compare the two:
negation basis, translation lattice, permutation and rotation orders and
the merge witnesses must all agree. The production merge closes every
orbit at once with a union-find over coordinate columns and returns each
representative's root by index, skipping the edges it can tell join
nothing; full_walk_merge_classes below is the same walk with every edge,
witness_merge_classes the full walk over the sorted representatives read
as a witness dict, and closure_merge_classes an earlier form still, one
witness's closure at a time, one point at a time. All are kept as oracles.

The production reduction walks the Hermite-normal-form echelon over whole
coordinate columns; reduce_mod_lattice below takes the same steps one point
at a time, and lattice_contains walks them to test lattice membership.
The pseudoinverse reduction below gets its representatives another way,
from the exact rational coefficients x over the basis, x - B*floor(coeff(x));
its representatives differ, but both must split any point set into the
same translation classes.

The CLI checks a points file's shape and the library its points, over
whole lists; the per-point parser below checks one point at a time and
must name the same first bad point, or give the same points. The
line-by-line TSV writer and dumps_reference, which writes the JSON
document through the json module, are the byte references of the CLI's
chunk writers. per_class_finalize_labels is an earlier label
finalisation, which sorts each class and then the classes.

The end of this file keeps the whole-list stage 2 that the streamed one
replaced (reduce_points, finalize_labels, render_json, render_tsv), the
byte oracle of tests/test_stream_property.py, and the adapters that feed
any labeling to the chunk writers, then the padded-box reference that
--oracle-check ran before its exact check (bfs_orbits and
stabilized_bfs_orbits), with the isometry algebra only it used (apply,
members).
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, neg
from typing import Iterable, Mapping, NoReturn, Sequence

from isorbit import (
    BoxTooLargeError,
    DigitLimitExceededError,
    DimensionMismatchError,
    GeneratingSet,
    Gf2Basis,
    InputError,
    Isometry,
    IsorbitError,
    LatticeBasis,
    OrbitLabeling,
    ClosureCapExceededError,
    Point,
    SignedPermutation,
    Stage1,
    Stage2,
    hnf_reduce,
    rref,
)
from isorbit.cli import json_chunks, json_head, tsv_chunks
from isorbit.domain import DEFAULT_BOX_CAP, SortedPoints
from isorbit.isometry import int_tuple
from isorbit.gf2 import mask_of, permute_mask
from isorbit.labeling import DEFAULT_CLOSURE_CAP
from isorbit.lattice import reduce_columns


@dataclass(frozen=True)
class PermGroup:
    """All elements of a permutation subgroup, sorted in one-line notation."""

    n: int
    elements: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def generate_perm_group(gens: Iterable[Sequence[int]], n: int) -> PermGroup:
    """Breadth-first closure of the generators into the whole subgroup.

    Every element of a finite group is a product of generators (inverses are
    positive powers), so the frontier walk below reaches everything. The
    closure of no generator is the identity alone. It holds up to n!
    tuples, so it is for small n only.
    """
    gen_list = sorted({tuple(g) for g in gens})
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


def negation_of(mask: int, n: int) -> SignedPermutation:
    return SignedPermutation.negation(
        tuple(-1 if mask >> i & 1 else 1 for i in range(n)))


def negation_basis_from_group(
    negations: Sequence[SignedPermutation],
    perms: Iterable[Sequence[int]],
    n: int,
) -> Gf2Basis:
    """Basis of the subgroup generated by the negations together with their
    conjugates under every permutation of the given (full) permutation group."""
    perm_list = [tuple(p) for p in perms]
    masks = [permute_mask(mask_of(g), p) for g in negations for p in perm_list]
    return rref(masks, n)


def enumerate_negations(basis: Gf2Basis) -> list[SignedPermutation]:
    """All 2^dim negations spanned by the basis.

    Ordered lexicographically by the coefficient tuple over the basis rows
    (the identity, coefficient zero, always comes first).
    """
    d = basis.dim
    out = []
    for bits in range(1 << d):
        mask = 0
        for j in range(d):
            if bits >> (d - 1 - j) & 1:
                mask ^= basis.rows[j]
        out.append(negation_of(mask, basis.n))
    return out


@dataclass(frozen=True)
class RotationGroup:
    """Explicit element list of a rotation subgroup, canonically sorted."""

    n: int
    elements: tuple[SignedPermutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def assemble_rotation_group(
    negations: Sequence[SignedPermutation],
    perms: PermGroup,
) -> RotationGroup:
    """Pair every negation with every permutation (negation applied last).

    The split of a rotation into a diagonal sign matrix following a
    permutation matrix is unique, so the product set has exactly
    len(negations) * perms.order distinct elements; the assert below guards
    that.
    """
    elements = [
        SignedPermutation(neg.signs, perm)
        for neg in negations
        for perm in perms.elements
    ]
    elements.sort()
    assert len(set(elements)) == len(elements), "collision in negation/permutation products"
    return RotationGroup(perms.n, tuple(elements))


def rotation_group(stage1: Stage1) -> RotationGroup:
    """The explicit rotation subgroup behind a production stage 1, with the
    permutation subgroup closed here from the generators."""
    gens = stage1.gens
    perms = generate_perm_group([g.r.perm for g in gens.permutations], gens.n)
    return assemble_rotation_group(enumerate_negations(stage1.neg_basis), perms)


def translation_basis_from_group(
    vectors: Iterable[Sequence[int]],
    rotations: Iterable[SignedPermutation],
    n: int,
) -> LatticeBasis:
    """Lattice generated by the vectors and all their images under the given
    (full, identity-containing) rotation group."""
    images = {r.apply(v) for v in vectors for r in rotations}
    return hnf_reduce(sorted(images), n)


def reduce_mod_lattice(basis: LatticeBasis, x: Sequence[int]) -> Point:
    """Canonical representative of x modulo the basis lattice, one point at
    a time: the single-point form of isorbit.lattice.reduce_columns.

    The result is the unique lattice translate of x whose pivot
    coordinates lie in [0, p_k); with an empty basis it is x itself.
    """
    if len(x) != basis.n:
        raise DimensionMismatchError(
            f"point of length {len(x)}, lattice in Z^{basis.n}")
    w = list(x)
    for c, p, entries in basis.echelon:
        q = w[c] // p
        if q:
            for i, b in entries:
                w[i] -= q * b
    return tuple(w)


def lattice_contains(basis: LatticeBasis, v: Sequence[int]) -> bool:
    """Exact membership of v in the integer span of the basis rows, by the
    same back-substitution walk, stopping at the first pivot that does not
    divide."""
    if len(v) != basis.n:
        raise DimensionMismatchError(
            f"membership test: vector of length {len(v)}, lattice in Z^{basis.n}")
    w = list(v)
    for c, p, entries in basis.echelon:
        q, rem = divmod(w[c], p)
        if rem:
            return False
        for i, b in entries:
            w[i] -= q * b
    return not any(w)


def rotate_mod_lattice(basis: LatticeBasis, r: SignedPermutation, w: Sequence[int]) -> Point:
    """Apply the rotation, then project back into the representative cell.

    For w already in the cell this is the induced action of the rotation on
    translation classes; with an empty basis it is the plain rotation.
    """
    return reduce_mod_lattice(basis, r.apply(w))


def closure_merge_classes(
    reps: Iterable[Point],
    rotation_gens: Sequence[SignedPermutation],
    basis: LatticeBasis,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> dict[Point, Point]:
    """Partition the representatives into rotation orbits, expanding each
    class by the rotation generators only.

    Witnesses are taken in lexicographic order, each the smallest
    representative not yet labeled. For each witness w the image closure is
    grown over the whole representative cell until it stops changing, and
    only then intersected with the representatives at hand. The closure is
    the whole orbit of w, so it never meets an earlier class. The cell is
    infinite when the lattice rank is below n, so a configurable cap guards
    the closure; the closure itself is always finite (it is contained in one
    rotation-subgroup orbit).
    """
    gens = list(rotation_gens)
    rep_set = set(map(tuple, reps))
    witness: dict[Point, Point] = {}
    for w in sorted(rep_set):
        if w in witness:
            continue
        closure = {w}
        frontier = [w]
        while frontier:
            fresh = []
            for p in frontier:
                for r in gens:
                    q = rotate_mod_lattice(basis, r, p)
                    if q not in closure:
                        closure.add(q)
                        fresh.append(q)
            if len(closure) > closure_cap:
                raise ClosureCapExceededError(
                    f"class closure around {w} exceeded {closure_cap} elements")
            frontier = fresh
        for p in closure & rep_set:
            witness[p] = w
    return witness


def witness_merge_classes(
    reps: Iterable[Point],
    rotation_gens: Sequence[SignedPermutation],
    basis: LatticeBasis,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> dict[Point, Point]:
    """Partition the representatives into rotation orbits, expanding all
    classes together by the rotation generators only; the witness of every
    representative is the lexicographically smallest representative in its
    orbit: the full walk below over the sorted distinct representatives."""
    order = sorted(set(map(tuple, reps)))
    root = full_walk_merge_classes(order, rotation_gens, basis, closure_cap)
    return {p: order[r] for p, r in zip(order, root)}


def full_walk_merge_classes(
    reps: Sequence[Point],
    rotation_gens: Sequence[SignedPermutation],
    basis: LatticeBasis,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> list[int]:
    """The root of every representative, as merge_classes_generators gives
    it, by the walk that skips no edge.

    The representatives are indexed 0..R-1 in the order given and form the
    first frontier; each round rotates the whole frontier by every
    generator over coordinate columns, projects the images back into the
    cell and joins each point with its images in a union-find that keeps
    the smaller index as the root. Cell points found later get larger
    indices, so every root is the first representative of its component.
    closure_cap bounds one component, and the error names the same point
    as the production merge's.
    """
    n = basis.n
    gens = list(rotation_gens)
    for k in set(map(len, reps)) | {r.n for r in gens}:
        if k != n:
            raise DimensionMismatchError(f"rotation or point in Z^{k}, lattice in Z^{n}")
    index = {p: i for i, p in enumerate(reps)}
    if len(index) != len(reps):
        i = next(i for i, p in enumerate(reps) if index[p] != i)
        raise InputError(f"representatives {i} and {index[reps[i]]} are the same point")
    parent = list(range(len(reps)))
    size = [1] * len(reps)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def too_big(root: int) -> ClosureCapExceededError:
        try:
            around = str(reps[root])
        except ValueError:
            around = f"representative {root} (too many digits to print)"
        return ClosureCapExceededError(
            f"class closure around {around} exceeded {closure_cap} elements")

    if gens and reps and closure_cap < 1:
        raise too_big(0)
    frontier, ids = reps, range(len(reps))
    while frontier and gens:
        cols = [list(map(itemgetter(j), frontier)) for j in range(n)]
        fresh: list[Point] = []
        fresh_ids: list[int] = []
        for r in gens:
            images = [cols[p] if s == 1 else list(map(neg, cols[p]))
                      for s, p in zip(r.signs, r.perm)]
            reduce_columns(basis, images)
            for i, q in zip(ids, zip(*images)):
                a = find(i)
                j = index.get(q)
                if j is None:
                    index[q] = j = len(parent)
                    parent.append(a)
                    size[a] += 1
                    if size[a] > closure_cap:
                        raise too_big(a)
                    fresh.append(q)
                    fresh_ids.append(j)
                    continue
                b = find(j)
                if a != b:
                    if b < a:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
                    if size[a] > closure_cap:
                        raise too_big(a)
        frontier, ids = fresh, fresh_ids
    return list(map(find, range(len(reps))))


def merge_classes_group(
    reps: Iterable[Point],
    rotations: Sequence[SignedPermutation],
    basis: LatticeBasis,
) -> dict[Point, Point]:
    """Partition the representatives by sweeping whole rotation image sets.

    Repeatedly picks the lexicographically smallest unlabeled representative
    w, computes its image under every rotation (projected back into the
    cell), labels the images found among the remaining representatives by w
    and removes them.
    """
    rot_list = list(rotations)
    remaining = set(map(tuple, reps))
    witness: dict[Point, Point] = {}
    while remaining:
        w = min(remaining)
        images = {rotate_mod_lattice(basis, r, w) for r in rot_list}
        cls = (images & remaining) | {w}
        for p in cls:
            witness[p] = w
        remaining -= cls
    return witness


@dataclass(frozen=True)
class ReferenceStage:
    """Stage-1 data computed by enumerating the rotation subgroup."""

    neg_basis: Gf2Basis
    rotations: RotationGroup
    basis: LatticeBasis


def reference_stage1(gens: GeneratingSet) -> ReferenceStage:
    """Negation basis and translation lattice from the whole rotation group."""
    n = gens.n
    perm_group = generate_perm_group([g.r.perm for g in gens.permutations], n)
    neg_basis = negation_basis_from_group(gens.negation_rotations(), perm_group.elements, n)
    rotations = assemble_rotation_group(enumerate_negations(neg_basis), perm_group)
    basis = translation_basis_from_group(gens.translation_vectors(), rotations.elements, n)
    return ReferenceStage(neg_basis, rotations, basis)


def reference_labeling(ref: ReferenceStage, points: Iterable[Sequence[int]]) -> OrbitLabeling:
    """Reduce the points and merge classes by sweeping every rotation."""
    reps, assignment = reduce_points(ref.basis, points)
    witness = merge_classes_group(reps, ref.rotations.elements, ref.basis)
    return finalize_labels(assignment, witness)


@dataclass(frozen=True)
class PseudoInverse:
    """Left inverse of the basis matrix B as an exact integer pair.

    gram_det is det(B^T B) > 0 and adjugate_product is adj(B^T B) * B^T
    (an m x n integer matrix), so the coefficient vector of x over the
    basis is (adjugate_product @ x) / gram_det, exactly.
    """

    n: int
    m: int
    gram_det: int
    adjugate_product: tuple[tuple[int, ...], ...]


def floor_ratio(num: int, den: int) -> int:
    """Mathematical floor of num/den for den > 0, valid for negative num."""
    return num // den


def _fraction_inverse(g: list[list[int]]) -> tuple[int, list[list[Fraction]]]:
    """Exact determinant and inverse of a square integer matrix."""
    m = len(g)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
        for i, row in enumerate(g)
    ]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            raise ArithmeticError("gram matrix of a lattice basis is singular")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    assert det.denominator == 1
    return int(det), [row[m:] for row in aug]


def build_pseudoinverse(basis: LatticeBasis) -> PseudoInverse:
    """Exact (gram_det, adjugate_product) pair for the basis; empty for rank 0."""
    n, m = basis.n, basis.m
    if m == 0:
        return PseudoInverse(n, 0, 1, ())
    gram = [
        [sum(a * b for a, b in zip(bi, bj)) for bj in basis.hnf_rows]
        for bi in basis.hnf_rows
    ]
    det, inv = _fraction_inverse(gram)
    if det <= 0:
        raise ArithmeticError(f"gram determinant must be positive, got {det}")
    adj = [[_as_int(det * x) for x in row] for row in inv]
    product = tuple(
        tuple(sum(adj[i][j] * basis.hnf_rows[j][k] for j in range(m)) for k in range(n))
        for i in range(m)
    )
    return PseudoInverse(n, m, det, product)


def _as_int(x: Fraction) -> int:
    assert x.denominator == 1
    return int(x)


def coefficient_numerators(pinv: PseudoInverse, x: Sequence[int]) -> tuple[int, ...]:
    """Numerators of the coefficient vector over gram_det."""
    if len(x) != pinv.n:
        raise DimensionMismatchError(
            f"point of length {len(x)}, pseudoinverse over Z^{pinv.n}")
    return tuple(sum(r * c for r, c in zip(row, x)) for row in pinv.adjugate_product)


def pinv_reduce_mod_lattice(pinv: PseudoInverse, basis: LatticeBasis, x: Sequence[int]) -> Point:
    """Canonical representative of x modulo the basis lattice.

    The result is the unique lattice translate of x whose coefficients over
    the basis all lie in [0, 1); with an empty basis it is x itself.
    """
    if len(x) != pinv.n:
        raise DimensionMismatchError(
            f"point of length {len(x)}, lattice in Z^{pinv.n}")
    if pinv.m == 0:
        return tuple(int(c) for c in x)
    d = pinv.gram_det
    out = list(x)
    for row, bvec in zip(pinv.adjugate_product, basis.hnf_rows):
        q = floor_ratio(sum(r * c for r, c in zip(row, x)), d)
        if q:
            out = [a - q * b for a, b in zip(out, bvec)]
    return tuple(out)


def pinv_reduce_points(
    pinv: PseudoInverse,
    basis: LatticeBasis,
    points: Iterable[Sequence[int]],
) -> tuple[set[Point], dict[Point, Point]]:
    """Project every point; returns the representative set and the point map."""
    pts = sorted({tuple(int(c) for c in p) for p in points})
    reps_list = [pinv_reduce_mod_lattice(pinv, basis, p) for p in pts]
    assignment = dict(zip(pts, reps_list))
    return set(reps_list), assignment


def per_point_parse_points(text: str, n: int) -> list[Point]:
    """The points list of a {"points": [...]} document in Z^n, deduplicated
    and sorted, checked one point at a time.

    A point that is not an array is reported first, since the CLI checks
    the document's shape before the library checks any point. Otherwise
    the first point, in file order, with other than n coordinates raises
    DimensionMismatchError, or with a coordinate that is not an integer
    raises InputError. Either error names the point by its index in the
    file, as "point {idx}: ...".
    """
    pts = json.loads(text)["points"]
    for idx, p in enumerate(pts):
        if not isinstance(p, list):
            raise InputError(f"point {idx}: coordinates must be a list of integers")
    for idx, p in enumerate(pts):
        if len(p) != n:
            raise DimensionMismatchError(f"point {idx}: dimension {len(p)}, expected {n}")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in p):
            raise InputError(f"point {idx}: coordinates must be integers")
    return sorted(set(map(tuple, pts)))


def line_by_line_render_tsv(labeling: OrbitLabeling) -> str:
    """One "point TAB label" line per point in sorted order, each line
    joined on its own."""
    lines = [
        ",".join(map(str, x)) + "\t" + ",".join(map(str, labeling.labels[x]))
        for x in sorted(labeling.labels)
    ]
    return "".join(line + "\n" for line in lines)


def dumps_reference(stage1, labeling) -> str:
    """The document render_json must encode, through the json module, with
    the classes grouped here from the labels mapping."""
    classes = {}
    for x in sorted(labeling.labels):
        classes.setdefault(labeling.labels[x], []).append(x)
    doc = {
        "n": stage1.gens.n,
        "rank_m": stage1.basis.m,
        "basis_rows": [list(r) for r in stage1.basis.hnf_rows],
        "rotation_order": stage1.rotation_order,
        "classes": [
            {"label": list(label), "members": [list(p) for p in members]}
            for label, members in sorted(classes.items())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def per_class_finalize_labels(
    assignment: Mapping[Point, Point],
    witness: Mapping[Point, Point],
) -> tuple[dict[Point, Point], dict[Point, tuple[Point, ...]]]:
    """The labels and classes by grouping the points per witness, then
    sorting each class and the classes: (labels, classes), the classes
    keyed in sorted label order. A witness missing for a representative
    is a KeyError."""
    groups: dict[Point, list[Point]] = {}
    for x, rep in assignment.items():
        groups.setdefault(witness[rep], []).append(x)
    labels: dict[Point, Point] = {}
    classes: dict[Point, tuple[Point, ...]] = {}
    for members in sorted(sorted(g) for g in groups.values()):
        label = members[0]
        classes[label] = tuple(members)
        for x in members:
            labels[x] = label
    return labels, classes


# The whole-list stage 2 that run_stage2 and the chunk writers replaced:
# reduce_points checks and reduces the points as given, finalize_labels
# sorts them once and labels each with its class minimum, and render_json
# and render_tsv format the whole output as one string. Together they are
# the byte oracle of the streamed CLI.

def reduce_points(
    basis: LatticeBasis,
    points: Iterable[Sequence[int]],
) -> tuple[set[Point], dict[Point, Point]]:
    """Project every point; returns the representative set and the point map.

    The map lists the distinct points in first-seen order. Equal
    representatives are stored as one tuple. Every point must have n
    coordinates, each of type int; the first bad one is named by its
    position in the input.
    """
    n = basis.n
    try:
        pts = list(map(tuple, points))
    except TypeError as e:
        raise InputError(f"points must be sequences of integers: {e}") from e
    if not pts:
        return set(), {}
    if set(map(len, pts)) - {n}:
        _reject_first_bad_point(pts, n)
    cols: list[list[int]] = [list(map(itemgetter(j), pts)) for j in range(n)]
    for col in cols:
        if set(map(type, col)) - {int}:
            _reject_first_bad_point(pts, n)
    reduce_columns(basis, cols)
    rows = list(zip(*cols)) if cols else [()] * len(pts)
    reps: dict[Point, Point] = {}
    assignment = dict(zip(pts, map(reps.setdefault, rows, rows)))
    return set(reps), assignment


def _reject_first_bad_point(pts: list[Point], n: int) -> NoReturn:
    for i, x in enumerate(pts):
        if len(x) != n:
            raise DimensionMismatchError(
                f"point {i}: {x!r} has dimension {len(x)}, expected {n}")
        for j, v in enumerate(x):
            if type(v) is not int:
                raise InputError(f"point {i}: coordinate {j} is {v!r}, expected an integer")


def finalize_labels(
    assignment: Mapping[Point, Point],
    witness: Mapping[Point, Point],
) -> OrbitLabeling:
    """Compose the two stages and canonicalize labels to class minima, in
    one pass over the sorted points."""
    points = sorted(assignment)
    first: dict[Point, Point] = {}
    roots = map(witness.__getitem__, map(assignment.__getitem__, points))
    return OrbitLabeling(tuple(points), tuple(map(first.setdefault, roots, points)))


def _point_template(n: int, depth: int) -> str:
    if n == 0:
        return "[]"
    inner = "  " * (depth + 1)
    return "[\n" + ",\n".join([inner + "%d"] * n) + "\n" + "  " * depth + "]"


def render_json(stage1: Stage1, labeling: OrbitLabeling) -> str:
    """The whole JSON document as one %-template, filled in one call."""
    try:
        head = json.dumps({
            "n": stage1.gens.n,
            "rank_m": stage1.basis.m,
            "basis_rows": [list(r) for r in stage1.basis.hnf_rows],
            "rotation_order": stage1.rotation_order,
            "classes": [],
        }, indent=2)
    except ValueError as e:
        raise DigitLimitExceededError("a stage-1 diagnostic has too many digits") from e
    classes = labeling.classes
    if not classes:
        return head + "\n"
    n = stage1.gens.n
    member_t = "        " + _point_template(n, 4)
    opening = '    {\n      "label": ' + _point_template(n, 3) + ',\n      "members": [\n'
    closing = "\n      ]\n    }"
    template = "".join([
        head[:-len("[]\n}")].replace("%", "%%"),
        "[\n",
        ",\n".join(
            opening + ",\n".join([member_t] * len(members)) + closing
            for members in classes.values()),
        "\n  ]\n}\n",
    ])
    points = itertools.chain.from_iterable(
        (label, *members) for label, members in classes.items())
    return template % tuple(itertools.chain.from_iterable(points))


def render_tsv(labeling: OrbitLabeling) -> str:
    """One "point TAB label" line per point, in sorted point order, from a
    %-template filled by each point joined to its label."""
    points = labeling.points
    if not points:
        return ""
    half = ",".join(["%d"] * len(points[0]))
    line = half + "\t" + half + "\n"
    return "".join(map(line.__mod__, map(add, points, labeling.point_labels)))


def stage2_of(labeling: OrbitLabeling, n: int) -> Stage2:
    """The Stage2 record of a labeling in Z^n whose labels are its class
    minima: the points as SortedPoints, the classes numbered in label
    order, each label at its sorted index. Feeds an arbitrary partition to
    the chunk writers."""
    labels = sorted(set(labeling.point_labels))
    number = {label: c for c, label in enumerate(labels)}
    at = {p: i for i, p in enumerate(labeling.points)}
    return Stage2(SortedPoints(n, list(labeling.points)),
                  array("I", map(number.__getitem__, labeling.point_labels)),
                  array("I", map(at.__getitem__, labels)))


def streamed_json(stage1: Stage1, labeling: OrbitLabeling) -> str:
    """The CLI's JSON chunk writer on a labeling, joined."""
    return "".join(json_chunks(json_head(stage1), stage2_of(labeling, stage1.gens.n)))


def streamed_tsv(labeling: OrbitLabeling) -> str:
    """The CLI's TSV chunk writer on a labeling, joined."""
    n = len(labeling.points[0]) if labeling.points else 0
    return "".join(tsv_chunks(stage2_of(labeling, n)))


# The padded-box reference: orbit discovery inside a padded bounding box.
#
# It walks the generator edges between points of an axis-aligned box around
# the input set and reads off connected components, then restricts back to
# the input. It is blind to every algebraic structure, so agreement with
# the pipeline is independent evidence. It is only correct when the box is
# large enough: some orbits connect only through points far outside the
# input window, and in the worst case no finite padding suffices. Growing
# the padding can only merge classes, never split them. The CLI's
# --oracle-check used it until an exact check replaced it.

Partition = set[frozenset[Point]]

DEFAULT_MAX_PADDING = 6  # the padding limit --oracle-check had


class NotStabilizedError(IsorbitError):
    """The padded-box reference never produced two agreeing partitions.

    Carries the partition at the largest padding tried, so callers can still
    run one-directional (soundness) checks against it.
    """

    code = "NotStabilized"

    def __init__(self, message, partition=None, padding=None):
        super().__init__(message)
        self.partition = partition
        self.padding = padding


def apply(h: Isometry, x: Sequence[int]) -> Point:
    """h(x) = R*x + v: rotate first, translate second."""
    if len(x) != h.n:
        raise DimensionMismatchError(
            f"isometry applied to point: dimension {len(x)} does not match {h.n}")
    return tuple(s * x[p] + c for s, p, c in zip(h.r.signs, h.r.perm, h.v))


def members(gens: GeneratingSet) -> tuple[Isometry, ...]:
    """Every generator: the translations, negations and permutations."""
    return gens.translations + gens.negations + gens.permutations


def bfs_orbits(
    gens: GeneratingSet,
    points: Iterable[Point],
    padding: int,
    box_cap: int = DEFAULT_BOX_CAP,
) -> Partition:
    """Partition of the points by connectivity through generator edges that
    stay inside the bounding box of the points, widened by ``padding``."""
    pts = {int_tuple(p, "point") for p in points}
    if not pts:
        return set()
    n = gens.n
    for p in pts:
        if len(p) != n:
            raise DimensionMismatchError(f"point {p} not in Z^{n}")
    los = [min(p[i] for p in pts) - padding for i in range(n)]
    his = [max(p[i] for p in pts) + padding for i in range(n)]
    size = 1
    for lo, hi in zip(los, his):
        size *= hi - lo + 1
        if size > box_cap:
            raise BoxTooLargeError(
                f"padded box exceeds the cap of {box_cap} points")
    box = list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))))
    index = {p: i for i, p in enumerate(box)}
    parent = list(range(len(box)))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    ops = members(gens)
    for p in box:
        i = index[p]
        for op in ops:
            j = index.get(apply(op, p))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    clusters: dict[int, set[Point]] = {}
    for p in pts:
        clusters.setdefault(find(index[p]), set()).add(p)
    return {frozenset(c) for c in clusters.values()}


def stabilized_bfs_orbits(
    gens: GeneratingSet,
    points: Iterable[Point],
    max_padding: int = DEFAULT_MAX_PADDING,
    box_cap: int = DEFAULT_BOX_CAP,
) -> tuple[Partition, int]:
    """Increase the padding until two consecutive partitions agree.

    Returns (partition, padding) with padding the first of the agreeing
    pair. Raises NotStabilized, carrying the largest-padding partition, if
    max_padding is reached first. Agreement is a heuristic: it does not
    prove the partition correct, it only stops refining it.
    """
    pts = list(points)
    prev: Partition | None = None
    for pad in range(max_padding + 1):
        part = bfs_orbits(gens, pts, pad, box_cap)
        if prev is not None and part == prev:
            return part, pad - 1
        prev = part
    raise NotStabilizedError(
        f"no two consecutive paddings up to {max_padding} agreed",
        partition=prev,
        padding=max_padding,
    )


def partition_doc(partition: Partition) -> list[list[list[int]]]:
    """A partition as sorted lists of sorted points, as JSON holds them."""
    return sorted([list(p) for p in sorted(cls)] for cls in partition)
