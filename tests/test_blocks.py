"""The class merge by axis blocks, and the sparse cell-fixing test.

When no generator couples two blocks of axes, stage 2 merges each block
on its own distinct projections (labeling.merge_classes_blocks). Pairs of
instances on interleaved axes give the partition of the walk over the
whole product orbit in tests/reference.py, at every lattice rank, and
stage 1's blocks are those that merging overlapping axis sets finds. Under
S_k on each of b blocks the class key is each block's sorted coordinates,
and S4^4, S4^5 and S3^8 on 10 points finish under the default caps and
pass the exact check. Mutants that must fail: a negation or a permutation
split across blocks, a translation whose support is ignored, a key that
maps a representative to the wrong first one, and a check that does not
test that each generator lies in one block.

labeling._fixes_the_cell tests (R - I)·e_j sparsely; it agrees with the
dense test of tests/reference.py at every rank, and so does the sparse
test that R maps the lattice into itself; mutants that ignore the sign or
skip a moved axis disagree. It costs what R moves: a full flip at n =
50,000 runs stage 2 in well under a second.

Needs hypothesis (the ``test`` extra); the module is skipped without it.
"""

import random
import time
from itertools import count, product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import isorbit.check  # noqa: E402
import isorbit.labeling  # noqa: E402
import isorbit.pipeline  # noqa: E402
from isorbit import (  # noqa: E402
    Isometry,
    SignedPermutation,
    Stage1,
    hnf_reduce,
    run_stage1,
    run_stage2,
    validate_atomic,
)
from isorbit.check import first_failure  # noqa: E402
from isorbit.labeling import (  # noqa: E402
    AxisBlock,
    _fixes_the_cell,
    _maps_the_lattice_into_itself,
    _squared,
)
from conftest import mutant_module  # noqa: E402
from reference import (  # noqa: E402
    dense_fixes_the_cell,
    dense_maps_the_lattice_into_itself,
    full_walk_merge_classes,
    reduce_points,
    reference_axis_blocks,
    restricted_to,
)
from test_reduction_property import ranked_generators_and_points  # noqa: E402


def embedded(g: Isometry, at, n: int) -> Isometry:
    """g, acting on len(at) axes, moved to the axes at of Z^n."""
    v, signs, perm = [0] * n, [1] * n, list(range(n))
    for i, a in enumerate(at):
        v[a], signs[a], perm[a] = g.v[i], g.r.signs[i], at[g.r.perm[i]]
    return Isometry(tuple(v), SignedPermutation(tuple(signs), tuple(perm)))


@st.composite
def interleaved_pairs(draw):
    """Two instances of ranked_generators_and_points on at most 3 axes each,
    their axes interleaved in Z^n, and the points that join each of their
    first 5 points with each of the other's."""
    (a, pa), (b, pb) = draw(ranked_generators_and_points(3)), draw(ranked_generators_and_points(3))
    n = a.gens.n + b.gens.n
    where = draw(st.permutations(range(n)))
    at_a, at_b = where[:a.gens.n], where[a.gens.n:]
    raw = [embedded(g, at, n) for s, at in ((a, at_a), (b, at_b))
           for g in s.gens.translations + s.gens.negations + s.gens.permutations]
    points = []
    for p, q in product(pa[:5], pb[:5]):
        x = [0] * n
        for i, c in zip(at_a + at_b, p + q):
            x[i] = c
        points.append(tuple(x))
    return run_stage1(validate_atomic(draw(st.permutations(raw)), n)), points


def walked_partition(stage1, points):
    """The partition of the points by the walk over the whole product orbit."""
    basis = stage1.basis
    reps, assignment = reduce_points(basis, points)
    order = sorted(reps)
    root = full_walk_merge_classes(order, stage1.gens.rotation_generators(), basis)
    first = {p: order[r] for p, r in zip(order, root)}
    classes = {}
    for x, rep in assignment.items():
        classes.setdefault(first[rep], set()).add(x)
    return {frozenset(c) for c in classes.values()}


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(interleaved_pairs())
def test_interleaved_blocks_give_the_product_walk(case):
    stage1, points = case
    hypothesis.event(f"lattice rank {stage1.basis.m} in Z^{stage1.gens.n}")
    hypothesis.event(f"{len(stage1.blocks)} axis blocks")
    blocks = reference_axis_blocks(stage1.gens)
    assert [tuple(b.axes) for b in stage1.blocks] == blocks
    for b in stage1.blocks:
        rotations, basis = restricted_to(b.axes, stage1.gens.rotation_generators(), stage1.basis)
        assert (list(b.rotations), b.basis) == (rotations, basis)
    stage2 = run_stage2(stage1, points)
    assert stage2.labeling().partition() == walked_partition(stage1, points)
    assert first_failure(stage1, stage2) is None


def sk_generators(k: int, b: int) -> list[Isometry]:
    """A swap and a k-cycle on each of b blocks of k axes: S_k^b."""
    n, raw = k * b, []
    for o in range(0, n, k):
        swap, cycle = list(range(n)), list(range(n))
        swap[o], swap[o + 1] = o + 1, o
        for i in range(k):
            cycle[o + i] = o + (i + 1) % k
        raw += [Isometry.rotation(SignedPermutation.permutation(p)) for p in (swap, cycle)]
    return raw


def sk_key(x, k: int):
    return tuple(tuple(sorted(x[o:o + k])) for o in range(0, len(x), k))


def keyed_partition(points, key):
    classes = {}
    for x in points:
        classes.setdefault(key(x), set()).add(x)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize("k,b", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_under_sk_to_the_b_the_key_is_each_blocks_sorted_coordinates(k, b):
    # each point's coordinates shuffled within blocks give orbit-mates
    rng = random.Random(31 * k + b)
    n = k * b
    points = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(12)]
    for x in points[:6]:
        blocks = [list(x[o:o + k]) for o in range(0, n, k)]
        for block in blocks:
            rng.shuffle(block)
        points.append(tuple(c for block in blocks for c in block))
    stage1 = run_stage1(validate_atomic(sk_generators(k, b), n))
    assert len(stage1.blocks) == b
    stage2 = run_stage2(stage1, points)
    assert stage2.labeling().partition() == keyed_partition(set(points), lambda x: sk_key(x, k))
    assert first_failure(stage1, stage2) is None


@pytest.mark.parametrize("k,b", [(4, 4), (4, 5), (3, 8)])
def test_large_product_orbits_finish_under_the_default_caps(k, b):
    # the product orbit of a point has (k!)^b cell points, more than the
    # default closure cap; each block's orbit has k!
    n = k * b
    rng = random.Random(7)
    points = [tuple(rng.randint(-1000, 999) for _ in range(n)) for _ in range(10)]
    stage1 = run_stage1(validate_atomic(sk_generators(k, b), n))
    stage2 = run_stage2(stage1, points)
    assert stage2.labeling().partition() == keyed_partition(points, lambda x: sk_key(x, k))
    assert first_failure(stage1, stage2) is None


def stage1_of(pipeline, raw, n):
    return pipeline.run_stage1(validate_atomic(raw, n))


def rotation(signs, perm):
    return Isometry.rotation(SignedPermutation(tuple(signs), tuple(perm)))


# (name, edit of pipeline.py, generators, n, points): each mutant's blocks
# give these points another partition than the product walk
BLOCK_MUTANTS = [
    # diag(-1, -1) maps (1, 1) to (-1, -1) only; split, it acts in the block
    # of axis 0 as a flip of that axis, which maps (1, 1) to (-1, 1)
    ("negation split", ("        join(touched)\n", "        [join([a]) for a in touched]\n"),
     [rotation((-1, -1), (0, 1))], 2, [(1, 1), (-1, 1), (-1, -1)]),
    # (0 1)(2 3) maps (0, 1, 0, 1) to (1, 0, 1, 0) only; split, it acts in
    # the block of axes 0 and 1 as their swap, which gives (1, 0, 0, 1)
    ("permutation split by its pairs", (
        "    for touched in moved_axes:\n        join(touched)\n",
        "    for r, touched in zip(rotations, moved_axes):\n"
        "        [join([a, r.perm[a]]) for a in touched]\n"),
     [rotation((1,) * 4, (1, 0, 3, 2))], 4, [(0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1)]),
    # L = Z(2, 1) + Z(0, 2): the flip of axis 0 joins the cell points
    # (1, 0) and (1, 1); with the support of (2, 1) ignored, the two flips
    # make axes 0 and 1 two blocks, axis 0 keeps only the row's 2, and the
    # flip fixes its cell
    ("translation support ignored", ("        join(list(compress(count(), v)))\n",
                                     "        pass\n"),
     [Isometry.translation((2, 1)), rotation((-1, 1), (0, 1)), rotation((1, -1), (0, 1))], 2,
     [(0, 0), (0, 1), (1, 0), (1, 1)]),
]


@pytest.mark.parametrize("edit,raw,n,points", [m[1:] for m in BLOCK_MUTANTS],
                         ids=[m[0] for m in BLOCK_MUTANTS])
def test_a_block_split_the_generators_couple_fails(edit, raw, n, points):
    stage1 = stage1_of(isorbit.pipeline, raw, n)
    walked = walked_partition(stage1, points)
    assert run_stage2(stage1, points).labeling().partition() == walked
    mutant = stage1_of(mutant_module(isorbit.pipeline, [edit]), raw, n)
    assert len(mutant.blocks) > len(stage1.blocks)
    stage2 = run_stage2(mutant, points)
    assert stage2.labeling().partition() != walked
    # the exact check finds the generator or Hermite row across two blocks
    failed = first_failure(mutant, stage2)
    assert failed[0] == "blocks" and "touches two axis blocks" in failed[1]


def test_a_check_that_skips_the_block_test_passes_a_wrong_run():
    # diag(-1, -1) split into a flip of each axis, in the run's blocks and
    # in the walk of each block alike: only the block test sees it
    raw = [rotation((-1, -1), (0, 1))]
    points = [(1, 1), (-1, 1), (-1, -1)]
    real = run_stage1(validate_atomic(raw, 2))
    blocks = tuple(AxisBlock(axes, *restricted_to(axes, real.gens.rotation_generators(), real.basis))
                   for axes in [(0,), (1,)])
    split = Stage1(real.gens, real.neg_basis, real.perm_order, real.basis, blocks)
    stage2 = run_stage2(split, points)
    assert stage2.labeling().partition() != walked_partition(real, points)
    assert first_failure(split, stage2) == (
        "blocks", "rotation generator 0 touches two axis blocks")
    skipping = mutant_module(isorbit.check, [(
        "return _block_failure(stage1) or _class_failure(", "return _class_failure(")])
    assert skipping.first_failure(split, stage2) is None


def test_a_key_that_drops_the_earlier_blocks_sizes_fails():
    # a swap on each of two blocks: the roots (0, 1) and (1, 0) of two
    # representatives differ, but their sums agree
    raw = [rotation((1,) * 4, (1, 0, 2, 3)), rotation((1,) * 4, (0, 1, 3, 2))]
    stage1 = run_stage1(validate_atomic(raw, 4))
    points = list(product(range(2), repeat=4))
    index = dict(zip(points, count()))  # rank 0: every point is its own representative
    real = isorbit.labeling.merge_classes_blocks(dict(index), stage1.blocks)
    mutant = mutant_module(isorbit.labeling, [(
        "term = root if stride == 1 else map(mul, root, repeat(stride))", "term = root")])
    wrong = mutant.merge_classes_blocks(dict(index), stage1.blocks)
    walked = full_walk_merge_classes(points, stage1.gens.rotation_generators(), stage1.basis)
    assert list(real) == walked != list(wrong)


def test_the_untouched_axes_form_one_block_beside_two_or_more():
    # a swap of axes 1 and 3 and a flip of axis 4 in Z^5: axes 0 and 2 are
    # touched by no generator, so they are one block whose projections
    # need no merge; beside one touched block, all five axes are one
    swap = rotation((1,) * 5, (0, 3, 2, 1, 4))
    stage1 = run_stage1(validate_atomic([swap, rotation((1, 1, 1, 1, -1), range(5))], 5))
    assert [(tuple(b.axes), b.rotations) for b in stage1.blocks] == [
        ((0, 2), ()), ((1, 3), (SignedPermutation((1, 1), (1, 0)),)),
        ((4,), (SignedPermutation((-1,), (0,)),))]
    points = [(0, 1, 0, 2, 0), (0, 2, 0, 1, 0), (1, 2, 0, 1, 0), (0, 1, 0, 2, 1), (0, 2, 0, 1, -1)]
    stage2 = run_stage2(stage1, points)
    assert stage2.labeling().partition() == walked_partition(stage1, points)
    assert len(stage2.label_at) == 3
    alone = run_stage1(validate_atomic([swap], 5))
    assert [(b.axes, b.rotations) for b in alone.blocks] == [(range(5), (swap.r,))]


def test_a_run_with_every_block_fixed_keeps_each_representative():
    # translations (1, 0) and (0, 1) make the cell one point: each flip
    # fixes it, so no block is merged and index is left empty
    raw = [Isometry.translation((1, 0)), Isometry.translation((0, 1)),
           rotation((-1, 1), (0, 1)), rotation((1, -1), (0, 1))]
    stage1 = run_stage1(validate_atomic(raw, 2))
    assert [tuple(b.axes) for b in stage1.blocks] == [(0,), (1,)]
    index = {(0, 0): 0}
    assert list(isorbit.labeling.merge_classes_blocks(index, stage1.blocks)) == [0]
    assert index == {}


def test_a_cap_error_names_the_whole_merge():
    # S3 on each of two blocks adds 5 cell points a block for the point
    # (0, 1, 2, 0, 1, 2); a cap of 9 trips in the second block. The check
    # walks each block's 6 cell points, and holds at most the one domain
    # point a block plus the cap, so it too passes at 10 and stops at 9
    stage1 = run_stage1(validate_atomic(sk_generators(3, 2), 6))
    point = [(0, 1, 2, 0, 1, 2)]
    stage2 = run_stage2(stage1, point, 10)
    assert first_failure(stage1, stage2, 10) is None
    with pytest.raises(isorbit.ClosureCapExceededError) as info:
        run_stage2(stage1, point, 9)
    assert str(info.value) == (
        "the class merge passed the closure cap of 9 cell points beyond its R = 1 representatives")
    with pytest.raises(isorbit.ClosureCapExceededError) as info:
        first_failure(stage1, stage2, 9)
    assert str(info.value) == ("the orbit walk passed the closure cap of 9 cell points beyond "
                               "the D = 1 domain points in each of 2 axis blocks")


@st.composite
def bases_and_rotations(draw):
    """A basis of every rank 0..n, some of its rows multiples of unit
    vectors so that rotations often fix the cell, and a signed permutation."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, n))
    unit = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=rank))
    rows = [tuple(k * (i == a) for i in range(n)) for a, k in unit]
    rows += draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                          min_size=rank - len(rows), max_size=rank - len(rows)))
    basis = hnf_reduce(rows, n)
    hypothesis.assume(basis.m == rank)
    r = SignedPermutation(draw(st.tuples(*[st.sampled_from((1, -1))] * n)),
                          tuple(draw(st.permutations(range(n)))))
    return basis, r


def both_tests(fixes, basis, r):
    """The cell-fixing test on R and on R^2."""
    return fixes(basis, r.signs, r.perm), fixes(basis, *_squared(r))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(bases_and_rotations())
def test_the_sparse_cell_test_agrees_with_the_dense_one(case):
    basis, r = case
    hypothesis.event(f"lattice rank {basis.m} in Z^{basis.n}")
    sparse = both_tests(_fixes_the_cell, basis, r)
    hypothesis.event(f"fixes the cell: {sparse[0]}; its square does: {sparse[1]}")
    assert sparse == both_tests(dense_fixes_the_cell, basis, r)
    assert _maps_the_lattice_into_itself(basis, r) == dense_maps_the_lattice_into_itself(basis, r)


# the rank-1 lattice Z(1, -1) holds e_1 - e_0 but not -e_0 - e_1, and the
# flip of axis 1 alone fixes no cell point of Z^2
SPARSE_CASES = [(hnf_reduce([(1, -1)], 2), SignedPermutation((-1, 1), (1, 0))),
                (hnf_reduce([], 2), SignedPermutation((1, -1), (0, 1))),
                (hnf_reduce([(2, 0), (0, 2)], 2), SignedPermutation((-1, -1), (0, 1)))]


@pytest.mark.parametrize("edit", [
    ("{i: s, p: -1}", "{i: 1, p: -1}"),
    ("enumerate(zip(signs, perm))", "enumerate(zip(signs[:-1], perm[:-1]))"),
], ids=["sign-ignored", "last-moved-axis-skipped"])
def test_a_sparse_cell_test_that_drops_an_entry_fails(edit):
    mutant = mutant_module(isorbit.labeling, [edit])
    assert all(both_tests(_fixes_the_cell, basis, r) == both_tests(dense_fixes_the_cell, basis, r)
               for basis, r in SPARSE_CASES)
    assert any(both_tests(mutant._fixes_the_cell, basis, r)
               != both_tests(dense_fixes_the_cell, basis, r) for basis, r in SPARSE_CASES)


def test_a_full_flip_costs_stage_2_what_it_moves():
    # a swap, a full flip and two translations at n = 50,000: the dense
    # test reduced an n x n matrix per generator, about 200 s at this n
    n = 50_000
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    raw = [rotation((1,) * n, swap), rotation((-1,) * n, range(n)),
           Isometry.translation((2,) + (0,) * (n - 1)), Isometry.translation((0, 3) + (0,) * (n - 2))]
    stage1 = run_stage1(validate_atomic(raw, n))
    points = [(i,) + (7 * i - 3,) * (n - 1) for i in range(5)]
    t0 = time.perf_counter()
    stage2 = run_stage2(stage1, points)
    assert time.perf_counter() - t0 < 2.0
    assert len(stage2.label_at) == 5
