"""The permutation-subgroup order by Schreier–Sims, against independent
oracles: the breadth-first closure of tests/reference.py for small n,
closed forms up to the default dimension cap, and sympy where installed."""

import itertools
import math
from random import Random

import pytest

from conftest import cycle
from isorbit import DimensionTooLargeError, InvalidRotationError, perm_group_order
from isorbit.permgroup import DEFAULT_MAX_DIMENSION
from reference import generate_perm_group

DEFAULT = DEFAULT_MAX_DIMENSION


def cycle_lengths(p):
    seen, lengths = set(), []
    for start in range(len(p)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = p[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def symmetric(points, n):
    """Swap and cycle of the points: all permutations of them."""
    return [cycle(n, points[:2]), cycle(n, points)]


def alternating(points, n):
    """The 3-cycles of consecutive points: the even permutations of them."""
    return [cycle(n, points[i:i + 3]) for i in range(len(points) - 2)]


def test_single_transposition():
    assert perm_group_order([(1, 0)], 2) == 2
    assert generate_perm_group([(1, 0)], 2).elements == ((0, 1), (1, 0))


def test_transposition_and_cycle_generate_everything():
    assert perm_group_order([(1, 0, 2), (1, 2, 0)], 3) == 6
    group = generate_perm_group([(1, 0, 2), (1, 2, 0)], 3)
    assert set(group.elements) == set(itertools.permutations(range(3)))


def test_empty_generators():
    assert perm_group_order([], 4) == 1
    assert perm_group_order([(0, 1, 2, 3), (0, 1, 2, 3)], 4) == 1
    assert generate_perm_group([], 4).elements == ((0, 1, 2, 3),)


def test_closure_under_composition():
    # the reference closure the order is checked against is a group
    group = generate_perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
    elements = set(group.elements)
    for a in elements:
        for b in elements:
            assert tuple(b[i] for i in a) in elements  # a after b
    assert perm_group_order([(1, 0, 2, 3), (1, 2, 3, 0)], 4) == len(elements) == 24


def test_order_divides_factorial():
    rng = Random(301)
    for _ in range(30):
        n = rng.randint(1, 12)
        gens = []
        for _ in range(rng.randint(0, 2)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        assert math.factorial(n) % perm_group_order(gens, n) == 0


def test_deterministic_across_runs():
    gens = [(2, 0, 1, 3), (0, 1, 3, 2)]
    assert perm_group_order(gens, 4) == perm_group_order(list(reversed(gens)), 4) == 24
    assert perm_group_order(gens + gens, 4) == 24


def test_dimension_cap():
    # the cap counts the axes the generators move, not n
    over = DEFAULT + 1
    moving = cycle(over, list(range(over)))
    with pytest.raises(DimensionTooLargeError, match=f"move {over} axes"):
        perm_group_order([moving], over)
    with pytest.raises(DimensionTooLargeError):
        perm_group_order([cycle(64, list(range(over))), cycle(64, [0, 1])], 64)
    assert perm_group_order([cycle(64, list(range(DEFAULT)))], 64) == DEFAULT
    assert perm_group_order([cycle(over, [0, 1])], over) == 2
    assert perm_group_order([cycle(64, [7, 50]), cycle(64, [50, 63])], 64) == 6
    # the cap is a knob, not a constant
    assert perm_group_order([moving], over, max_dimension=over) == over
    with pytest.raises(DimensionTooLargeError):
        perm_group_order([(1, 2, 0)], 3, max_dimension=2)
    assert perm_group_order([(1, 0, 2)], 3, max_dimension=2) == 2
    # no moved axis, no chain to build: the cap does not apply
    assert perm_group_order([], over) == 1
    assert perm_group_order([], 10**6) == 1
    assert perm_group_order([tuple(range(over))], over, max_dimension=1) == 1


def test_rejects_non_permutations():
    with pytest.raises(InvalidRotationError):
        perm_group_order([(0, 0)], 2)
    with pytest.raises(InvalidRotationError):
        perm_group_order([(0, 1)], 3)
    with pytest.raises(InvalidRotationError, match="1.0"):
        perm_group_order([(1.0, 0)], 2)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, DEFAULT])
def test_swap_and_cycle_give_the_symmetric_group(n):
    assert perm_group_order(symmetric(list(range(n)), n), n) == math.factorial(n)


@pytest.mark.parametrize("n", [3, 4, 7, 12, 20, DEFAULT])
def test_three_cycles_give_the_alternating_group(n):
    assert perm_group_order(alternating(list(range(n)), n), n) == math.factorial(n) // 2


def test_one_generator_gives_the_lcm_of_its_cycle_lengths():
    rng = Random(302)
    for _ in range(40):
        n = rng.randint(1, DEFAULT)
        p = list(range(n))
        rng.shuffle(p)
        assert perm_group_order([p], n) == math.lcm(*cycle_lengths(p))
    # cycles of lengths 2, 3, 5, 7 and 11 on disjoint points
    points = iter(range(28))
    parts = [[next(points) for _ in range(k)] for k in (2, 3, 5, 7, 11)]
    p = list(range(28))
    for part in parts:
        for a, b in zip(part, part[1:] + part[:1]):
            p[a] = b
    assert perm_group_order([p], 28) == 2 * 3 * 5 * 7 * 11


@pytest.mark.parametrize("a,b,c", [(5, 6, 7), (10, 12, 10), (2, 3, DEFAULT - 5)])
def test_disjoint_supports_multiply_their_orders(a, b, c):
    n = a + b + c
    points = list(range(n))
    gens = (symmetric(points[:a], n) + alternating(points[a:a + b], n)
            + [cycle(n, points[a + b:])])
    expected = math.factorial(a) * (math.factorial(b) // 2) * c
    assert perm_group_order(gens, n) == expected
    # relabelling the points conjugates the group and keeps its order
    rng = Random(a * b * c)
    relabel = list(range(n))
    rng.shuffle(relabel)
    conjugated = [tuple(relabel[g[relabel.index(i)]] for i in range(n)) for g in gens]
    assert perm_group_order(conjugated, n) == expected


@pytest.mark.parametrize("h", [2, 3, 5, 8, DEFAULT // 2])
def test_block_swaps_and_block_cycle_give_the_wreath_product(h):
    # blocks {2i, 2i+1}: a swap inside block 0, a swap of blocks 0 and 1 and
    # the block cycle i -> i+1 generate S_2 wr S_h, of order 2^h * h!
    n = 2 * h
    gens = [cycle(n, [0, 1]), (2, 3, 0, 1) + tuple(range(4, n)),
            tuple((i + 2) % n for i in range(n))]
    assert perm_group_order(gens, n) == 2 ** h * math.factorial(h)


def _random_generators(rng, n):
    """A few permutations of one of three shapes: any permutation; short
    cycles, whose group is a product over the points they connect; or
    rotations inside blocks and a shuffle of the blocks, which keep a block
    system. The points are relabelled at random."""
    kind = rng.randrange(3)
    size = rng.choice([b for b in (2, 3, 4) if n % b == 0] or [1])
    gens = []
    for _ in range(rng.randint(1, 4)):
        if kind == 0:
            p = rng.sample(range(n), n)
        elif kind == 1:
            p = cycle(n, rng.sample(range(n), rng.randint(2, 4)))
        else:
            blocks = rng.sample(range(n // size), n // size)
            shifts = [rng.randrange(size) for _ in blocks]
            p = [blocks[i // size] * size + (i + shifts[i // size]) % size for i in range(n)]
        gens.append(p)
    relabel = rng.sample(range(n), n)
    return [tuple(relabel[g[relabel.index(i)]] for i in range(n)) for g in gens]


def test_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = Random(303)
    for _ in range(24):
        n = rng.randint(12, DEFAULT)
        gens = _random_generators(rng, n)
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in gens])
        assert perm_group_order(gens, n) == group.order(), gens
