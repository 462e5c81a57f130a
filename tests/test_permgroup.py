import itertools
import math
from random import Random

import pytest

from isorbit import DimensionTooLargeError, InvalidRotationError, generate_perm_group


def test_single_transposition():
    group = generate_perm_group([(1, 0)], 2)
    assert group.order == 2
    assert group.elements == ((0, 1), (1, 0))


def test_transposition_and_cycle_generate_everything():
    group = generate_perm_group([(1, 0, 2), (1, 2, 0)], 3)
    assert group.order == 6
    assert set(group.elements) == set(itertools.permutations(range(3)))


def test_empty_generators():
    group = generate_perm_group([], 4)
    assert group.order == 1
    assert group.elements == ((0, 1, 2, 3),)


def test_closure_under_composition():
    group = generate_perm_group([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
    elements = set(group.elements)
    for a in elements:
        for b in elements:
            assert tuple(b[i] for i in a) in elements  # a after b


def test_order_divides_factorial():
    rng = Random(301)
    for _ in range(30):
        n = rng.randint(1, 6)
        gens = []
        for _ in range(rng.randint(0, 2)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        group = generate_perm_group(gens, n)
        assert math.factorial(n) % group.order == 0


def test_deterministic_across_runs():
    gens = [(2, 0, 1, 3), (0, 1, 3, 2)]
    a = generate_perm_group(gens, 4)
    b = generate_perm_group(list(reversed(gens)), 4)
    assert a == b


def test_dimension_cap():
    swap11 = (1, 0) + tuple(range(2, 11))
    with pytest.raises(DimensionTooLargeError):
        generate_perm_group([swap11], 11)
    # the cap is a knob, not a constant
    group = generate_perm_group([swap11], 11, max_dimension=11)
    assert group.order == 2
    with pytest.raises(DimensionTooLargeError):
        generate_perm_group([(1, 0, 2)], 3, max_dimension=2)
    # no generator, nothing to close: the cap does not apply
    assert generate_perm_group([], 11).elements == (tuple(range(11)),)


def test_rejects_non_permutations():
    with pytest.raises(InvalidRotationError):
        generate_perm_group([(0, 0)], 2)
    with pytest.raises(InvalidRotationError):
        generate_perm_group([(0, 1)], 3)
    with pytest.raises(InvalidRotationError, match="1.0"):
        generate_perm_group([(1.0, 0)], 2)
