"""Property test of the Schreier–Sims order: on any generator set in S_n
for n <= 7, empty, identity and repeated generators included, it equals
the number of elements the breadth-first closure of tests/reference.py
lists.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import cycle  # noqa: E402
from isorbit import perm_group_order  # noqa: E402
from reference import generate_perm_group  # noqa: E402


@st.composite
def generator_sets(draw):
    """n and up to six permutations of 0..n-1: any permutation, a cycle
    through a few points, or the identity, then some of them again, in any
    order."""
    n = draw(st.integers(1, 7))
    one = st.one_of(
        st.permutations(list(range(n))).map(tuple),
        st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(
            lambda points: cycle(n, points)),
        st.just(tuple(range(n))),
    )
    gens = draw(st.lists(one, max_size=4))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    return n, draw(st.permutations(gens))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(generator_sets())
def test_order_is_the_size_of_the_closure(case):
    n, gens = case
    assert perm_group_order(gens, n) == len(generate_perm_group(gens, n).elements)
