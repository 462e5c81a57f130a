"""Property test: the echelon reduction and the pseudoinverse oracle in
tests/reference.py give the same translation classes.

Needs hypothesis (the ``test`` extra); the module is skipped without it, so
the rest of the suite still collects.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from isorbit import hnf_reduce, reduce_points  # noqa: E402
from reference import build_pseudoinverse, pinv_reduce_points  # noqa: E402


def _partition(assignment):
    classes = {}
    for x, rep in assignment.items():
        classes.setdefault(rep, set()).add(x)
    return {frozenset(c) for c in classes.values()}


@st.composite
def bases_and_points(draw):
    n = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(-6, 6)] * n)
    rows = draw(st.lists(vec, max_size=n + 1))
    points = draw(st.lists(st.tuples(*[st.integers(-30, 30)] * n), max_size=40))
    return n, rows, points


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(bases_and_points())
def test_echelon_and_pseudoinverse_reductions_agree(case):
    """Both reductions split the points into the same translation classes,
    on full-rank and rank-deficient bases alike."""
    n, rows, points = case
    basis = hnf_reduce(rows, n)
    _reps, echelon = reduce_points(basis, points)
    _pinv_reps, pseudo = pinv_reduce_points(build_pseudoinverse(basis), basis, points)
    assert _partition(echelon) == _partition(pseudo)
