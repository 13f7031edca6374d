"""The one-reduction pairing and the integer-built Q_p-irreducible characters
against the earlier per-value implementations in ``grouptheory_reference.py``.

Class functions are drawn on cyclic and abelian groups of order <= 24 and, so
that classes of more than one element occur, on S3, D4 and A4.  Their values
sit at mixed conductors (1, odd, and multiples of 4), carry denominators, and
some classes are zero.  Results must be equal in canonical form.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grouptheory_reference as ref
from refartin.conductor import qp_irreducibles_cyclic
from refartin.cyclotomic import ZERO, from_terms
from refartin.grouptheory import ClassFunction, abelian_group, build_group, cyclic_group, pair

GROUPS = (
    [cyclic_group(n) for n in range(1, 25)]
    + [
        abelian_group(inv)
        for inv in [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6), (2, 8), (4, 4), (2, 2, 4),
                    (2, 2, 2, 2), (2, 10), (3, 6), (2, 2, 6), (2, 12)]
    ]
    + [
        build_group({"perm": gens})
        for gens in [
            [[[1, 2]], [[1, 2, 3]]],  # S3
            [[[1, 2, 3, 4]], [[1, 3]]],  # D4
            [[[1, 2, 3]], [[2, 3, 4]]],  # A4
        ]
    ]
)

CONDUCTORS = [1, 3, 5, 7, 9, 15, 21, 4, 8, 12, 20, 24]

rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=9),
)


@st.composite
def values(draw):
    """A cyclotomic value, zero one time in four."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return ZERO
    m = draw(st.sampled_from(CONDUCTORS))
    terms = draw(
        st.lists(st.tuples(st.integers(min_value=0, max_value=m - 1), rationals), max_size=4)
    )
    return from_terms(m, terms)


@st.composite
def class_function_pairs(draw):
    g = draw(st.sampled_from(GROUPS))
    k = len(g.classes)
    f1, f2 = (
        ClassFunction(g, tuple(draw(st.lists(values(), min_size=k, max_size=k))))
        for _ in range(2)
    )
    return f1, f2


@settings(max_examples=150, deadline=None)
@given(class_function_pairs())
def test_pair_matches_reference(fs):
    f1, f2 = fs
    assert pair(f1, f2) == ref.pair(f1, f2)
    assert pair(f2, f1) == ref.pair(f1, f2).conjugate()


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
def test_qp_irreducibles_match_reference(p):
    for n in range(1, 31):
        assert qp_irreducibles_cyclic(n, p) == ref.qp_irreducibles_cyclic(n, p)
