"""The one-reduction pairing, the integer-built Q_p-irreducible characters and
the subgroup lattice against the earlier implementations in
``grouptheory_reference.py``.

Class functions are drawn on cyclic and abelian groups of order <= 24 and, so
that classes of more than one element occur, on S3, D4 and A4.  Their values
sit at mixed conductors (1, odd, and multiples of 4), carry denominators, and
some classes are zero.  Results must be equal in canonical form.  Linear
combinations (``combine``) are checked value by value against the Fraction
kernel of ``cyclotomic_reference.py``.

The lattice is compared on cyclic groups of order 1-48, on S3, D4, Q8, A4, S4
and on eight abelian groups of order 8-48.  Every subgroup and quotient table
there is built without an axiom check; each must give the same inverses and
classes as the checked constructor, and each inclusion and projection must
pass the homomorphism check.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclotomic_reference as cref
import grouptheory_reference as ref
from refartin.conductor import qp_irreducibles_cyclic
from refartin.cyclotomic import ZERO, from_terms, make_root
from refartin.grouptheory import (
    ClassFunction,
    GroupValidationError,
    abelian_group,
    all_subgroups,
    build_group,
    combine,
    cyclic_group,
    group_from_table,
    hom,
    pair,
    pushforward,
    quotient,
)

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


@st.composite
def combinations(draw):
    """A group and 0 to 4 class functions on it, each with a rational
    coefficient (zero and negative ones included)."""
    g = draw(st.sampled_from(GROUPS))
    k = len(g.classes)
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        f = ClassFunction(g, tuple(draw(st.lists(values(), min_size=k, max_size=k))))
        terms.append((f, draw(st.one_of(st.integers(min_value=-3, max_value=3), rationals))))
    return g, terms


@settings(max_examples=150, deadline=None)
@given(combinations())
def test_combine_matches_valuewise_reference(case):
    """Each value against a fold of the Fraction kernel's products and sums."""
    g, terms = case
    out = combine(g, terms)
    for k, v in enumerate(out.values):
        expected = (1, (Fraction(0),))
        for f, c in terms:
            x = f.values[k]
            expected = cref.add(expected, cref.mul((1, (Fraction(c),)), (x.conductor, x.coeffs)))
        assert (v.conductor, v.coeffs) == expected
    if len(terms) == 2:
        (f1, _), (f2, _) = terms
        assert (f1 + f2).values == tuple([a + b for a, b in zip(f1.values, f2.values)])
        assert (f1 - f2).values == tuple([a - b for a, b in zip(f1.values, f2.values)])


def test_combine_refuses_another_group():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    f = ClassFunction(c3, (ZERO,) * 3)
    with pytest.raises(GroupValidationError, match="different groups"):
        combine(c2, [(f, 1)])
    assert combine(c2, []) == ClassFunction(c2, (ZERO, ZERO))


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 11])
def test_qp_irreducibles_match_reference(p):
    # p = 2, 3, 5 divide some n here, where non-units have shorter orbits
    for n in range(1, 49):
        assert qp_irreducibles_cyclic(n, p) == ref.qp_irreducibles_cyclic(n, p)


LATTICE_SPECS = {
    "s3": {"perm": [[[1, 2]], [[1, 2, 3]]]},
    "d4": {"perm": [[[1, 2, 3, 4]], [[1, 3]]]},
    "q8": {"perm": [[[1, 2, 3, 4], [5, 6, 7, 8]], [[1, 5, 3, 7], [2, 8, 4, 6]]]},
    "a4": {"perm": [[[1, 2, 3]], [[1, 2], [3, 4]]]},
    "s4": {"perm": [[[1, 2, 3, 4]], [[1, 2]]]},
    **{
        "ab" + "x".join(map(str, inv)): {"abelian": list(inv)}
        for inv in [(2, 2, 2), (4, 4), (2, 2, 2, 2), (3, 3), (3, 9), (2, 12), (2, 2, 6), (4, 12)]
    },
    **{f"c{n}": {"cyclic": n} for n in range(1, 49)},
}


def _assert_derived_like_checked(g):
    checked = group_from_table(g.table)
    assert (g.inverse, g.classes, g.class_of) == (
        checked.inverse, checked.classes, checked.class_of
    )


def _random_cf(g, rng):
    return ClassFunction(
        g, tuple(make_root(12, rng.randrange(12)) * rng.randrange(-2, 3) for _ in g.classes)
    )


@pytest.mark.parametrize("name", LATTICE_SPECS)
def test_subgroup_lattice_matches_reference(name):
    rng = random.Random(name)
    g = build_group(LATTICE_SPECS[name])
    _assert_derived_like_checked(g)
    subs = all_subgroups(g)
    assert [s.members for s in subs] == ref.all_subgroup_members(g)
    chi_g = _random_cf(g, rng)
    for s in subs:
        _assert_derived_like_checked(s.group)
        assert hom(s.group, g, s.inclusion.mapping) == s.inclusion
        chi = _random_cf(s.group, rng)
        assert pushforward(s.inclusion, chi) == ref.pushforward(s.inclusion, chi)
        assert s.is_normal() == ref.is_normal(s)
        if s.is_normal():
            q, proj = quotient(g, s)
            _assert_derived_like_checked(q)
            assert hom(g, q, proj.mapping) == proj
            assert pushforward(proj, chi_g) == ref.pushforward(proj, chi_g)
