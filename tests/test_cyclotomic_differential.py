"""The integer-coordinate cyclotomic core against the earlier Fraction kernel
kept in ``cyclotomic_reference.py``, and its products and inverses against
sympy.

Operands are drawn at divisors of one conductor n <= 60 (conductors
congruent to 2 mod 4 included), so every sum and product stays at most at n.
Each result must be in canonical form and equal the reference's; weighted
sums are checked against a fold of the reference's additions, and the
hermitian sum (zero entries, a final denominator) against a fold of its
products with conjugates.  ``from_terms`` is also checked on mixed int and
Fraction coefficients whose exponents repeat, are negative or pass n and
partly cancel.  A parametrized case carries the descent past 60, to conductors with
q^2 | n and with q coprime to n/q for q = 3, 5, 7.  The reduction modulo
Phi_n is checked on its own against dense long division up to n = 800.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclotomic_reference as ref
from refartin._poly import pdivmod
from refartin.cyclotomic import (
    ZERO,
    Cyclotomic,
    _mod_phi,
    cyclo_sum,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    frobenius_average,
    from_terms,
    hermitian_sum,
    make_root,
    prime_factors,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=9),
)


def pair(a: Cyclotomic):
    return a.conductor, a.coeffs


@st.composite
def terms_at(draw, m):
    """Terms sum c * zeta_m^k with arbitrary (also negative) exponents."""
    return draw(
        st.lists(
            st.tuples(st.integers(min_value=-3 * m, max_value=3 * m), rationals),
            max_size=5,
        )
    )


@st.composite
def operands(draw, count=2):
    """A conductor n <= 60 and ``count`` (m, terms) with m dividing n."""
    n = draw(st.integers(min_value=1, max_value=60))
    out = []
    for _ in range(count):
        m = draw(st.sampled_from(divisors(n)))
        out.append((m, draw(terms_at(m))))
    return n, out


def build(m, terms):
    a = from_terms(m, terms)
    assert pair(a) == ref.from_terms(m, terms)
    return a


@settings(max_examples=300, deadline=None)
@given(operands(count=3))
def test_from_terms_sums_and_products_match_reference(ops):
    _, ((ma, ta), (mb, tb), (mc, tc)) = ops
    a, b, c = build(ma, ta), build(mb, tb), build(mc, tc)
    ra, rb, rc = pair(a), pair(b), pair(c)
    assert pair(a + b) == ref.add(ra, rb)
    assert pair(a - b) == ref.add(ra, ref.mul((1, (Fraction(-1),)), rb))
    assert pair(a * b) == ref.mul(ra, rb)
    assert pair(a * b + c) == ref.add(ref.mul(ra, rb), rc)
    assert pair(cyclo_sum([a, b, c])) == ref.add(ref.add(ra, rb), rc)


@settings(max_examples=300, deadline=None)
@given(
    operands(count=4),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=4),
)
def test_weighted_cyclo_sum_matches_the_fold(ops, weights, den, size):
    """Zero and negative weights, den >= 1, and 0 to 4 terms (a single
    nonzero term is only rescaled, so it takes its own path)."""
    values = [build(m, terms) for m, terms in ops[1][:size]]
    weights = weights[:size]
    refs = [pair(v) for v in values]
    assert pair(cyclo_sum(values, weights, den)) == ref.weighted_sum(refs, weights, den)
    assert pair(cyclo_sum(values, den=den)) == ref.weighted_sum(refs, [1] * size, den)


@st.composite
def mixed_terms(draw):
    """A conductor n <= 40 and terms with int and Fraction coefficients whose
    exponents repeat, are negative or reach past n, some of them cancelling
    an earlier term at an exponent shifted by a multiple of n."""
    n = draw(st.integers(min_value=1, max_value=40))
    coeff = st.one_of(st.integers(min_value=-6, max_value=6), rationals)
    terms = draw(st.lists(st.tuples(st.integers(min_value=-3 * n, max_value=3 * n), coeff), max_size=5))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(terms) - 1), max_size=3)) if terms else []
    shifts = st.integers(min_value=-2, max_value=2)
    terms += [(terms[i][0] + draw(shifts) * n, -terms[i][1]) for i in picks]
    return n, draw(st.permutations(terms))


@settings(max_examples=300, deadline=None)
@given(mixed_terms())
@example((5, [(0, 1), (1, Fraction(1, 3)), (2, Fraction(-1, 4))]))
@example((7, [(1, Fraction(1, 2)), (8, Fraction(-1, 2)), (-6, 3), (15, -3)]))
@example((12, [(13, 2), (1, Fraction(-3, 2)), (-11, Fraction(5, 6)), (0, 0)]))
def test_from_terms_matches_reference_on_mixed_and_cancelling_terms(case):
    n, terms = case
    assert pair(from_terms(n, terms)) == ref.from_terms(n, terms)
    assert pair(from_terms(n, iter(terms))) == ref.from_terms(n, terms)


@settings(max_examples=200, deadline=None)
@given(
    operands(count=3),
    st.lists(st.integers(min_value=-3, max_value=5), min_size=3, max_size=3),
    st.integers(min_value=1, max_value=12),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
@example((12, [(4, [(1, 1)]), (3, [(1, Fraction(1, 2))]), (12, [(5, 2)])]), [1, 2, 3], 6,
         [False, True, False, False, False, True])
def test_hermitian_sum_matches_the_reference_fold(ops, weights, den, zeros):
    """Zero entries on either side and den >= 1, against the reference kernel's
    mul, galois(., -1) and weighted_sum; b is a reversed copy of the operands."""
    values = [build(m, terms) for m, terms in ops[1]]
    a = [ZERO if z else v for z, v in zip(zeros[:3], values)]
    b = [ZERO if z else v for z, v in zip(zeros[3:], values[::-1])]
    products = [ref.mul(pair(x), ref.galois(pair(y), -1)) for x, y in zip(a, b)]
    assert pair(hermitian_sum(a, b, weights, den)) == ref.weighted_sum(products, weights, den)
    assert pair(hermitian_sum(a, b, weights)) == ref.weighted_sum(products, weights, 1)
    assert hermitian_sum([], [], [], den) == hermitian_sum([ZERO], a[:1], [1], den) == ZERO


@settings(max_examples=200, deadline=None)
@given(operands(count=1), st.integers(min_value=1, max_value=200))
def test_galois_and_frobenius_average_match_reference(ops, k):
    _, ((m, terms),) = ops
    a = build(m, terms)
    n = a.conductor
    unit = next(u for u in range(k, k + 2 * n + 1) if gcd(u, n) == 1)
    assert pair(a.galois(unit)) == ref.galois(pair(a), unit)
    assert pair(frobenius_average(a, unit)) == ref.frobenius_average(pair(a), unit)


@settings(max_examples=150, deadline=None)
@given(operands(count=2))
def test_inverse_is_canonical_and_inverts(ops):
    _, ((ma, ta), (mb, tb)) = ops
    a = build(ma, ta) * build(mb, tb) + 1
    if not a:
        return
    inv = ref.inverse(a)
    assert pair(inv) == ref.canonical(inv.conductor, inv.coeffs)
    assert ref.mul(pair(a), pair(inv)) == (1, (Fraction(1),))


@settings(max_examples=150, deadline=None)
@given(operands(count=1), st.integers(min_value=1, max_value=6))
def test_values_from_subfields_descend(ops, extra):
    """zeta_m^k written at conductor m * extra lands where the reference does."""
    _, ((m, terms),) = ops
    big = m * extra
    lifted = [(k * extra, c) for k, c in terms]
    assert pair(from_terms(big, lifted)) == ref.from_terms(big, lifted) == pair(build(m, terms))


@pytest.mark.parametrize("n", [63, 84, 90, 105, 120, 180, 210])
def test_values_from_maximal_subfields_descend_past_60(n):
    """Past the Hypothesis range: for each prime q of n, a value of Q(zeta_n/q)
    written at conductor n lands where the reference puts it, and the same
    value plus one term outside Q(zeta_n/q) does not descend there."""
    rng = random.Random(n)
    for q in prime_factors(n):
        m = n // q
        terms = [(rng.randrange(-m, 2 * m), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for _ in range(6)]
        lifted = [(k * q, c) for k, c in terms]
        a = from_terms(n, lifted)
        assert pair(a) == ref.from_terms(n, lifted) == pair(from_terms(m, terms)), (n, q)
        if q == 2 and m % 2:  # Q(zeta_m) = Q(zeta_n)
            continue
        outside = lifted + [(1, Fraction(1, 2))]
        b = from_terms(n, outside)
        assert pair(b) == ref.from_terms(n, outside), (n, q)
        assert m % b.conductor, (n, q)


@pytest.mark.parametrize(
    "conductors",
    [range(1, 121), (198, 199, 200, 210), (398, 597, 796, 800)],
    ids=["up-to-120", "near-200", "up-to-800"],
)
def test_mod_phi_matches_long_division(conductors):
    """The reduction kernel against plain dense division by Phi_n, on seeded
    random integer polynomials shorter than phi(n), of length n, and longer
    than 2n, so the fold of X^n = 1 and every term of Phi_n are exercised."""
    rng = random.Random(2011)
    for n in conductors:
        d = euler_phi(n)
        for length in (n // 2 + 1, n, 2 * n + 3):
            v = [rng.randint(-99, 99) for _ in range(length)]
            _, rem = pdivmod(v, cyclotomic_polynomial(n))
            assert _mod_phi(n, list(v)) == list(rem) + [0] * (d - len(rem)), (n, length)


def test_roots_of_unity_match_reference():
    for n in range(1, 61):
        for k in range(-n, n + 2):
            assert pair(make_root(n, k)) == ref.from_terms(n, [(k, 1)]), (n, k)


@pytest.mark.parametrize("n", [5, 8, 12, 15, 20, 21, 36, 60])
def test_products_and_inverses_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")
    samples = [
        [(0, 1), (1, 2)],
        [(1, Fraction(3, 2)), (3, -1), (n - 1, Fraction(1, 5))],
        [(0, 7), (2, -3), (5, Fraction(2, 3)), (n // 2, 1)],
    ]

    def to_sympy(terms):
        expr = sum(sympy.Rational(str(c)) * x ** (k % n) for k, c in terms)
        return sympy.Poly(expr, x, domain="QQ")

    def from_sympy(poly):
        coeffs = poly.all_coeffs()[::-1]
        return from_terms(n, [(i, Fraction(int(c.p), int(c.q))) for i, c in enumerate(coeffs)])

    for terms in samples:
        a = from_terms(n, terms)
        if not a:
            continue
        pa = to_sympy(terms)
        assert ref.inverse(a) == from_sympy(sympy.invert(pa, phi))
        for other in samples:
            assert a * from_terms(n, other) == from_sympy((pa * to_sympy(other)).rem(phi))
