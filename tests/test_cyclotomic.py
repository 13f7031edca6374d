import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refartin.cyclotomic import (
    NotRationalError,
    ONE,
    ZERO,
    cyclo_sum,
    cyclotomic_polynomial,
    euler_phi,
    frobenius_average,
    from_rational,
    from_terms,
    make_root,
    parse_value,
    split_p,
    unit_powers,
)


# -- strategies -------------------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=6),
)


@st.composite
def cyclotomics(draw, max_conductor=12):
    n = draw(st.integers(min_value=1, max_value=max_conductor))
    nterms = draw(st.integers(min_value=0, max_value=3))
    terms = [
        (draw(st.integers(min_value=0, max_value=2 * n)), draw(rationals))
        for _ in range(nterms)
    ]
    return from_terms(n, terms)


# -- constructors and canonical form ----------------------------------------


def test_make_root_examples():
    assert make_root(4, 2) == from_rational(-1)
    assert make_root(1, 0) == ONE
    z3 = make_root(3, 1)
    assert make_root(6, 1) == -(z3 * z3)
    # stored at the smallest realizing conductor
    assert make_root(6, 1).conductor == 3


def test_conductor_one_values_are_rationals():
    assert from_rational(Fraction(7, 3)).conductor == 1
    assert (make_root(5, 1) - make_root(5, 1)).conductor == 1


def test_canonicalization_battery():
    for n in range(1, 13):
        for d in range(1, 5):
            for k in range(n):
                assert make_root(n * d, k * d) == make_root(n, k)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in list(range(1, 31)) + [36, 40, 105]:
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], n


# -- arithmetic --------------------------------------------------------------


def test_arith_examples():
    z3 = make_root(3, 1)
    assert z3 + z3 * z3 == from_rational(-1)
    assert cyclo_sum(make_root(5, k) for k in range(5)) == ZERO
    assert make_root(4, 1) * make_root(4, 1) == from_rational(-1)


def test_division():
    """Values have no division, inverse or powers; the test references
    invert them (``cyclotomic_reference.inverse``)."""
    x = make_root(12, 7) + from_rational(Fraction(1, 2))
    assert not hasattr(x, "inverse")
    for op in (lambda: x / x, lambda: 1 / x, lambda: x / 2, lambda: x**2):
        with pytest.raises(TypeError):
            op()


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(cyclotomics(), cyclotomics(), st.integers(min_value=1, max_value=30))
def test_conjugate_and_galois_are_ring_homs(a, b, k):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    n = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    if gcd(k, n) != 1:
        return
    # conductors of sums/products divide the lcm, so k acts on everything
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)


def test_conjugate_examples():
    assert make_root(5, 1).conjugate() == make_root(5, 4)
    assert from_rational(Fraction(3, 2)).conjugate() == from_rational(Fraction(3, 2))
    assert make_root(7, 3).conjugate().conjugate() == make_root(7, 3)


def test_galois_examples():
    assert make_root(5, 1).galois(2) == make_root(5, 2)
    assert from_rational(Fraction(7, 3)).galois(5) == from_rational(Fraction(7, 3))
    a = make_root(7, 1)
    assert a.galois(2).galois(3) == a.galois(6)
    with pytest.raises(ValueError):
        make_root(6, 1).galois(3)


# -- Frobenius averaging -----------------------------------------------------


def test_frobenius_average_examples():
    assert frobenius_average(make_root(3, 1), 2) == from_rational(Fraction(-1, 2))
    assert frobenius_average(make_root(3, 1), 7) == make_root(3, 1)
    # order of 2 mod 5 is 4; the orbit sum is the full root sum -1
    assert frobenius_average(make_root(5, 1), 2) == from_rational(Fraction(-1, 4))
    with pytest.raises(ValueError):
        frobenius_average(make_root(10, 1), 5)


@settings(max_examples=40, deadline=None)
@given(cyclotomics(), st.sampled_from([2, 3, 5, 7, 11]))
def test_frobenius_average_idempotent(a, p):
    if gcd(p, a.conductor) != 1:
        return
    avg = frobenius_average(a, p)
    assert frobenius_average(avg, p) == avg
    if a.is_rational():
        assert avg == a


def test_average_rational_iff_galois_stable():
    # orbit of zeta_5 under 2 is everything: rational average
    assert frobenius_average(make_root(5, 1), 2).rational() == Fraction(-1, 4)
    # orbit of zeta_5 under 19 = {1} mod 5: average not rational
    with pytest.raises(NotRationalError):
        frobenius_average(make_root(5, 1), 19).rational()


# -- rational extraction and encoding ----------------------------------------


def test_rational():
    assert from_rational(Fraction(5, 3)).rational() == Fraction(5, 3)
    assert make_root(2, 1).rational() == -1  # zeta_2 canonicalizes to -1
    with pytest.raises(NotRationalError):
        make_root(3, 1).rational()


def test_parse_accepts_arbitrary_terms_printer_is_canonical():
    # zeta_6 expressed at conductor 6 with a large exponent
    v = parse_value({"n": 6, "terms": [[7, "1"]]})
    assert v == make_root(6, 1)
    assert v.conductor == 3
    assert parse_value("3/2") == from_rational(Fraction(3, 2))
    assert parse_value(-2) == from_rational(-2)


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_encode_round_trip(a):
    assert parse_value(json.loads(json.dumps(a.encode()))) == a


def _fraction_rendering(a):
    """encode() and str() as rendered from one Fraction per coordinate."""
    coeffs = a.coeffs
    encoded = {"n": a.conductor, "terms": [[i, str(c)] for i, c in enumerate(coeffs) if c]}
    if a.conductor == 1:
        return encoded, str(coeffs[0])
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            mono = "1" if i == 0 else f"z{a.conductor}" + (f"^{i}" if i > 1 else "")
            parts.append(f"{c}*{mono}" if i else str(c))
    return encoded, " + ".join(parts) if parts else "0"


@settings(max_examples=200, deadline=None)
@given(st.one_of(cyclotomics(max_conductor=40), st.builds(from_rational, rationals)))
@example(ZERO)
@example(from_rational(Fraction(-7, 3)))
@example(from_rational(-4))
@example(from_terms(5, [(1, Fraction(-3, 4)), (2, Fraction(1, 2)), (3, 5)]))
@example(from_terms(12, [(1, Fraction(-5, 6)), (2, Fraction(7, 4)), (0, -2)]))
def test_printing_matches_the_fraction_rendering(a):
    assert (a.encode(), str(a)) == _fraction_rendering(a)


def test_printing_builds_no_fraction(monkeypatch):
    import refartin.cyclotomic as cyclotomic

    values = [
        from_terms(12, [(1, Fraction(-5, 6)), (3, Fraction(7, 4))]),
        make_root(7, 3),
        make_root(5, 1) * Fraction(-2, 3),
        from_terms(9, [(1, 2), (4, -6)]),
    ]

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cyclotomic, "Fraction", refuse)
    assert [v.den for v in values] == [12, 1, 3, 1]
    assert [str(v) for v in values] == ["-5/6*z12 + 7/4*z12^3", "1*z7^3", "-2/3*z5", "2*z9 + -6*z9^4"]
    assert values[0].encode() == {"n": 12, "terms": [[1, "-5/6"], [3, "7/4"]]}
    assert values[2].encode() == {"n": 5, "terms": [[1, "-2/3"]]}


def test_power_sums_closed_form():
    # independent check: sum_{r} r zeta^r = n/(zeta - 1) for zeta != 1
    for n in [2, 3, 4, 5, 6, 8, 9, 12]:
        z = make_root(n, 1)
        total = cyclo_sum(make_root(n, r) * r for r in range(n))
        assert total * (z - ONE) == from_rational(n)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-60, max_value=300), st.integers(min_value=1, max_value=300))
def test_unit_powers_give_the_order_and_the_discrete_log(a, n):
    if gcd(a, n) != 1:
        with pytest.raises(ValueError, match="not a unit"):
            unit_powers(a, n)
        return
    powers = unit_powers(a, n)
    r = len(powers)
    assert pow(a, r, n) == 1 % n
    assert all(pow(a, k, n) != 1 % n for k in range(1, r))  # r is the least order
    for k in range(2 * r):
        assert powers.index(pow(a, k, n)) == k % r  # index is the discrete log


def test_unit_powers_examples():
    assert unit_powers(2, 7) == [1, 2, 4]
    assert unit_powers(3, 7) == [1, 3, 2, 6, 4, 5]
    assert unit_powers(5, 1) == [0]
    with pytest.raises(ValueError):
        unit_powers(4, 6)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 1009]),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-10**6, max_value=10**6).filter(bool),
)
def test_split_p_is_the_p_adic_split(p, e, c):
    n = p**e * c
    v, m = split_p(n, p)
    assert n == p**v * m and m % p != 0
    assert v >= e and (v == e) == (c % p != 0)


@settings(max_examples=60, deadline=None)
@given(cyclotomics(max_conductor=20))
def test_canonical_conductor_is_minimal(a):
    # independent brute-force check: a lies in no proper cyclotomic subfield,
    # testing the full Galois subgroup rather than a generating set
    from refartin.cyclotomic import divisors

    n = a.conductor
    for m in divisors(n)[:-1]:
        if m % 4 == 2:
            continue
        fixed = all(
            a.galois(k) == a
            for k in range(1, n + 1)
            if gcd(k, n) == 1 and k % m == 1 % m
        )
        assert not fixed, (a, m)


@settings(max_examples=40, deadline=None)
@given(st.lists(cyclotomics(), max_size=6))
def test_cyclo_sum_matches_fold(values):
    total = ZERO
    for v in values:
        total = total + v
    assert cyclo_sum(values) == total


@settings(max_examples=40, deadline=None)
@given(cyclotomics(), st.sampled_from([2, 3, 5, 7]))
def test_average_rational_iff_orbit_galois_stable(a, p):
    if gcd(p, a.conductor) != 1:
        return
    avg = frobenius_average(a, p)
    n = avg.conductor
    stable = all(
        avg.galois(k) == avg for k in range(1, n + 1) if gcd(k, n) == 1
    )
    assert avg.is_rational() == stable
