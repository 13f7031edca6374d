"""The shared exact kernels: primality, closure, integer polynomials and the
fraction-free determinant."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refartin._linalg import bareiss_det
from refartin._poly import padd, pcompose, pdivmod, pmod, pmul, ptrim
from refartin.cyclotomic import closure, is_prime
from refartin.grouptheory import cyclic_group
from refartin.oracle import build_monogenic_order
from refartin.ramification import build_ramification

PSI_13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(20_000) if is_prime(n)] == list(sympy.primerange(0, 20_000))


def test_is_prime_rejects_strong_pseudoprimes():
    # 3825123056546413051 is a strong pseudoprime to the first nine prime bases
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and is_prime(2**79 - 67)


def test_is_prime_range_limit():
    with pytest.raises(ValueError):
        is_prime(PSI_13)


def test_closure_generates_units_and_cyclic_subgroups():
    assert closure([2], lambda x, g: x * g % 11, 1) == set(range(1, 11))
    assert closure([3, 5], lambda x, g: x * g % 16, 1) == {1, 3, 5, 7, 9, 11, 13, 15}
    c12 = cyclic_group(12)
    assert closure([8], c12.mul, 0) == {0, 4, 8}


def test_large_residue_characteristic():
    r = build_ramification(cyclic_group(2), [[0, 1]], 10**20 + 39, (1, 1))
    assert r.n == 2


def test_degree_one_monogenic_order_at_large_prime():
    p = 10_000_019
    order = build_monogenic_order(p, [-p, 1], [[0, 1]])
    assert order.degree == 1 and order.group.order == 1


int_coeffs = st.lists(st.integers(-20, 20), max_size=7)


@settings(max_examples=200, deadline=None)
@given(int_coeffs, int_coeffs, int_coeffs)
def test_integer_division_by_monic_stays_integer(a, b, f_low):
    def frac(p):
        return tuple(Fraction(c) for c in p)

    f = tuple(f_low) + (1,)
    q, r = pdivmod(a, f)
    assert all(type(c) is int for c in q + r)
    assert padd(pmul(q, f), r) == ptrim(a) and len(r) < len(f)
    assert (q, r) == pdivmod(frac(a), frac(f))
    comp = pmod(pcompose(a, b), f)
    assert all(type(c) is int for c in comp)
    assert comp == pmod(pcompose(frac(a), frac(b)), frac(f))


@given(int_coeffs, st.integers(-9, 9).filter(lambda c: c not in (0, 1)), int_coeffs)
def test_integer_division_by_non_monic_raises(a, lead, f_low):
    with pytest.raises(ArithmeticError):
        pdivmod(a, tuple(f_low) + (lead,))


square_int_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(square_int_matrices)
@example([])
@example([[0, 1], [1, 0]])  # zero leading pivot
@example([[0, 0, 1], [0, 2, 3], [4, 5, 6]])  # two zero pivots in a row
@example([[1, 2], [2, 4]])  # singular
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])  # a zero column
def test_bareiss_det_over_z_matches_sympy_up_to_sign(mat):
    sympy = pytest.importorskip("sympy")
    det = bareiss_det(mat, lambda a, b, c, d, prev: (a * d - b * c) // prev, 1)
    assert type(det) is int
    assert abs(det) == abs(sympy.Matrix(len(mat), len(mat), sum(mat, [])).det())
