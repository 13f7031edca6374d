"""The shared exact kernels: primality, closure, integer polynomials, and the
reference fraction-free determinant, field kernel and integer kernel."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_reference import bareiss_det, field_kernel, int_step, integer_kernel
from refartin._poly import padd, pcompose, pdivmod, pmod, pmul, ptrim
from refartin.cyclotomic import ONE, closure, from_terms, is_prime
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
    det = bareiss_det(mat, int_step, 1)
    assert type(det) is int
    assert abs(det) == abs(sympy.Matrix(len(mat), len(mat), sum(mat, [])).det())


fractions = st.fractions(-4, 4, max_denominator=3)
cyclotomics = st.builds(
    from_terms,
    st.sampled_from([3, 4, 5]),
    st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), max_size=2),
)


@st.composite
def matrices(draw, entries):
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    # zeros often enough for rank deficiency and empty pivot columns
    entry = st.one_of(st.just(0), entries)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(fractions).map(lambda m: (m, Fraction(1))),
                 matrices(cyclotomics).map(lambda m: ([[ONE * x for x in r] for r in m], ONE))))
@example(([[0, 2, 0], [0, 0, 3]], Fraction(1)))  # no pivot column to clear
@example(([[1, 2, 3], [2, 4, 7]], Fraction(1)))  # a pivot column to clear
def test_reference_field_kernel_is_the_rref_kernel_basis(case):
    """The reference kernel is the basis read off the reduced row echelon
    form: vectors in the kernel, each ending in a one at its own free column
    where the others vanish, and for rational matrices sympy's nullspace."""
    mat, one = case
    zero = one * 0
    basis = field_kernel([r[:] for r in mat], one)
    assert all(not sum((a * x for a, x in zip(row, v)), zero) for v in basis for row in mat)
    free = [max(c for c, x in enumerate(v) if x) for v in basis]
    assert free == sorted(set(free))
    assert all(v[c] == (one if i == k else zero) for i, v in enumerate(basis) for k, c in enumerate(free))
    if mat and one == Fraction(1):
        sympy = pytest.importorskip("sympy")
        expected = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in mat]).nullspace()
        assert basis == [[Fraction(int(x.p), int(x.q)) for x in v] for v in expected]


@settings(max_examples=200, deadline=None)
@given(matrices(st.integers(-6, 6)))
@example([[2, 4, 6]])  # x = -2y - 3z: the basis must not be scaled by 2
@example([[0, 0]])
def test_reference_integer_kernel_is_a_saturated_kernel_basis(mat):
    """Every vector is in the kernel, there are ncols - rank of them (sympy),
    and their maximal minors have gcd 1, so they span every integer
    solution."""
    sympy = pytest.importorskip("sympy")
    if not mat:
        return
    ncols = len(mat[0])
    basis = integer_kernel(mat, ncols)
    assert all(not sum(a * x for a, x in zip(row, v)) for v in basis for row in mat)
    assert len(basis) == ncols - sympy.Matrix(mat).rank()
    minors = [bareiss_det([[v[c] for c in cols] for v in basis], int_step, 1)
              for cols in itertools.combinations(range(ncols), len(basis))]
    assert math.gcd(*minors) == 1
