import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import presultant, val_p
from refartin.conductor import conductor, qp_irreducibles_cyclic, transport_to_cyclic
from refartin.fixtures import (
    cyclotomic_tower_data,
    cyclotomic_tower_order,
    quad_order,
    real_cubic_order7,
)
from refartin.grouptheory import generators, standard_characters
import refartin.oracle as oracle
from refartin._linalg import bareiss_det
from refartin._poly import pcompose, pmod, ptrim
from refartin.oracle import (
    OracleError,
    TameModel,
    build_monogenic_order,
    filtration_from_monogenic,
    oracle_monogenic_clin,
    oracle_tame_clin,
    phi_roots_mod_p,
    regular_action,
    tame_character_from_monogenic,
    valuation_monogenic,
)
from refartin.ramification import different_valuation, upper_jumps


# -- tame model -------------------------------------------------------------------


def test_tame_oracle_single_exponents():
    for n in range(1, 13):
        for i in range(n):
            assert oracle_tame_clin(n, [i]) == Fraction((n - i) % n, n)


def test_tame_oracle_trivial_action():
    for n in (1, 2, 5, 9):
        assert oracle_tame_clin(n, [0]) == 0


def test_tame_oracle_additive():
    assert oracle_tame_clin(6, [1, 4]) == oracle_tame_clin(6, [1]) + oracle_tame_clin(6, [4])
    assert oracle_tame_clin(4, [1, 2, 3]) == Fraction(3 + 2 + 1, 4)
    assert oracle_tame_clin(5, [2, 2]) == 2 * Fraction(3, 5)


def test_tame_model_rank_check():
    m = TameModel(4)
    assert len(m.invariant_basis([1, 3])) == 2


# -- monogenic model ----------------------------------------------------------------


def test_monogenic_validation():
    with pytest.raises(OracleError, match="Eisenstein"):
        build_monogenic_order(2, [-3, 0, 1], [[0, 1], [0, -1]])  # x^2 - 3 at p=2
    with pytest.raises(OracleError, match="Eisenstein"):
        build_monogenic_order(2, [-4, 0, 1], [[0, 1], [0, -1]])  # 4 divisible by p^2
    with pytest.raises(OracleError, match="automorphisms"):
        # x^3 - 7 at p=7 admits no integral cubic Galois action: wrong count
        build_monogenic_order(7, [-7, 0, 0, 1], [[0, 1]])
    with pytest.raises(OracleError, match="root of f"):
        build_monogenic_order(2, [-2, 0, 1], [[0, 1], [1, 1]])
    with pytest.raises(OracleError, match="not prime"):
        build_monogenic_order(4, [-4, 0, 1], [[0, 1], [0, -1]])
    with pytest.raises(OracleError, match="not distinct"):
        build_monogenic_order(2, [-2, 0, 1], [[0, 1], [0, 1]])
    with pytest.raises(OracleError, match="the first Galois map must be the identity"):
        build_monogenic_order(2, [-2, 0, 1], [[0, -1], [0, 1]])


TOWERS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]


@pytest.mark.parametrize(
    "order",
    [quad_order(), real_cubic_order7()] + [cyclotomic_tower_order(p, k) for p, k in TOWERS],
    ids=["quad", "cubic7"] + [f"phi{p**k}" for p, k in TOWERS],
)
def test_galois_table_is_composition(order):
    """table[a][b] is the map x -> g_b(g_a(x)), composed independently over
    Z[x] and reduced mod f."""
    index = {g: i for i, g in enumerate(order.galois)}
    for a, ga in enumerate(order.galois):
        for b, gb in enumerate(order.galois):
            comp = pmod(pcompose(gb, ga), order.f)
            assert order.group.table[a][b] == index[comp + (0,) * (order.degree - len(comp))]


def test_quad_order_clin_values():
    o = quad_order()
    assert oracle_monogenic_clin(o, [[[1]], [[-1]]]) == Fraction(1, 2)
    assert oracle_monogenic_clin(o, regular_action(o.group)) == Fraction(3, 2)
    assert oracle_monogenic_clin(o, [[[1]], [[1]]]) == 0


def test_clin_is_not_an_isogeny_invariant():
    # the regular lattice and the sum of its characters are isogenous but
    # have different linear conductors
    o = quad_order()
    split = oracle_monogenic_clin(o, [[[1]], [[1]]]) + oracle_monogenic_clin(o, [[[1]], [[-1]]])
    assert split == Fraction(1, 2)
    assert oracle_monogenic_clin(o, regular_action(o.group)) == Fraction(3, 2) != split


def test_monogenic_representation_validation():
    o = quad_order()
    with pytest.raises(OracleError, match="identity"):
        oracle_monogenic_clin(o, [[[-1]], [[1]]])
    with pytest.raises(OracleError, match="representation"):
        oracle_monogenic_clin(o, [[[1]], [[2]]])


@pytest.mark.parametrize("p, k, other", [(2, 3, 3), (5, 1, 2)], ids=["phi8", "phi5"])
def test_representation_check_reaches_every_element(p, k, other):
    """The representation is checked on generators only, yet a wrong matrix
    for an element that is not a generator is refused.  On phi8 (C2 x C2)
    that element is the product of the two generators; on phi5 (C4) it is
    not a product of two generators."""
    order = cyclotomic_tower_order(p, k)
    gens = generators(order.group.table)
    assert other not in gens
    action = regular_action(order.group)
    action[other] = action[gens[0]]
    with pytest.raises(OracleError, match="representation"):
        oracle_monogenic_clin(order, action)


def test_rank_zero_module_has_zero_clin():
    assert TameModel(5).clin([]) == 0
    assert oracle_tame_clin(1, []) == 0
    assert oracle_monogenic_clin(quad_order(), [[], []]) == 0


@pytest.mark.parametrize(
    "order",
    [cyclotomic_tower_order(2, 2), cyclotomic_tower_order(2, 3), cyclotomic_tower_order(3, 2),
     cyclotomic_tower_order(5, 1), cyclotomic_tower_order(7, 1), real_cubic_order7(),
     quad_order()],
    ids=["phi4", "phi8", "phi9", "phi5", "phi7", "cubic7", "quad"],
)
def test_norm_determinant_is_the_norm_of_the_O_L_determinant(monkeypatch, order):
    """|det_Z phi| = |N_{L/Q}(det_{O_L} phi)| = |Res(f, det_{O_L} phi)|, with
    det_{O_L} phi taken independently over Q[x] and reduced mod f; the
    oracle's value is its nu_L over e."""
    captured = []

    def spy(mat, step, one):
        captured.append((mat, bareiss_det(mat, step, one)))
        return captured[-1][1]

    e, g = order.degree, order.group.order
    modules = [regular_action(order.group), [[[1]]] * g]
    if g == 2:
        modules.append([[[1]], [[-1]]])
    f = tuple(Fraction(c) for c in order.f)
    for action in modules:
        # valuation_monogenic below takes a determinant too: spy on the
        # oracle's only
        with monkeypatch.context() as m:
            m.setattr(oracle, "bareiss_det", spy)
            clin = oracle_monogenic_clin(order, action)
        (rows, det_z), = captured
        captured.clear()
        # rows k e (b = 0) of the norm matrix hold the kernel vector v_k itself
        d = len(rows) // e
        mat = [[ptrim([Fraction(c) for c in rows[k * e][j * e:(j + 1) * e]])
                for k in range(d)] for j in range(d)]
        det_ol = pmod(bareiss_det(mat, oracle._poly_step, (Fraction(1),)), f)
        assert abs(det_z) == abs(presultant(f, det_ol)) != 0
        assert clin == Fraction(valuation_monogenic(order, det_ol), e)


# -- valuations ------------------------------------------------------------------------


def test_valuation_examples():
    o = quad_order()
    assert valuation_monogenic(o, [0, 1]) == 1  # sqrt(2)
    assert valuation_monogenic(o, [2]) == 2
    assert valuation_monogenic(o, [1, 1]) == 0  # norm(1 + sqrt2) = -1
    assert valuation_monogenic(o, [0]) is math.inf
    assert valuation_monogenic(o, [Fraction(1, 2)]) == -2
    assert valuation_monogenic(o, [-2, 1, 1]) == 1  # f + x


VALUATION_TOWERS = [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)]


@pytest.mark.parametrize(
    "order",
    [quad_order(), real_cubic_order7()] + [cyclotomic_tower_order(p, k) for p, k in VALUATION_TOWERS],
    ids=["quad", "cubic7"] + [f"phi{p**k}" for p, k in VALUATION_TOWERS],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_valuation_matches_the_reference_resultant(order, data):
    """nu_L(y) = nu_p(Res(f, y)) for integer and rational y of length up to
    2 deg f, the resultant taken by the reference Euclidean kernel over Q."""
    p, e = order.p, order.degree
    coeff = st.one_of(st.integers(-60, 60), st.fractions(-60, 60, max_denominator=2 * p * p))
    y = data.draw(st.lists(coeff, max_size=2 * e))
    res = presultant(tuple(Fraction(c) for c in order.f), tuple(Fraction(c) for c in y))
    if res:
        assert valuation_monogenic(order, y) == val_p(res, p)
    else:
        assert valuation_monogenic(order, y) is math.inf


def test_resultants_match_sympy():
    sympy = pytest.importorskip("sympy")

    x = sympy.symbols("x")
    cases = [
        ((-2, 0, 1), (0, 1)),
        ((7, 14, 7, 1), (0, 3, 1)),
        ((3, 3, 1), (-3, -2)),
        ((2, 2, 1), (Fraction(1, 2), 0, 3)),
    ]
    for f, g in cases:
        ours = presultant(tuple(Fraction(c) for c in f), tuple(Fraction(c) for c in g))
        pf = sum(sympy.Rational(c) * x**i for i, c in enumerate(f))
        pg = sum(sympy.Rational(c) * x**i for i, c in enumerate(g))
        assert sympy.Rational(ours) == sympy.resultant(pf, pg, x)


def test_different_via_derivative_matches_filtration_sum():
    # nu_L(f'(x)) equals the sum over i of (|Gamma_i| - 1)
    for order in [quad_order(), cyclotomic_tower_order(2, 2),
                  cyclotomic_tower_order(3, 2), real_cubic_order7()]:
        deriv = [i * c for i, c in enumerate(order.f)][1:]
        data = filtration_from_monogenic(order)
        assert valuation_monogenic(order, deriv) == different_valuation(data)


# -- filtration extraction ----------------------------------------------------------


def test_filtration_quad():
    data = filtration_from_monogenic(quad_order())
    assert [len(m) for m in data.filtration] == [2, 2, 2]
    assert data.n == 1 and data.p == 2


def test_filtration_cyclotomic_towers():
    d22 = cyclotomic_tower_data(2, 2)
    assert [len(m) for m in d22.filtration] == [2, 2]
    d31 = cyclotomic_tower_data(3, 1)
    assert [len(m) for m in d31.filtration] == [2]
    assert d31.n == 2
    d32 = cyclotomic_tower_data(3, 2)
    assert [len(m) for m in d32.filtration] == [6, 3, 3]
    # integer upper jumps (abelian over Q_p)
    for d in (d22, d31, d32):
        assert all(j.denominator == 1 for j in upper_jumps(d))


def test_filtration_tame_cubic():
    data = filtration_from_monogenic(real_cubic_order7())
    assert [len(m) for m in data.filtration] == [3]
    assert data.n == 3 and data.wild_order == 1


# -- tame characters -------------------------------------------------------------------


def test_tame_character_sqrt3_at_p3():
    o = build_monogenic_order(3, [-3, 0, 1], [[0, 1], [0, -1]])
    tc = tame_character_from_monogenic(o, 0)
    assert tc.n == 2 and tc.exponent == 1  # Psi(sigma) = -1, single prime
    assert len(phi_roots_mod_p(2, 3)) == 1


def test_tame_character_prime_choice_conjugacy():
    o = real_cubic_order7()
    assert phi_roots_mod_p(3, 7) == [2, 4]
    tc0 = tame_character_from_monogenic(o, 0)
    tc1 = tame_character_from_monogenic(o, 1)
    assert {tc0.exponent, tc1.exponent} == {1, 2}
    with pytest.raises(OracleError):
        tame_character_from_monogenic(o, 2)


def test_phi_roots_mod_p_match_the_scan():
    """The order-m construction against trying every residue below p."""
    from refartin.cyclotomic import cyclotomic_polynomial, is_prime

    for p in filter(is_prime, range(300)):
        for n in range(1, 41):
            phi = cyclotomic_polynomial(n)
            scan = [r for r in range(p) if sum(c * pow(r, i, p) for i, c in enumerate(phi)) % p == 0]
            assert phi_roots_mod_p(n, p) == scan, (n, p)


def test_tame_character_errors():
    with pytest.raises(OracleError, match="trivial tame"):
        tame_character_from_monogenic(quad_order())


def test_prime_choice_invariance():
    # Q-rational characters: identical conductors for every prime choice;
    # sigma_p-stable irreducibles: the multiset of conductors is invariant
    o = real_cubic_order7()
    d0 = filtration_from_monogenic(o, 0)
    d1 = filtration_from_monogenic(o, 1)
    for chi_std in qp_irreducibles_cyclic(3, 0):
        assert conductor(d0, transport_to_cyclic(chi_std, d0.gamma)) == conductor(
            d1, transport_to_cyclic(chi_std, d1.gamma)
        )
    irr = qp_irreducibles_cyclic(3, 7)
    m0 = sorted(
        conductor(d0, transport_to_cyclic(ch, d0.gamma), on_unstable="ignore") for ch in irr
    )
    m1 = sorted(
        conductor(d1, transport_to_cyclic(ch, d1.gamma), on_unstable="ignore") for ch in irr
    )
    assert m0 == m1


# -- agreement between the oracle and the pairing route ----------------------------------


def test_regular_module_triple_agreement():
    for order in [quad_order(), cyclotomic_tower_order(2, 2),
                  cyclotomic_tower_order(3, 1), cyclotomic_tower_order(3, 2),
                  real_cubic_order7()]:
        data = filtration_from_monogenic(order)
        oracle_val = oracle_monogenic_clin(order, regular_action(order.group))
        pairing_val = conductor(data, standard_characters(data.gamma)[0])
        half_different = Fraction(different_valuation(data), 2)
        assert oracle_val == pairing_val == half_different


def test_tame_oracle_matches_pairing():
    from refartin.fixtures import tame_cyclic
    from refartin.ramification import power_character

    for n in range(1, 13):
        p = next(q for q in (2, 3, 5, 7, 11, 13) if n % q)
        t = tame_cyclic(n, p)
        for i in range(n):
            assert oracle_tame_clin(n, [i]) == conductor(
                t, power_character(n, (n - i) % n), on_unstable="ignore"
            )
