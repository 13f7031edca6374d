import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_reference import (
    bareiss_det,
    field_kernel,
    int_step,
    integer_kernel,
    poly_step,
    presultant,
    sigma_matrix,
    stack_route,
    val_p,
)
from refartin.conductor import conductor, qp_irreducibles_cyclic, transport_to_cyclic
from refartin.fixtures import (
    cyclotomic_tower_data,
    cyclotomic_tower_order,
    quad_order,
    real_cubic_order7,
)
from refartin.cyclotomic import ONE, ZERO, roots_of_unity, split_p
from refartin.grouptheory import generators, standard_characters
import refartin.oracle as oracle
from refartin._linalg import eliminate, eliminate_ol, hadamard_exponent
from refartin._poly import padd, pcompose, pexact_div, pmod, ptrim
from refartin.oracle import (
    MonogenicOrder,
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-2 * n, 2 * n), max_size=3))))
@example((1, []))
@example((14, [13, 0, 27]))
@example((14, [-1, 14, 1]))
def test_invariant_basis_is_the_kernel_of_the_dense_diagonal(case):
    """The unit vectors read off the diagonal of sigma - 1 are the kernel
    basis that field elimination gives on the dense (d n) x (d n) matrix."""
    n, exponents = case
    d, roots = len(exponents), roots_of_unity(n)
    dense = [[ZERO] * (d * n) for _ in range(d * n)]
    for r, row in enumerate(dense):
        row[r] = roots[(exponents[r // n] + r) % n] - ONE
    assert TameModel(n).invariant_basis(exponents) == field_kernel(dense, ONE)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-2 * n, 2 * n), max_size=3))))
@example((1, []))
@example((8, [-16, 16, 0]))
@example((7, [-1, 13, 6]))
def test_tame_clin_matches_the_reference_determinant(case):
    """n clin is the lowest pi-power of det phi over O_L = Q(zeta_n)[pi], with
    phi's matrix built from the invariant basis (column k the O_L
    coordinates of the k-th invariant vector) and its determinant taken by
    the reference Bareiss elimination."""
    n, exponents = case
    model, d = TameModel(n), len(exponents)
    basis = model.invariant_basis(exponents)
    mat = [[ptrim(basis[k][j * n:(j + 1) * n]) for k in range(d)] for j in range(d)]
    det = bareiss_det(mat, poly_step, (ONE,))
    assert det and next(i for i, c in enumerate(det) if c) == n * model.clin(exponents)


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
MONOGENIC_ORDERS = {"quad": quad_order(), "cubic7": real_cubic_order7(),
                    **{f"phi{p**k}": cyclotomic_tower_order(p, k) for p, k in TOWERS}}


@pytest.mark.parametrize("order", list(MONOGENIC_ORDERS.values()), ids=list(MONOGENIC_ORDERS))
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


def theta_conjugates(order, c):
    """theta(g(x)) mod f for every Galois map g, theta = (f(x) - f(c)) / (x - c)
    taken by polynomial division and composed over Z[x]."""
    theta = pexact_div(padd(order.f, (-sum(a * c**i for i, a in enumerate(order.f)),)), (-c, 1))
    conj = [pmod(pcompose(theta, g), order.f) for g in order.galois]
    return [list(y) + [0] * (order.degree - len(y)) for y in conj]


def test_normal_conjugates_take_the_least_nonsingular_c():
    """theta_0's conjugate matrix is singular by the reference Bareiss
    determinant on 8 of the 12 orders, so the search for a normal element
    is exercised; the oracle's conjugates are theta_c's for the least c
    whose matrix is nonsingular, and that c is 0 or 1."""
    singular_at_zero = set()
    for name, order in MONOGENIC_ORDERS.items():
        dets = [bareiss_det(theta_conjugates(order, c), int_step, 1) for c in range(2)]
        if not dets[0]:
            singular_at_zero.add(name)
        assert [list(c) for c in order.normal] == theta_conjugates(order, 0 if dets[0] else 1) and dets[1]
    assert singular_at_zero == {"quad", "phi5", "phi7", "phi8", "phi9", "phi11", "phi13", "phi16"}


def test_equal_inputs_return_the_identical_order():
    """build_monogenic_order is keyed on its arguments as int tuples: lists
    and tuples give one object, and a different p, f or galois another, even
    where the orders compare equal (galois unreduced mod f)."""
    p, f, galois = 7, [7, 14, 7, 1], [[0, 1], [0, 4, 1], [-7, -5, -1]]
    order = build_monogenic_order(p, f, galois)
    assert build_monogenic_order(p, tuple(f), tuple(map(tuple, galois))) is order
    assert real_cubic_order7() is order
    quad = build_monogenic_order(2, [-6, 0, 1], [[0, 1], [0, -1]])
    others = [build_monogenic_order(3, [-6, 0, 1], [[0, 1], [0, -1]]),
              build_monogenic_order(2, [6, 0, 1], [[0, 1], [0, -1]]),
              build_monogenic_order(2, [-6, 0, 1], [[0, 1], [-6, -1, 1]])]
    assert all(o is not quad for o in others)
    assert others[2] == quad != others[0] and others[1] != quad
    assert oracle._unique_order.cache_info().maxsize == 32


def test_invalid_orders_are_refused_on_every_call():
    before = oracle._unique_order.cache_info().currsize
    for _ in range(3):
        with pytest.raises(OracleError, match="Eisenstein"):
            build_monogenic_order(2, [-4, 0, 1], [[0, 1], [0, -1]])
        with pytest.raises(OracleError, match="not prime"):
            build_monogenic_order(4, [-4, 0, 1], [[0, 1], [0, -1]])
    assert oracle._unique_order.cache_info().currsize == before


def elimination_calls(monkeypatch):
    """(rows, k) of every call of ``eliminate`` from the oracle module."""
    calls = []

    def spy(rows, p, k, *rest):
        calls.append((len(rows), k))
        return eliminate(rows, p, k, *rest)

    monkeypatch.setattr(oracle, "eliminate", spy)
    return calls


@pytest.mark.parametrize("name", ["cubic7", "phi9", "phi13"])
def test_the_normal_element_is_certified_once_per_order(monkeypatch, name):
    """The certification of theta, e rows at Hadamard's bound plus one (not
    a power of two here, unlike the oracle's k), runs when an order is
    built and never in ``oracle_monogenic_clin``, the regular module
    included, whose d = e trace rows are as many."""
    order = build_monogenic_order(*MONOGENIC_ORDERS[name][:3])
    e, action = order.degree, regular_action(order.group)
    certify = (e, hadamard_exponent(order.normal, order.p) + 1)
    assert certify[1] & (certify[1] - 1)
    calls = elimination_calls(monkeypatch)
    oracle_monogenic_clin(order, action)
    assert calls and certify not in calls
    calls.clear()
    assert MonogenicOrder(*order[:3]).normal == order.normal and certify in calls


@pytest.mark.parametrize("name", ["quad", "cubic7", "phi8", "phi9", "phi13"])
def test_a_cached_order_gives_the_values_of_a_fresh_one(name):
    """The regular, the trivial and the regular module again: the order
    from the cache gives what a fresh ``MonogenicOrder`` gives, and no call
    changes what it holds."""
    order = build_monogenic_order(*MONOGENIC_ORDERS[name][:3])
    fresh, held = MonogenicOrder(*order[:3]), tuple(order)
    assert fresh is not order and fresh == order
    regular, trivial = regular_action(order.group), [[[1]]] * order.group.order
    for action in (regular, trivial, regular):
        assert oracle_monogenic_clin(order, action) == oracle_monogenic_clin(fresh, action)
    assert tuple(order) == tuple(fresh) == held


def trace_route(monkeypatch, order, action):
    """(c_lin, k, va, traces, vn) of ``oracle_monogenic_clin``: k, the traces
    and vn of its last ``eliminate_ol`` call, the accepted one, and va of
    its last ``eliminate`` call, the accepted one on the traces."""
    calls, norm_calls = [], []

    def spy(rows, p, k, width):
        calls.append(eliminate(rows, p, k, width))
        return calls[-1]

    def norm_spy(rows, p, k, e, shifts):
        norm_calls.append((k, rows, eliminate_ol(rows, p, k, e, shifts)))
        return norm_calls[-1][2]

    monkeypatch.setattr(oracle, "eliminate", spy)
    monkeypatch.setattr(oracle, "eliminate_ol", norm_spy)
    clin = oracle_monogenic_clin(order, action)
    k, traces, vn = norm_calls[-1]
    return clin, k, calls[-1][0], traces, vn


def pivot_columns(rows):
    """The pivot columns of a row echelon form of an integer matrix over Q:
    its minor on them is nonzero when its rows are independent."""
    work, cols = [[Fraction(x) for x in row] for row in rows], []
    for c in range(len(work[0]) if work else 0):
        i = next((i for i in range(len(cols), len(work)) if work[i][c]), None)
        if i is not None:
            work[len(cols)], work[i] = work[i], work[len(cols)]
            piv = work[len(cols)]
            for row in work[len(cols) + 1:]:
                t = row[c] / piv[c]
                row[:] = [x - t * y for x, y in zip(row, piv)]
            cols.append(c)
    return cols


@pytest.mark.parametrize(
    "order",
    [cyclotomic_tower_order(2, 2), cyclotomic_tower_order(2, 3), cyclotomic_tower_order(3, 2),
     cyclotomic_tower_order(5, 1), cyclotomic_tower_order(7, 1), real_cubic_order7(),
     quad_order()],
    ids=["phi4", "phi8", "phi9", "phi5", "phi7", "cubic7", "quad"],
)
def test_norm_determinant_is_the_norm_of_the_O_L_determinant(monkeypatch, order):
    """On the span S of the oracle's traces, |det_Z phi_S| = |N_{L/Q}(det_{O_L}
    phi_S)| = |Res(f, det_{O_L} phi_S)|, with both determinants taken by the
    reference Bareiss elimination and det_{O_L} phi_S taken independently
    over Q[x] and reduced mod f; the norm rows are the traces' x-shifts, and
    vn the pivot valuations of the accepted ``eliminate_ol`` call.  The
    traces lie in the reference stack's kernel, and sum va is nu_p [K : S]
    = nu_p(det U), S = U K with K the reference kernel basis, read on d
    columns where K's minor is nonzero; the oracle's value is sum vn / e -
    sum va.  Traces taken with the transposed matrices are not invariant
    on the regular modules of C4 and C6 (phi5, phi7, phi9)."""
    e, g = order.degree, order.group.order
    modules = [regular_action(order.group), [[[1]]] * g]
    if g == 2:
        modules.append([[[1]], [[-1]]])
    f = tuple(Fraction(c) for c in order.f)
    for action in modules:
        clin, _, va, traces, vn = trace_route(monkeypatch, order, action)
        rows = [row for v in traces for row in oracle._x_shifts(v, order.f)]
        assert len(vn) == len(rows)
        det_z = bareiss_det(rows, int_step, 1)
        d = len(traces)
        mat = [[ptrim([Fraction(c) for c in traces[k][j * e:(j + 1) * e]]) for k in range(d)] for j in range(d)]
        det_ol = pmod(bareiss_det(mat, poly_step, (Fraction(1),)), f)
        assert abs(det_z) == abs(presultant(f, det_ol)) != 0
        assert sum(vn) == val_p(det_z, order.p)
        assert clin + sum(va) == Fraction(sum(vn), e) == Fraction(valuation_monogenic(order, det_ol), e)
        assert not any(sum(map(int.__mul__, row, t)) for row in reference_stack(order, action) for t in traces)
        kernel = reference_kernel(order, action)
        cols = pivot_columns(kernel)
        det_u = Fraction(bareiss_det([[t[c] for c in cols] for t in traces], int_step, 1),
                         bareiss_det([[v[c] for c in cols] for v in kernel], int_step, 1))
        assert sum(va) == val_p(det_u, order.p)


def reference_stack(order, action) -> list[list[int]]:
    """The rows of sigma (x) sigma - 1 over every group element, on the
    Z-basis e_j (x) x^b: the invariant lattice is their kernel."""
    e = order.degree
    d = len(action[0])
    stack = []
    for s, a in enumerate(action):
        smat = sigma_matrix(order, s)
        for j2 in range(d):
            for a2 in range(e):
                row = [a[j2][j] * smat[a2][b] for j in range(d) for b in range(e)]
                row[j2 * e + a2] -= 1
                stack.append(row)
    return stack


def reference_kernel(order, action) -> list[tuple[int, ...]]:
    """The saturated integer kernel of the reference stack, a basis of the
    invariant lattice."""
    kernel = integer_kernel(reference_stack(order, action), order.degree * len(action[0]))
    assert len(kernel) == len(action[0])
    return kernel


def reference_clin(order, action) -> Fraction:
    """c_lin by the earlier route: the norm determinant of the reference
    kernel basis by Bareiss over Z, and its nu_p."""
    e = order.degree
    d = len(action[0])
    rows = []
    for v in reference_kernel(order, action):
        for b in range(e):
            # x^b v, each block of e coordinates an element of Z[x]/(f)
            shifted = [pmod((0,) * b + v[j * e:(j + 1) * e], order.f) for j in range(d)]
            rows.append([c for blk in shifted for c in blk + (0,) * (e - len(blk))])
    return Fraction(val_p(bareiss_det(rows, int_step, 1), order.p), e)


DIFFERENTIAL_ORDERS = {"quad": quad_order(), "phi4": cyclotomic_tower_order(2, 2),
                       "phi8": cyclotomic_tower_order(2, 3), "phi9": cyclotomic_tower_order(3, 2),
                       "phi5": cyclotomic_tower_order(5, 1)}


def stable_sublattice(order, v, a):
    """The regular action on the Gamma-stable sublattice spanned by the
    orbit of v and p^a Z^g, of index a power of p: B^-1 rho B with B the
    Hermite normal form of those generators, checked integral."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    p, g = order.p, order.group.order
    regular = regular_action(order.group)
    gens = [[sum(map(int.__mul__, row, v)) for row in r] for r in regular]
    gens += [[p**a * (i == j) for i in range(g)] for j in range(g)]
    b = hermite_normal_form(sympy.Matrix(gens).T)
    assert b.shape == (g, g) and split_p(abs(int(b.det())), p)[1] == 1
    action = [(b.inv() * sympy.Matrix(m) * b).tolist() for m in regular]
    assert all(x.is_integer for m in action for row in m for x in row)
    return [[[int(x) for x in row] for row in m] for m in action]


def routes_agree(order, action) -> Fraction:
    """c_lin by the trace route (the oracle), the stack route and the
    reference kernel, checked equal."""
    clin = oracle_monogenic_clin(order, action)
    assert clin == stack_route(order, action)[0] == reference_clin(order, action)
    return clin


@pytest.mark.parametrize("name", list(DIFFERENTIAL_ORDERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_clin_of_stable_sublattices_matches_the_reference(name, data):
    order = DIFFERENTIAL_ORDERS[name]
    g = order.group.order
    routes_agree(order, stable_sublattice(order, data.draw(st.lists(st.integers(-3, 3), min_size=g, max_size=g)),
                                          data.draw(st.integers(1, 3))))


@pytest.mark.parametrize("name, v, clin", [("phi8", (0, 0, 1, 1), 3), ("phi9", (0, 0, 0, 0, 1, 1), Fraction(7, 2))])
def test_sublattice_stack_with_a_pivot_of_valuation_one(name, v, clin):
    """On these sublattices of index p the stack route's kernel elimination
    has a pivot of valuation 1, so its rows left are kernel vectors modulo
    p^3 only."""
    order = DIFFERENTIAL_ORDERS[name]
    action = stable_sublattice(order, v, 1)
    assert routes_agree(order, action) == clin
    assert max(stack_route(order, action)[2]) == 1


@pytest.mark.parametrize("name", list(DIFFERENTIAL_ORDERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_clin_of_unimodular_conjugates_matches_the_reference(name, data):
    """U^-1 rho U for U a product of elementary matrices I + c E_ij; c_lin
    is the regular module's, since U is an isomorphism of Z[Gamma]-lattices."""
    order = DIFFERENTIAL_ORDERS[name]
    g = order.group.order
    u = [[int(i == j) for j in range(g)] for i in range(g)]
    u_inv = [row[:] for row in u]
    steps = st.tuples(st.integers(0, g - 1), st.integers(0, g - 1), st.integers(-4, 4))
    for i, j, c in data.draw(st.lists(steps.filter(lambda t: t[0] != t[1]), max_size=2 * g)):
        # U <- U (I + c E_ij), U^-1 <- (I - c E_ij) U^-1
        for row in u:
            row[j] += c * row[i]
        u_inv[i] = [x - c * y for x, y in zip(u_inv[i], u_inv[j])]
    regular = regular_action(order.group)
    action = [oracle._mat_mul(oracle._mat_mul(u_inv, a), u) for a in regular]
    assert routes_agree(order, action) == oracle_monogenic_clin(order, regular)


@pytest.mark.parametrize("name", list(DIFFERENTIAL_ORDERS))
def test_clin_of_the_fixture_modules_matches_the_reference(name):
    order = DIFFERENTIAL_ORDERS[name]
    g = order.group.order
    modules = [regular_action(order.group), [[[1]]] * g, [[]] * g]
    for action in modules:
        routes_agree(order, action)


def test_routes_agree_on_phi16s_regular_module(monkeypatch):
    """Phi_16(x+1)'s traces have the largest index of the fixture orders,
    p^19, so the trace route accepts only at k = 16."""
    order = cyclotomic_tower_order(2, 4)
    action = regular_action(order.group)
    clin, k, va, _, _ = trace_route(monkeypatch, order, action)
    assert (clin, k, sum(va)) == (12, 16, 19)
    assert routes_agree(order, action) == 12


def test_trace_and_stack_routes_agree_on_a_conjugate_of_phi13s_regular_module():
    """Phi_13(x+1)'s regular module conjugated by I + 3 S, S the
    superdiagonal, as in the console checks.  The reference kernel is left
    out: its Euclidean reduction over Z takes tens of seconds here."""
    order, n, c = cyclotomic_tower_order(13, 1), 12, 3
    u = [[int(j == i) + c * (j == i + 1) for j in range(n)] for i in range(n)]
    u_inv = [[(-c) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)]
    action = [oracle._mat_mul(oracle._mat_mul(u_inv, a), u) for a in regular_action(order.group)]
    assert oracle_monogenic_clin(order, action) == stack_route(order, action)[0] == Fraction(11, 2)


@pytest.mark.parametrize("step", ["traces", "norm"])
def test_a_row_left_at_k_doubles_k(monkeypatch, step):
    """The one acceptance rule is that every row pivots.  A trace row or a
    norm row left at k = 4, made by dropping the largest pivot valuation
    there, doubles k: the norm step runs only once d trace rows pivot, and
    the value is accepted only once every norm row pivots too."""
    order = quad_order()
    norm_ks = []

    def spy(rows, p, k, width, *rest):
        va, left = eliminate(rows, p, k, width, *rest)
        if step == "traces" and k == 4 and width == 2 * order.degree:
            return sorted(va)[:-1], left + [[0] * 4]
        return va, left

    def norm_spy(rows, p, k, e, shifts):
        norm_ks.append(k)
        vn = eliminate_ol(rows, p, k, e, shifts)
        return sorted(vn)[:-1] if step == "norm" and k == 4 else vn

    monkeypatch.setattr(oracle, "eliminate", spy)
    monkeypatch.setattr(oracle, "eliminate_ol", norm_spy)
    assert oracle_monogenic_clin(order, regular_action(order.group)) == Fraction(3, 2)
    assert norm_ks == ([8] if step == "traces" else [4, 8])


def accepted_kernel(order, action):
    """(k, rows left) of the stack route's accepted kernel call."""
    _, k, _, rest = stack_route(order, action)
    return k, rest


def norm_routes_agree(order, rows, k):
    """``eliminate_ol`` against ``eliminate`` on every x-shift of the rows
    modulo p^k: the same sorted pivot valuations, and rows left by both or
    by neither.  Returns the O_L route's valuations."""
    def shifts(v):
        return oracle._x_shifts(v, order.f)

    vn = eliminate_ol(rows, order.p, k, order.degree, shifts)
    full, left = eliminate([r for v in rows for r in shifts(v)], order.p, k, len(rows[0]) if rows else 0)
    assert sorted(vn) == sorted(full)
    assert (len(vn) == len(rows) * order.degree) == (not left)
    return vn


@pytest.mark.parametrize("name", list(DIFFERENTIAL_ORDERS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_norm_routes_agree_on_stable_sublattices(name, data):
    """On the stack route's rows left and on the oracle's traces, each at
    its accepted k and at k = 1 and 2, where invariants of at least k leave
    rows in both norm routes."""
    order = DIFFERENTIAL_ORDERS[name]
    g = order.group.order
    action = stable_sublattice(order, data.draw(st.lists(st.integers(-3, 3), min_size=g, max_size=g)),
                               data.draw(st.integers(1, 2)))
    with pytest.MonkeyPatch.context() as mp:
        _, k_traces, _, traces, _ = trace_route(mp, order, action)
    for k, rows in (accepted_kernel(order, action), (k_traces, traces)):
        for kk in (1, 2, k):
            norm_routes_agree(order, rows, kk)


@pytest.mark.parametrize("name", list(DIFFERENTIAL_ORDERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_norm_routes_agree_on_rows_with_powers_of_p(name, data):
    """Up to 3 rows of as many blocks, each entry carrying a power of p up
    to p^5, at k in {1, 2, 4}: pivots of every nu_L, ties, and blocks that
    vanish mod p^k."""
    order = DIFFERENTIAL_ORDERS[name]
    p, e, d = order.p, order.degree, data.draw(st.integers(1, 3))
    entry = st.tuples(st.integers(-9, 9), st.sampled_from([0, 0, 1, 2, 5])).map(lambda t: t[0] * p**t[1])
    rows = [data.draw(st.lists(entry, min_size=d * e, max_size=d * e)) for _ in range(d)]
    norm_routes_agree(order, rows, data.draw(st.sampled_from([1, 2, 4])))


@pytest.mark.parametrize("p, j, clin", [(13, 1, Fraction(11, 2)), (11, 1, Fraction(9, 2)), (2, 4, 12)])
def test_norm_routes_agree_on_the_towers(monkeypatch, p, j, clin):
    """The traces of the regular module of the largest towers, at the
    accepted k and at k = 1, where the invariants 1 leave rows."""
    order = cyclotomic_tower_order(p, j)
    _, k, va, traces, _ = trace_route(monkeypatch, order, regular_action(order.group))
    assert Fraction(sum(norm_routes_agree(order, traces, k)), order.degree) - sum(va) == clin
    assert len(norm_routes_agree(order, traces, 1)) < len(traces) * order.degree


def test_norm_routes_agree_on_the_rank_zero_module(monkeypatch):
    order = quad_order()
    assert accepted_kernel(order, [[], []]) == (4, [])
    assert trace_route(monkeypatch, order, [[], []]) == (0, 4, [], [], [])
    assert norm_routes_agree(order, [], 4) == []


def test_norm_routes_agree_when_an_invariant_reaches_k():
    """On phi4, f = x^2 + 2x + 2 at 2, x^3 = 4 + 2x has nu_L = 3 = 2 * 1 + 1
    and Z_2 invariants 1 and 2: at k = 2 the second is not below k, and
    both routes leave a row."""
    order = cyclotomic_tower_order(2, 2)
    rows = [[1, 0, 0, 0], [0, 0, 4, 2]]
    assert sorted(norm_routes_agree(order, rows, 2)) == [0, 0, 1]
    assert sorted(norm_routes_agree(order, rows, 3)) == [0, 0, 1, 2]


def nu_p_det(mat, p):
    """nu_p(det mat) of a square integer matrix by ``eliminate`` at k = 4, 8,
    16, ..., or None once k passes Hadamard's bound with a row left."""
    bound, k = hadamard_exponent(mat, p), 4
    while True:
        pivots, left = eliminate(mat, p, k, len(mat))
        if not left:
            return sum(pivots)
        if k > bound:
            return None
        k *= 2


@st.composite
def scaled_matrices(draw):
    """(p, M) for p in {2, 3, 5} and a square integer M whose entries carry
    powers of p up to p^17, singular about half the time from size 2 on."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 6))
    entry = st.tuples(st.integers(-9, 9), st.sampled_from([0, 0, 0, 1, 2, 5, 9, 17]))
    mat = [[c * p**a for c, a in draw(st.lists(entry, min_size=n, max_size=n))] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # the last row a combination of the first two
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
    return p, mat


@settings(max_examples=300, deadline=None)
@given(scaled_matrices())
@example((2, [[2**40, 3 * 2**40], [1, 5]]))  # nu_2(det) = 41: p^k doubles up to 2^64
@example((3, [[3, 6], [1, 2]]))  # singular at every precision
def test_nu_p_det_matches_the_reference_determinant(case):
    """nu_p(det) modulo p^k against the reference Bareiss determinant over Z;
    a singular matrix gives None."""
    p, mat = case
    det = bareiss_det(mat, int_step, 1)
    assert nu_p_det(mat, p) == (val_p(det, p) if det else None)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1009, 10**9 + 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(
        st.tuples(st.integers(-p**2, p**2), st.sampled_from([0, 0, 1, 3, 6])).map(lambda t: t[0] * p**t[1]),
        min_size=n, max_size=n), min_size=n, max_size=n)))))
@example((1009, [[1009**5, 1], [1, 0]]))
@example((10**9 + 7, [[(10**9 + 7) ** 3, 2], [5, (10**9 + 7) ** 6]]))
def test_wide_slots_match_the_reference_determinant(case):
    """p = 1009 and p = 10^9 + 7 need slots of 16 and 32 bytes at k = 4."""
    p, mat = case
    det = bareiss_det(mat, int_step, 1)
    assert nu_p_det(mat, p) == (val_p(det, p) if det else None)


def saturating_matrix(p: int, m: int) -> list[list[int]]:
    """An m x m matrix whose elimination mod q = p^4 clears row i against
    pivots 0, ..., i - 1 with every multiplier c and every pivot entry equal
    to q - 1, and leaves p^2 as the last pivot: entry (i, j) is
    -1 - min(i, j) mod q, each clear adds 1 mod q to the columns it meets,
    and the last row's last slot reaches about q + (m - 1) (q - 1)^2."""
    q = p**4
    mat = [[(-1 - min(i, j)) % q for j in range(m)] for i in range(m)]
    mat[-1][-1] = (p**2 - (m - 1)) % q
    return mat


@pytest.mark.parametrize("m", [2, 4, 8])
def test_slots_at_their_bound_match_the_reference_determinant(m):
    """q = 211^4 is about 2^31: four rows fit one 8-byte slot with an
    unreduced pivot row overflowing it, and eight rows need 16 bytes
    although q + q^2 fits 8."""
    p = 211
    mat = saturating_matrix(p, m)
    assert val_p(bareiss_det(mat, int_step, 1), p) == 2
    assert nu_p_det(mat, p) == 2


@st.composite
def stacks(draw):
    """(p, k, A) for p in {2, 3}, k in {4, 8} and up to 4 integer rows of up
    to 3 entries, each entry carrying a power of p up to p^5."""
    p, n, w = draw(st.sampled_from([2, 3])), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    entry = st.tuples(st.integers(-9, 9), st.sampled_from([0, 0, 1, 2, 3, 5])).map(lambda t: t[0] * p**t[1])
    return p, draw(st.sampled_from([4, 8])), [draw(st.lists(entry, min_size=w, max_size=w)) for _ in range(n)]


def minors(mat, n):
    """The maximal minors of mat, a list of rows of length n."""
    return [bareiss_det([[row[c] for c in cols] for row in mat], int_step, 1)
            for cols in itertools.combinations(range(n), len(mat))]


@settings(max_examples=300, deadline=None)
@given(stacks())
@example((2, 4, [[2], [18]]))
@example((3, 4, [[0, 0], [0, 0]]))
@example((2, 8, [[4, 0, 32], [0, 96, 1]]))
def test_rows_left_are_a_kernel_basis_modulo_p_to_k_minus_max_va(case):
    """Rows of A, each with its unit vector, eliminated on A's slots.  The
    pivots are at most the rank; when they reach it, the rows left, for j =
    k - max va, are a basis of the saturated kernel {u : u A = 0} over Z_p
    modulo p^j: with the reference kernel basis K each has every (d+1)-minor
    divisible by p^j, K has a d-minor prime to p, and so have the rows left."""
    p, k, a = case
    n, width = len(a), len(a[0])
    va, rest = eliminate([r + [int(i == j) for j in range(n)] for i, r in enumerate(a)], p, k, width)
    kernel = [list(v) for v in integer_kernel([list(c) for c in zip(*a)], n)]
    d = len(kernel)
    assert len(va) + len(rest) == n and len(rest) >= d
    if len(rest) == d:
        j = k - max(va, default=0)
        assert j >= 1 and all(x % p**j == 0 for u in rest for x in minors(kernel + [u], n))
        assert any(x % p for x in minors(kernel, n)) and any(x % p for x in minors(rest, n))


def test_rows_left_lose_the_pivot_valuation_in_precision():
    """(2, 18) is (2, 2) mod 2^4: the row left is (15, 1), and with the true
    kernel vector (-9, 1) its minor is -24, divisible by 2^(4 - 1) but not
    by 2^4.  The stack route's acceptance rule charges max va for this."""
    assert eliminate([[2, 1, 0], [18, 0, 1]], 2, 4, 1) == ([1], [[15, 1]])
    assert integer_kernel([[2, 18]], 2) == [(-9, 1)]
    assert minors([[-9, 1], [15, 1]], 2) == [-24]


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


def test_degree_one_order_has_trivial_tame_quotient():
    """x = p in a degree-1 order, so sigma(x)/x is no residue unit; the
    trivial tame quotient is decided before any unit is read."""
    order = build_monogenic_order(3, [-3, 1], [[0, 1]])
    with pytest.raises(OracleError, match="the extension has trivial tame quotient"):
        tame_character_from_monogenic(order)


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
