from fractions import Fraction

import pytest

from refartin.cyclotomic import ONE, ZERO, make_root, roots_of_unity
from refartin.fixtures import (
    mixed_c6,
    mixed_c6_abstract,
    quad_sqrt2,
    tame_cyclic,
    unramified,
)
from refartin.grouptheory import (
    abelian_group,
    all_subgroups,
    cyclic_group,
    pair,
    pullback,
    pushforward,
    quotient,
    standard_characters,
    subgroup,
)
from refartin.ramification import (
    RamificationError,
    artin_character,
    bar_n,
    build_ramification,
    different_valuation,
    discriminant_valuation,
    herbrand_phi,
    herbrand_psi,
    p_average,
    power_character,
    quotient_data,
    refined_artin,
    refined_artin_upper,
    subgroup_data,
    upper_group,
    upper_jumps,
)

import datagen


# -- validation ----------------------------------------------------------------


def test_build_accepts_fixtures():
    assert quad_sqrt2().e == 2
    assert quad_sqrt2().n == 1
    t = tame_cyclic(5, 3)
    assert (t.e, t.f, t.n) == (5, 1, 5)
    assert mixed_c6().n == 3


def test_build_rejections():
    c6 = cyclic_group(6)
    with pytest.raises(RamificationError, match="not a power of p"):
        build_ramification(c6, [list(range(6)), [0, 2, 4]], 2, (1, 1))
    with pytest.raises(RamificationError, match="divisible by p"):
        build_ramification(c6, [list(range(6))], 3, (1, 1))
    with pytest.raises(RamificationError, match="not injective"):
        build_ramification(cyclic_group(4), [list(range(4))], 7, (1, 2))
    with pytest.raises(RamificationError, match="does not generate"):
        build_ramification(cyclic_group(4), [list(range(4))], 7, (2, 1))
    with pytest.raises(RamificationError, match="decreasing"):
        build_ramification(cyclic_group(4), [[0, 2], [0, 1, 2, 3]], 7, None)
    with pytest.raises(RamificationError, match="trivial wild"):
        build_ramification(cyclic_group(2), [[0, 1], [0, 1]], 0, None)
    s3 = datagen.build_group({"perm": [[[1, 2]], [[1, 2, 3]]]})
    trans = next(c for c in s3.classes if len(c) == 3)[0]
    with pytest.raises(RamificationError, match="not normal"):
        build_ramification(s3, [[0, trans]], 5, (trans, 1))
    with pytest.raises(RamificationError, match="not cyclic"):
        build_ramification(s3, [list(range(6))], 5, (1, 1))


def test_build_rejects_non_cyclic_tame_quotient_over_wild_inertia():
    # Gamma_0 = C2 x C3 x C3 with Gamma_1 its Sylow 2-subgroup: the tame
    # quotient C3 x C3 has order 9 but no element of order 9 modulo Gamma_1
    g = abelian_group((2, 3, 3))
    sylow2 = [x for x in range(g.order) if g.element_order(x) <= 2]
    assert len(sylow2) == 2
    with pytest.raises(RamificationError, match="not cyclic"):
        build_ramification(g, [list(range(18)), sylow2], 2, (1, 1))


# -- Herbrand functions ----------------------------------------------------------


def test_herbrand_identity_on_unramified():
    u = unramified(2, 0)
    for x in [-1, Fraction(-1, 3), 0, Fraction(5, 7), 4]:
        assert herbrand_phi(u, x) == Fraction(x)
        assert herbrand_psi(u, x) == Fraction(x)


def test_herbrand_quad():
    q = quad_sqrt2()
    assert herbrand_phi(q, 3) == Fraction(5, 2)
    assert herbrand_psi(q, Fraction(5, 2)) == 3


def test_herbrand_tame():
    t = tame_cyclic(6, 5)
    for u in [Fraction(1, 2), 1, 3, 6, 11]:
        assert herbrand_phi(t, u) == Fraction(u, 6)
    assert herbrand_phi(t, 6) == 1


def test_herbrand_inverse_and_monotone():
    grid = [Fraction(a, b) for a in range(-3, 22) for b in (1, 2, 3)]
    for r in [quad_sqrt2(), mixed_c6(), mixed_c6_abstract(), tame_cyclic(4, 3)]:
        vals = []
        for u in sorted(set(g for g in grid if g >= -1)):
            v = herbrand_phi(r, u)
            assert herbrand_psi(r, v) == u
            assert herbrand_phi(r, herbrand_psi(r, u)) == u
            vals.append(v)
        assert vals == sorted(vals)


# -- upper numbering ----------------------------------------------------------


def test_upper_group_examples():
    q = quad_sqrt2()
    assert upper_group(q, -1).members == (0, 1)
    assert upper_group(q, 2).members == (0, 1)  # the jump sits at v = 2
    assert upper_group(q, Fraction(9, 4)).members == (0,)
    assert upper_group(q, 3).members == (0,)
    t = tame_cyclic(7, 2)
    assert upper_group(t, 0).order == 7
    assert upper_group(t, Fraction(1, 100)).order == 1
    # Gamma^0 = Gamma_0 and Gamma^(1/g0) = Gamma_1
    m = mixed_c6()
    assert upper_group(m, 0).members == tuple(range(6))
    assert upper_group(m, Fraction(1, 6)).members == (0, 3)


def test_upper_jumps():
    assert upper_jumps(quad_sqrt2()) == [Fraction(2)]
    assert upper_jumps(mixed_c6()) == [Fraction(0), Fraction(1)]
    assert upper_jumps(mixed_c6_abstract()) == [Fraction(0), Fraction(2, 3)]
    assert upper_jumps(tame_cyclic(9, 2)) == [Fraction(0)]


# -- Artin character -------------------------------------------------------------


def test_artin_character_examples():
    t = tame_cyclic(4, 3)
    assert [v.rational() for v in artin_character(t).values] == [3, -1, -1, -1]
    q = quad_sqrt2()
    assert [v.rational() for v in artin_character(q).values] == [3, -3]
    assert not any(artin_character(unramified(3, 2)).values)
    for r in [t, q, mixed_c6()]:
        assert pair(artin_character(r), standard_characters(r.gamma)[1]) == ZERO


# -- bar functions ----------------------------------------------------------------


def test_bar_n_examples():
    assert not any(bar_n(1).values)
    assert [v.rational() for v in bar_n(2).values] == [Fraction(1, 2), Fraction(-1, 2)]
    for n in range(1, 25):
        bn = bar_n(n)
        for r in range(n):
            assert pair(bn, power_character(n, r)).rational() == Fraction(r, n)


def test_power_character_matches_per_value_roots():
    # reference: each value built on its own, with the exponent left unreduced
    for n in range(1, 49):
        for r in range(-n, 2 * n + 1):
            want = tuple([make_root(n, r * a) for a in range(n)])
            assert power_character(n, r).values == want


def test_power_character_reads_the_roots_table(monkeypatch):
    import refartin.cyclotomic as cyclotomic

    roots_of_unity(12)

    def no_make_root(n, k):
        raise AssertionError("make_root called once the table exists")

    monkeypatch.setattr(cyclotomic, "make_root", no_make_root)
    assert power_character(12, 5).values[1] == roots_of_unity(12)[5]


def test_refined_artin_averaged_form_is_the_cached_average():
    for r in [tame_cyclic(6, 5), mixed_c6(), quad_sqrt2()]:
        avg = refined_artin(r, averaged=True)
        assert avg.values == p_average(refined_artin(r), r.p, r.n).values
        assert refined_artin(r, averaged=True) is avg


def test_bar_n_closed_form():
    # independent oracle: value at a generator power is 1/(zeta^a - 1)
    for n in [2, 3, 5, 8, 12]:
        bn = bar_n(n)
        assert bn.values[0].rational() == Fraction(n - 1, 2)
        for a in range(1, n):
            assert bn.values[a] == ONE / (make_root(n, a) - ONE)


# -- refined Artin character -------------------------------------------------------


def test_refined_artin_examples():
    q = quad_sqrt2()
    vals = [v.rational() for v in refined_artin(q).values]
    assert vals == [Fraction(3, 2), Fraction(-3, 2)]
    # tame: the refined character is the Psi-pullback of the bar function
    t = tame_cyclic(9, 2)
    assert refined_artin(t).values == bar_n(9).values
    t2 = tame_cyclic(5, 3, exponent=2)
    assert refined_artin(t2).values == tuple(bar_n(5).values[(2 * a) % 5] for a in range(5))


def test_refined_identity_value_is_half_artin():
    for r in [quad_sqrt2(), mixed_c6(), mixed_c6_abstract(), tame_cyclic(8, 3)]:
        assert refined_artin(r).value(0) * 2 == artin_character(r).value(0)


def test_bisection_and_upper_agreement_on_fixtures():
    for r in [quad_sqrt2(), mixed_c6(), mixed_c6_abstract(), tame_cyclic(12, 7), unramified(4, 3)]:
        bar = refined_artin(r)
        assert (bar + bar.conjugate()).values == artin_character(r).values
        assert refined_artin_upper(r).values == bar.values


def test_bisection_and_upper_agreement_on_random_data():
    for r in datagen.sample(25, seed=101):
        bar = refined_artin(r)
        assert (bar + bar.conjugate()).values == artin_character(r).values
        assert refined_artin_upper(r).values == bar.values


# -- averaging ---------------------------------------------------------------------


def test_p_average_examples():
    t = tame_cyclic(3, 0)
    chi = refined_artin(t)
    assert p_average(chi, 0, 3).values == chi.values
    # p = 2 on the degree-3 bar function: values become rational
    avg = p_average(bar_n(3), 2, 3)
    assert [v.rational() for v in avg.values] == [1, Fraction(-1, 2), Fraction(-1, 2)]
    # p = 7 = 1 mod 3: nothing moves
    assert p_average(bar_n(3), 7, 3).values == bar_n(3).values
    with pytest.raises(RamificationError):
        p_average(bar_n(3), 3, 3)


# -- subextension and quotient data ---------------------------------------------------


def test_subgroup_data_examples():
    m = mixed_c6_abstract()
    c6 = m.gamma
    sd = subgroup_data(m, subgroup(c6, [0, 2, 4]))
    assert sd.f_mk == 1 and sd.e_wild == 2
    assert sd.data.n == 3 and sd.data.wild_order == 1
    full = subgroup_data(m, subgroup(c6, range(6)))
    assert full.f_mk == 1 and full.e_wild == 1
    assert full.data.filtration == m.filtration
    triv = subgroup_data(quad_sqrt2(), subgroup(quad_sqrt2().gamma, [0]))
    assert triv.data.e == 1
    assert subgroup_data(unramified(2, 3), subgroup(cyclic_group(2), [0])).f_mk == 2


def test_subgroup_tame_character_compatibility():
    # Psi_{L/K} = Psi_{L/M}^(e_wild) on the subgroup tame quotient
    m = mixed_c6()
    sd = subgroup_data(m, subgroup(m.gamma, [0, 2, 4]))
    n, k = m.n, m.tame_exponent
    gen_parent = sd.data.gamma  # C3 as its own group
    # value of Psi_{L/M} on its generator, raised to e_wild, must match Psi_{L/K}
    g_sub_parent = subgroup(m.gamma, [0, 2, 4]).members[sd.data.tame_generator]
    # discrete log of that element modulo Gamma_1 in the parent
    from refartin.ramification import _dlog_mod_wild

    t = _dlog_mod_wild(m, g_sub_parent)
    lhs = make_root(n, t * k)  # Psi_{L/K} at the element
    rhs = make_root(sd.data.n, sd.data.tame_exponent) ** sd.e_wild
    assert lhs == rhs


def test_quotient_data_examples():
    t4 = tame_cyclic(4, 7)
    qd = quotient_data(t4, subgroup(t4.gamma, [0, 2]))
    assert qd.gamma.order == 2 and qd.n == 2
    assert (qd.tame_generator, qd.tame_exponent) == (1, 1)  # generator -> -1
    m = mixed_c6()
    assert quotient_data(m, subgroup(m.gamma, [0])).filtration == m.filtration
    q3 = quotient_data(m, subgroup(m.gamma, [0, 3]))
    assert q3.gamma.order == 3 and q3.n == 3
    # quotient of the realizable sextic by its tame part: the wild quadratic
    q2 = quotient_data(m, subgroup(m.gamma, [0, 2, 4]))
    assert [len(mm) for mm in q2.filtration] == [2, 2]
    # the abstract variant has no admissible quotient by the tame part
    with pytest.raises(RamificationError):
        quotient_data(mixed_c6_abstract(), subgroup(m.gamma, [0, 2, 4]))


def test_quotient_pushforward_identity_fixtures():
    for r in [quad_sqrt2(), mixed_c6(), tame_cyclic(12, 5), tame_cyclic(8, 3)]:
        for nsub in datagen.all_normal_subgroups(r.gamma):
            q, proj = quotient(r.gamma, nsub)
            lhs = pushforward(proj, refined_artin(r))
            rhs = refined_artin(quotient_data(r, nsub))
            assert lhs.values == rhs.values


def test_restriction_identity_fixtures():
    for r in [quad_sqrt2(), mixed_c6(), mixed_c6_abstract(), tame_cyclic(12, 5)]:
        avg = p_average(refined_artin(r), r.p, r.n)
        for sub in all_subgroups(r.gamma):
            sd = subgroup_data(r, sub)
            lhs = pullback(sub.inclusion, avg)
            rhs = p_average(refined_artin(sd.data), sd.data.p, sd.data.n).scale(sd.f_mk)
            rhs = rhs + standard_characters(sub.group)[0].scale(
                Fraction(1, 2) * discriminant_valuation(r, sub)
            )
            assert lhs.values == rhs.values


# -- different and discriminant --------------------------------------------------------


def test_different_valuation_examples():
    assert different_valuation(quad_sqrt2()) == 3
    assert different_valuation(tame_cyclic(9, 2)) == 8
    assert different_valuation(unramified(5, 3)) == 0


def test_discriminant_examples():
    q = quad_sqrt2()
    assert discriminant_valuation(q, subgroup(q.gamma, [0])) == 3
    t = tame_cyclic(6, 5)
    assert discriminant_valuation(t, subgroup(t.gamma, [0])) == 5
    assert discriminant_valuation(q, subgroup(q.gamma, [0, 1])) == 0


def test_conductor_discriminant_cross_check_random():
    for r in datagen.sample(15, seed=55):
        ar = artin_character(r)
        for sub in all_subgroups(r.gamma):
            ind1 = pushforward(sub.inclusion, standard_characters(sub.group)[1])
            assert pair(ar, ind1).rational() == discriminant_valuation(r, sub)


def test_hasse_arf_on_curated_abelian_fixtures():
    from refartin.fixtures import curated_fixtures

    for name, r in curated_fixtures():
        assert r.gamma.is_abelian()
        for j in upper_jumps(r):
            assert j.denominator == 1, (name, j)
