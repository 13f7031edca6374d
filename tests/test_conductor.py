import random
from fractions import Fraction

import pytest

from refartin.cyclotomic import NotRationalError, ONE, ZERO, from_rational, make_root
from refartin.conductor import (
    StabilityError,
    artin_conductor,
    conductor,
    qp_irreducibles_cyclic,
    sigma_p_stable,
    transport_to_cyclic,
    verify_suite,
    weil_restriction_check,
)
from refartin.fixtures import mixed_c6, quad_sqrt2, tame_cyclic
from refartin.grouptheory import (
    ClassFunction,
    all_subgroups,
    build_group,
    cyclic_group,
    pair,
    quotient,
    standard_characters,
    subgroup,
)
from refartin.ramification import (
    build_ramification,
    discriminant_valuation,
    p_average,
    power_character,
    refined_artin,
    subgroup_data,
)

import datagen


def quad_chi():
    q = quad_sqrt2()
    return ClassFunction(q.gamma, (ONE, from_rational(-1)))


# -- conductor ------------------------------------------------------------------


def test_conductor_examples():
    q = quad_sqrt2()
    assert conductor(q, quad_chi()) == Fraction(3, 2)
    assert conductor(q, standard_characters(q.gamma)[1]) == 0
    for n, p in [(4, 5), (6, 7), (9, 19)]:
        t = tame_cyclic(n, p)
        for r in range(n):
            assert conductor(t, power_character(n, r), on_unstable="ignore") == Fraction(r, n)


def test_conductor_stability_gate():
    t = tame_cyclic(5, 2)
    chi = power_character(5, 1)  # not stable under zeta -> zeta^2
    with pytest.raises(StabilityError):
        conductor(t, chi, on_unstable="error")
    with pytest.warns(UserWarning):
        assert conductor(t, chi) == Fraction(1, 5)


def test_conductor_irrational_pairing():
    t = tame_cyclic(3, 2)
    chi = ClassFunction(t.gamma, (ZERO, ONE, ZERO))  # rational values, so "stable"
    assert sigma_p_stable(chi, 2)
    with pytest.raises(NotRationalError):
        conductor(t, chi, on_unstable="ignore")


def test_conductor_unstable_irrational_pairing():
    t = tame_cyclic(5, 2)
    chi = power_character(5, 1).scale(make_root(3, 1))  # (bar|chi) = zeta_3^-1 / 5
    assert not sigma_p_stable(chi, 2)
    with pytest.raises(NotRationalError):
        conductor(t, chi, on_unstable="ignore")
    with pytest.raises(StabilityError):
        conductor(t, chi, on_unstable="error")


def test_conductor_additive_and_regular_value():
    rng = random.Random(3)
    for r in [quad_sqrt2(), mixed_c6(), tame_cyclic(6, 5)]:
        irr = qp_irreducibles_cyclic(r.gamma.order, r.p)
        chis = [transport_to_cyclic(ch, r.gamma) for ch in irr]
        a, b = rng.sample(chis, 2)
        assert conductor(r, a + b, on_unstable="ignore") == conductor(
            r, a, on_unstable="ignore"
        ) + conductor(r, b, on_unstable="ignore")
        # conductor of the regular character = half the full discriminant valuation
        assert conductor(r, standard_characters(r.gamma)[0]) == Fraction(1, 2) * (
            discriminant_valuation(r, subgroup(r.gamma, [0]))
        )


def test_artin_conductor_examples():
    q = quad_sqrt2()
    assert artin_conductor(q, quad_chi()) == 3
    assert artin_conductor(q, standard_characters(q.gamma)[1]) == 0
    assert artin_conductor(q, standard_characters(q.gamma)[0]) == 3
    # bisection at the pairing level
    for r in [quad_sqrt2(), mixed_c6(), tame_cyclic(8, 3)]:
        for chi_std in qp_irreducibles_cyclic(r.gamma.order, r.p):
            chi = transport_to_cyclic(chi_std, r.gamma)
            assert artin_conductor(r, chi) == conductor(
                r, chi, on_unstable="ignore"
            ) + conductor(r, chi.conjugate(), on_unstable="ignore")


# -- Q_p-rational irreducibles ----------------------------------------------------


def test_qp_irreducibles_examples():
    degrees = sorted(ch.value(0).rational() for ch in qp_irreducibles_cyclic(4, 3))
    assert degrees == [1, 1, 2]
    assert all(
        ch.value(0).rational() == 1 for ch in qp_irreducibles_cyclic(3, 7)
    )
    assert len(qp_irreducibles_cyclic(1, 5)) == 1
    assert sorted(ch.value(0).rational() for ch in qp_irreducibles_cyclic(12, 2)) == [
        1, 1, 2, 2, 2, 4,
    ]
    # wild part: X^(p^k) - 1 factors through the p-power cyclotomic polynomials
    assert sorted(ch.value(0).rational() for ch in qp_irreducibles_cyclic(9, 3)) == [1, 2, 6]


def test_qp_irreducibles_refuse_p_not_zero_or_prime():
    # p = 1 would strip factors of 1 from n forever; a composite p has no Frobenius
    for p in (1, 4, -3):
        with pytest.raises(ValueError, match="0 or a prime"):
            qp_irreducibles_cyclic(4, p)


def test_qp_irreducibles_orthogonal_and_sum_to_regular():
    for n, p in [(12, 2), (6, 5), (8, 3), (9, 3), (10, 0), (7, 2)]:
        irr = qp_irreducibles_cyclic(n, p)
        g = cyclic_group(n)
        total = ClassFunction(g, tuple(ZERO for _ in g.classes))
        for i, a in enumerate(irr):
            assert sigma_p_stable(a, p)
            total = total + a
            for j, b in enumerate(irr):
                v = pair(a, b)
                if i == j:
                    # self-pairing = orbit size = field degree of the factor
                    assert v.rational() == a.value(0).rational()
                else:
                    assert v == ZERO
        assert total.values == standard_characters(g)[0].values


# -- Weil restriction ---------------------------------------------------------------


def test_weil_restriction_examples():
    q = quad_sqrt2()
    full = subgroup(q.gamma, [0, 1])
    lhs, rhs = weil_restriction_check(q, full, quad_chi())
    assert lhs == rhs == Fraction(3, 2)
    triv = subgroup(q.gamma, [0])
    lhs, rhs = weil_restriction_check(q, triv, standard_characters(triv.group)[1])
    assert lhs == rhs == Fraction(3, 2)  # 0 + (1/2) * 3 * 1
    m = mixed_c6()
    sub3 = subgroup(m.gamma, [0, 2, 4])
    sd = subgroup_data(m, sub3)
    chi = transport_to_cyclic(
        next(
            ch
            for ch in qp_irreducibles_cyclic(3, 2)
            if ch.value(0).rational() == 2
        ),
        sd.data.gamma,
    )
    lhs, rhs = weil_restriction_check(m, sub3, chi)
    assert lhs == rhs


def test_weil_restriction_all_fixture_subgroups():
    for r in [quad_sqrt2(), mixed_c6(), tame_cyclic(12, 7), tame_cyclic(9, 2)]:
        for sub in all_subgroups(r.gamma):
            sd = subgroup_data(r, sub)
            for chi_std in qp_irreducibles_cyclic(sub.order, r.p):
                chi = transport_to_cyclic(chi_std, sd.data.gamma)
                lhs, rhs = weil_restriction_check(r, sub, chi, on_unstable="error")
                assert lhs == rhs


# -- averaging consistency ------------------------------------------------------------


def test_averaged_pairing_agrees_on_stable_characters():
    for r in [quad_sqrt2(), mixed_c6(), tame_cyclic(12, 7), tame_cyclic(5, 3)]:
        for chi_std in qp_irreducibles_cyclic(r.gamma.order, r.p):
            chi = transport_to_cyclic(chi_std, r.gamma)
            assert conductor(r, chi, on_unstable="ignore") == conductor(
                r, chi, averaged=True, on_unstable="ignore"
            )


def test_averaged_refined_artin_pairs_identically():
    r = mixed_c6()
    bar = refined_artin(r)
    bar_avg = p_average(bar, r.p, r.n)
    for chi_std in qp_irreducibles_cyclic(6, 2):
        chi = transport_to_cyclic(chi_std, r.gamma)
        assert pair(bar, chi) == pair(bar_avg, chi)


# -- verify_suite ----------------------------------------------------------------------


def test_verify_suite_passes_on_fixtures():
    for r in [quad_sqrt2(), tame_cyclic(12, 7), mixed_c6()]:
        rep = verify_suite(r)
        assert all(rec.passed for rec in rep.records), rep.summary()
        assert all("." not in rec.expected for rec in rep.records)  # no floats anywhere


def test_verify_suite_detects_corruption():
    bad = tame_cyclic(4, 7)._replace(tame_exponent=2)
    rep = verify_suite(bad)
    assert not rep.binding_ok
    names = {rec.name for rec in rep.records if not rec.passed}
    assert "bisection" in names


def test_verify_rows_pass_exactly_when_expected_equals_computed():
    """The row rule: passed == (expected == computed) on every record, over
    the curated fixtures, the abstract sextic (whose quotient by the tame
    part is refused) and a corrupted datum, with and without advisory."""
    from refartin.fixtures import curated_fixtures, mixed_c6_abstract

    data = [r for _, r in curated_fixtures()]
    data += [mixed_c6_abstract(), tame_cyclic(5, 11)._replace(tame_exponent=2)]
    records = [rec for r in data for advisory in (False, True)
               for rec in verify_suite(r, advisory=advisory).records]
    for rec in records:
        assert rec.passed == (rec.expected == rec.computed), rec.to_json()
    assert any(not rec.passed for rec in records)
    assert any(rec.computed.startswith("error: ") for rec in records)


def test_verify_suite_advisory_flagging():
    rng = random.Random(42)
    found_advisory = False
    for r in datagen.sample(6, seed=77):
        rep = verify_suite(r, advisory=True)
        # formal identities stay binding and must pass even on abstract data
        for rec in rep.records:
            if rec.binding:
                assert rec.passed, rec.to_json()
            else:
                found_advisory = True
    assert found_advisory


def test_verify_suite_computes_each_conductor_once(monkeypatch):
    import sys

    module = sys.modules["refartin.conductor"]
    calls = []

    def counting(r, chi, *, averaged=False, on_unstable="warn"):
        calls.append((r, chi, averaged))
        return conductor(r, chi, averaged=averaged, on_unstable=on_unstable)

    monkeypatch.setattr(module, "conductor", counting)
    r = tame_cyclic(12, 13)
    verify_suite(r)
    # for H = G both sides of the Weil identity pair chi with r itself, so
    # only the subextension data are checked for repeats
    on_subdata = [call for call in calls if call[0] != r]
    assert on_subdata and len(set(on_subdata)) == len(on_subdata)


@pytest.mark.parametrize("data", [
    mixed_c6,
    lambda: build_ramification(build_group({"abelian": [2, 2, 2]}), [list(range(8))] * 2, 2),
], ids=["mixed-c6", "abelian-2-2-2"])
def test_verify_suite_builds_one_quotient_per_normal_subgroup(monkeypatch, data):
    """The quotient-pushforward identity reads both of its sides off one
    projection per normal subgroup."""
    import sys

    calls = []

    def counting(parent, normal):
        calls.append(normal.members)
        return quotient(parent, normal)

    for name in ("refartin.grouptheory", "refartin.ramification", "refartin.conductor"):
        monkeypatch.setattr(sys.modules[name], "quotient", counting)
    r = data()
    normals = [s.members for s in all_subgroups(r.gamma) if s.is_normal()]
    rep = verify_suite(r)
    assert sorted(calls) == sorted(normals)
    assert sum(rec.name == "quotient-pushforward" for rec in rep.records) == len(normals)


def _count_p_average(monkeypatch) -> list:
    """Record the (p, n) of every ramification.p_average call, starting from
    an empty refined_artin cache."""
    import refartin.ramification as ramification

    calls = []

    def counting(chi, p, n):
        calls.append((p, n))
        return p_average(chi, p, n)

    monkeypatch.setattr(ramification, "p_average", counting)
    refined_artin.cache_clear()
    return calls


def test_averaged_conductor_averages_once(monkeypatch):
    calls = _count_p_average(monkeypatch)
    r = tame_cyclic(12, 13)
    chis = qp_irreducibles_cyclic(12, 13)
    assert len(chis) == 12
    for chi in chis:
        conductor(r, chi, averaged=True)
    assert len(calls) == 1


def test_verify_suite_averages_once_per_datum(monkeypatch):
    calls = _count_p_average(monkeypatch)
    r = tame_cyclic(12, 13)
    verify_suite(r)
    data = {r} | {subgroup_data(r, sub).data for sub in all_subgroups(r.gamma)}
    assert 0 < len(calls) <= len(data)


def test_qp_irreducibles_build_one_period_per_orbit(monkeypatch):
    import sys

    from refartin.cyclotomic import from_terms

    conductor_module = sys.modules["refartin.conductor"]
    calls = []

    def counting(n, terms):
        calls.append(n)
        return from_terms(n, terms)

    monkeypatch.setattr(conductor_module, "from_terms", counting)
    for n, p in [(12, 13), (12, 5), (12, 2), (16, 3), (9, 3), (7, 0)]:
        calls.clear()
        chis = qp_irreducibles_cyclic(n, p)
        assert len(calls) == len(chis)


def test_report_records_are_exact_and_serializable():
    import json

    rep = verify_suite(quad_sqrt2())
    for rec in rep.records:
        parsed = json.loads(rec.to_json())
        assert set(parsed) == {"name", "inputs", "expected", "computed", "passed", "binding"}


def test_artin_conductor_matches_breaks_formula():
    # classical formula for a linear character: the conductor exponent is
    # sum over i >= 0 of |Gamma_i|/|Gamma_0| taken over the i where chi is
    # nontrivial on Gamma_i
    from refartin.fixtures import cyclotomic_tower_data, mixed_c6
    from refartin.grouptheory import abelian_irreducibles

    for r in [quad_sqrt2(), mixed_c6(), cyclotomic_tower_data(3, 2), tame_cyclic(8, 3)]:
        for chi in abelian_irreducibles(r.gamma):
            expected = Fraction(0)
            for i in range(len(r.filtration)):
                members = r.members_at(i)
                if any(chi.value(g) != ONE for g in members):
                    expected += Fraction(len(members), r.e)
            assert artin_conductor(r, chi) == expected, (r, chi.values)


def test_discriminant_equals_sum_of_abelian_conductors():
    # conductor-discriminant formula over the full character group
    from refartin.fixtures import cyclotomic_tower_data, mixed_c6
    from refartin.grouptheory import abelian_irreducibles
    from refartin.ramification import different_valuation

    for r in [quad_sqrt2(), mixed_c6(), cyclotomic_tower_data(3, 2), tame_cyclic(6, 5)]:
        total = sum(artin_conductor(r, chi) for chi in abelian_irreducibles(r.gamma))
        assert total == discriminant_valuation(r, subgroup(r.gamma, [0]))
