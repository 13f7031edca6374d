"""Acceptance battery: every criterion is replayed at exact (zero) tolerance.

Each test prints one pass/fail line (visible under ``pytest -s``); exact
rational/cyclotomic equality everywhere, no floats, no tolerances.
"""

from fractions import Fraction

import pytest

from refartin.cyclotomic import ZERO
from refartin.conductor import (
    conductor,
    qp_irreducibles_cyclic,
    transport_to_cyclic,
    verify_suite,
    weil_restriction_check,
)
from refartin.fixtures import (
    curated_fixtures,
    cyclotomic_tower_data,
    cyclotomic_tower_order,
    quad_order,
    quad_sqrt2,
    tame_cyclic,
)
from refartin.grouptheory import (
    all_subgroups,
    cyclic_group,
    hom,
    pair,
    pullback,
    pushforward,
    quotient,
    standard_characters,
)
from refartin.oracle import oracle_monogenic_clin, oracle_tame_clin, regular_action
from refartin.ramification import (
    artin_character,
    bar_n,
    different_valuation,
    discriminant_valuation,
    p_average,
    power_character,
    quotient_data,
    refined_artin,
    refined_artin_upper,
    subgroup_data,
    upper_jumps,
)

import datagen

RANDOM_SAMPLE_SIZE = 100


class criterion:
    """Prints one pass/fail line per criterion, whatever happens inside."""

    def __init__(self, number, detail=""):
        self.number, self.detail = number, detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number}: {verdict} {self.detail}".rstrip())
        return False


@pytest.fixture(scope="module")
def random_data():
    sample = datagen.sample(RANDOM_SAMPLE_SIZE, seed=20260811)
    assert all(r.gamma.order <= 24 for r in sample)
    return sample


@pytest.fixture(scope="module")
def fixtures():
    return curated_fixtures()


def test_criterion_01_bar_relation_battery():
    """Relations (i)-(iv) of the bisecting functions, 1 <= n <= 24, 1 <= d <= 5."""
    with criterion(1) as c:
        checked = 0
        for n in range(1, 25):
            cn = cyclic_group(n)
            reg, triv, aug = standard_characters(cn)
            bn = bar_n(n)
            assert pair(bn, triv) == ZERO  # (i)
            assert pair(bn.conjugate(), triv) == ZERO
            assert (bn + bn.conjugate()).values == aug.values  # (ii)
            for d in range(1, 6):
                nd = n * d
                cnd = cyclic_group(nd)
                bnd = bar_n(nd)
                power_map = hom(cnd, cn, [a % n for a in range(nd)])  # (iii)
                assert pushforward(power_map, bnd).values == bn.values
                incl = hom(cn, cnd, [(a * d) % nd for a in range(n)])  # (iv)
                expected = bn + reg.scale(Fraction(d - 1, 2))
                assert pullback(incl, bnd).values == expected.values
                checked += 1
        c.detail = f"({checked} (n, d) pairs, exact)"


def test_criterion_02_bar_pairing_values():
    """(bar_n | chi_r) = r/n for all n <= 24, 0 <= r < n."""
    with criterion(2) as c:
        count = 0
        for n in range(1, 25):
            bn = bar_n(n)
            for r in range(n):
                assert pair(bn, power_character(n, r)).rational() == Fraction(r, n)
                count += 1
        c.detail = f"({count} pairings, exact)"


def test_criterion_03_bisection(fixtures, random_data):
    """refined + conjugate = artin on every fixture and 100 random data sets."""
    with criterion(3) as c:
        for name, r in fixtures:
            bar = refined_artin(r)
            assert (bar + bar.conjugate()).values == artin_character(r).values, name
        for r in random_data:
            bar = refined_artin(r)
            assert (bar + bar.conjugate()).values == artin_character(r).values
        c.detail = f"({len(fixtures)} fixtures + {len(random_data)} random, exact)"


def test_criterion_04_lower_upper_agreement(fixtures, random_data):
    """The lower- and upper-numbering constructions agree exactly."""
    with criterion(4) as c:
        for name, r in fixtures:
            assert refined_artin_upper(r).values == refined_artin(r).values, name
        for r in random_data:
            assert refined_artin_upper(r).values == refined_artin(r).values
        c.detail = f"({len(fixtures)} fixtures + {len(random_data)} random, exact)"


def test_criterion_05_pushforward_and_restriction(fixtures, random_data):
    """Quotient pushforward and subgroup restriction identities: binding on
    every curated fixture over all (normal) subgroups; the same checks run on
    random admissible data and are reported as advisory."""
    with criterion(5) as c:
        for name, r in fixtures:
            bar = refined_artin(r)
            for nsub in datagen.all_normal_subgroups(r.gamma):
                _, proj = quotient(r.gamma, nsub)
                assert (
                    pushforward(proj, bar).values
                    == refined_artin(quotient_data(r, nsub)).values
                ), (name, nsub.members)
            bar_avg = p_average(bar, r.p, r.n)
            for sub in all_subgroups(r.gamma):
                sd = subgroup_data(r, sub)
                lhs = pullback(sub.inclusion, bar_avg)
                rhs = p_average(refined_artin(sd.data), sd.data.p, sd.data.n).scale(sd.f_mk)
                rhs = rhs + standard_characters(sub.group)[0].scale(
                    Fraction(1, 2) * discriminant_valuation(r, sub)
                )
                assert lhs.values == rhs.values, (name, sub.members)
        advisory_failures = 0
        advisory_rows = 0
        for r in random_data[:12]:
            report = verify_suite(r, advisory=True)
            assert report.binding_ok, report.summary()
            for rec in report.records:
                if not rec.binding:
                    advisory_rows += 1
                    if not rec.passed:
                        advisory_failures += 1
        c.detail = (
            f"(binding on {len(fixtures)} fixtures; "
            f"{advisory_rows} advisory rows on random data, {advisory_failures} flagged)"
        )


def test_criterion_06_conductor_discriminant(fixtures, random_data):
    """(Ar | Ind 1) equals the different-sum discriminant valuation, exactly,
    on all fixtures and random admissible data."""
    with criterion(6) as c:
        count = 0
        for collection in ([r for _, r in fixtures], random_data):
            for r in collection:
                ar = artin_character(r)
                for sub in all_subgroups(r.gamma):
                    ind1 = pushforward(sub.inclusion, standard_characters(sub.group)[1])
                    assert pair(ar, ind1).rational() == discriminant_valuation(r, sub)
                    count += 1
        c.detail = f"({count} subgroup instances, exact)"


def test_criterion_07_tame_oracle_vs_pairing():
    """conductor(tame C_n, chi_(n-i)) = oracle_tame_clin(n, [i]) = (n-i)/n."""
    with criterion(7, "(n <= 12, two residue characteristics each, exact)"):
        for n in range(1, 13):
            p_split = next(  # p = 1 mod n: every character is stable
                q for q in range(2, 200)
                if q % n == 1 % n and all(q % d for d in range(2, q) if d * d <= q)
            )
            p_generic = next(q for q in (2, 3, 5, 7, 11, 13) if n % q)
            for p in (p_split, p_generic):
                t = tame_cyclic(n, p)
                for i in range(n):
                    expected = Fraction((n - i) % n, n)
                    assert oracle_tame_clin(n, [i]) == expected
                    got = conductor(
                        t, power_character(n, (n - i) % n), on_unstable="ignore"
                    )
                    assert got == expected, (n, p, i)


def test_criterion_08_worked_quadratic_example():
    """The quadratic worked example: c_lin(chi) = 1/2, c_lin(regular) = 3/2 =
    conductor of the regular character, and c_lin is not an isogeny invariant."""
    with criterion(8, "(1/2 vs 3/2, isogeny non-invariance reproduced)"):
        o = quad_order()
        c_chi = oracle_monogenic_clin(o, [[[1]], [[-1]]])
        c_reg = oracle_monogenic_clin(o, regular_action(o.group))
        assert c_chi == Fraction(1, 2)
        assert c_reg == Fraction(3, 2)
        data = quad_sqrt2()
        assert conductor(data, standard_characters(data.gamma)[0]) == Fraction(3, 2)
        c_triv = oracle_monogenic_clin(o, [[[1]], [[1]]])
        # the regular lattice and (trivial + sign) are isogenous yet differ:
        assert c_reg != c_triv + c_chi


def test_criterion_09_regular_module_triple_agreement():
    """Monogenic oracle = pairing = half different-sum on the p^k cyclotomic
    towers, p in {2, 3}, k <= 2."""
    with criterion(9, "(4 towers, exact)"):
        for p, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            order = cyclotomic_tower_order(p, k)
            data = cyclotomic_tower_data(p, k)
            a = oracle_monogenic_clin(order, regular_action(order.group))
            b = conductor(data, standard_characters(data.gamma)[0])
            half = Fraction(different_valuation(data), 2)
            assert a == b == half, (p, k, a, b, half)


def test_criterion_10_weil_restriction(fixtures):
    """Induction identity for every subgroup of every fixture and every
    stable irreducible from the cyclic Q_p-decomposition."""
    with criterion(10) as c:
        count = 0
        for name, r in fixtures:
            for sub in all_subgroups(r.gamma):
                sd = subgroup_data(r, sub)
                for chi_std in qp_irreducibles_cyclic(sub.order, r.p):
                    chi = transport_to_cyclic(chi_std, sd.data.gamma)
                    lhs, rhs = weil_restriction_check(r, sub, chi, on_unstable="error")
                    assert lhs == rhs, (name, sub.members)
                    count += 1
        c.detail = f"({count} instances, exact)"


def test_criterion_11_averaging_consistency(fixtures):
    """Pairing with the averaged refined character agrees with the plain one
    on every stable character in the test set."""
    with criterion(11) as c:
        count = 0
        for name, r in fixtures:
            bar = refined_artin(r)
            bar_avg = p_average(bar, r.p, r.n)
            for chi_std in qp_irreducibles_cyclic(r.gamma.order, r.p):
                chi = transport_to_cyclic(chi_std, r.gamma)
                assert pair(bar, chi) == pair(bar_avg, chi), name
                count += 1
        c.detail = f"({count} characters, exact)"


def test_criterion_12_integer_upper_jumps(fixtures):
    """Integer upper-numbering jumps on all curated abelian fixtures."""
    with criterion(12) as c:
        for name, r in fixtures:
            assert r.gamma.is_abelian(), name
            for j in upper_jumps(r):
                assert j.denominator == 1, (name, j)
        c.detail = f"({len(fixtures)} abelian fixtures)"
