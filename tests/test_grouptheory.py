import random
from fractions import Fraction

import pytest

from refartin.cyclotomic import ONE, ZERO, from_rational, make_root
from refartin.grouptheory import (
    ClassFunction,
    GroupOrderError,
    GroupValidationError,
    MAX_SUBGROUPS,
    abelian_irreducibles,
    all_subgroups,
    build_group,
    compose,
    cyclic_group,
    group_from_table,
    hom,
    pair,
    pullback,
    pushforward,
    quotient,
    standard_characters,
    subgroup,
)

from datagen import all_normal_subgroups


def s3():
    return build_group({"perm": [[[1, 2]], [[1, 2, 3]]]})


# -- construction ------------------------------------------------------------


def test_build_group_examples():
    c4 = build_group({"cyclic": 4})
    assert c4.order == 4 and len(c4.classes) == 4
    ab = build_group({"abelian": [2, 2]})
    assert ab.order == 4 and len(ab.classes) == 4
    g = s3()
    assert g.order == 6
    assert sorted(len(c) for c in g.classes) == [1, 2, 3]


def test_table_axiom_checks():
    with pytest.raises(GroupValidationError):
        group_from_table([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(GroupValidationError):
        group_from_table([[1, 0], [0, 1]])  # identity not at index 0
    # associative magma with identity but a broken entry
    bad = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    bad[1][1] = 1  # now 1*1 = 1 but 1*2 = 0: not a group
    with pytest.raises(GroupValidationError):
        group_from_table(bad)


def test_perm_group_validation():
    with pytest.raises(GroupValidationError):
        build_group({"perm": [[[0, 1]]]})  # 0 is not a valid 1-based point
    with pytest.raises(GroupValidationError):
        build_group({"perm": [[[1, 1]]]})
    with pytest.raises(GroupValidationError, match="not disjoint"):
        build_group({"perm": [[[3, 1], [1, 2]]]})  # maps 1 -> 2 and 3 -> 1 -> 2


def test_perm_group_numbers_only_the_points_that_occur():
    assert build_group({"perm": [[[1, 10**30]]]}).order == 2
    assert build_group({"perm": [[[]], [[5, 7, 9]]]}).order == 3  # an empty cycle is trivial
    assert build_group({"perm": [[[2, 4]], [[2, 4, 6]]]}).table == s3().table


def test_group_specs_past_the_order_limit_are_refused():
    for spec in ({"cyclic": 201}, {"abelian": [201]}, {"table": [[0]] * 201},
                 {"perm": [[list(range(1, 202))]]}):
        with pytest.raises(GroupOrderError, match="past the limit 200"):
            build_group(spec)
    assert build_group({"perm": [[list(range(1, 201))]]}).order == 200


def test_powers():
    c12 = cyclic_group(12)
    assert c12.powers(1) == list(range(12))
    assert c12.powers(8) == [0, 8, 4] and c12.element_order(8) == 3
    assert c12.powers(0) == [0]
    assert c12.powers(1, stop={0, 4, 8}) == [0, 1, 2, 3]  # coset representatives mod <4>
    assert c12.powers(4, stop={0, 4, 8}) == [0]


def test_subgroup_quotient_hom_examples():
    c4 = cyclic_group(4)
    q, proj = quotient(c4, subgroup(c4, [0, 2]))
    assert q.order == 2
    fibers = {}
    for g, img in enumerate(proj.mapping):
        fibers.setdefault(img, []).append(g)
    assert sorted(len(f) for f in fibers.values()) == [2, 2]
    assert subgroup(s3(), [0]).order == 1
    h = hom(cyclic_group(2), c4, [0, 2])
    assert len(set(h.mapping)) == h.source.order  # injective
    with pytest.raises(GroupValidationError):
        hom(cyclic_group(2), c4, [0, 1])  # 1 has order 4, not a hom
    with pytest.raises(GroupValidationError):
        subgroup(c4, [0, 1])  # not closed
    g = s3()
    transposition = next(c for c in g.classes if len(c) == 3)[0]
    with pytest.raises(GroupValidationError):
        quotient(g, subgroup(g, [0, transposition]))  # not normal


# -- pairing and standard characters ------------------------------------------


def test_pair_examples():
    c6 = cyclic_group(6)
    reg, triv, aug = standard_characters(c6)
    assert pair(reg, triv) == ONE
    c2 = cyclic_group(2)
    _, _, u2 = standard_characters(c2)
    assert pair(u2, u2).rational() == 1  # |G| - 1
    chars = abelian_irreducibles(cyclic_group(5))
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert pair(a, b) == (ONE if i == j else ZERO)


def test_standard_character_values():
    c3 = cyclic_group(3)
    _, _, u3 = standard_characters(c3)
    assert [v.rational() for v in u3.values] == [2, -1, -1]
    g = s3()
    reg = standard_characters(g)[0]
    vals = {len(cls): reg.values[i].rational() for i, cls in enumerate(g.classes)}
    assert vals == {1: 6, 2: 0, 3: 0}
    _, triv7, aug7 = standard_characters(cyclic_group(7))
    assert pair(aug7, triv7) == ZERO


def test_pair_hermitian_on_random_inputs():
    rng = random.Random(7)
    g = cyclic_group(6)
    for _ in range(20):
        f1 = ClassFunction(
            g, tuple(make_root(6, rng.randrange(6)) * Fraction(rng.randrange(-2, 3)) for _ in range(6))
        )
        f2 = ClassFunction(
            g, tuple(make_root(6, rng.randrange(6)) * Fraction(rng.randrange(-2, 3)) for _ in range(6))
        )
        assert pair(f1, f2) == pair(f2, f1).conjugate()


# -- pullback / pushforward ---------------------------------------------------


def test_restrict_inflate_examples():
    # restriction and inflation are pullbacks along an inclusion and a projection
    c2, c4 = cyclic_group(2), cyclic_group(4)
    incl = hom(c2, c4, [0, 2])
    reg4, triv4, _ = standard_characters(c4)
    assert pullback(incl, reg4) == standard_characters(c2)[0].scale(2)
    q, proj = quotient(c4, subgroup(c4, [0, 2]))
    assert pullback(proj, standard_characters(q)[1]) == triv4
    chi1 = next(ch for ch in abelian_irreducibles(c4) if ch.value(1) == make_root(4, 1))
    assert pullback(incl, chi1).value(1) == from_rational(-1)


def test_pushforward_examples():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    incl = hom(c2, c4, [0, 2])
    pf = pushforward(incl, standard_characters(c2)[1])
    assert [pf.value(g).rational() for g in range(4)] == [2, 0, 2, 0]
    q, proj = quotient(c4, subgroup(c4, [0, 2]))
    assert pushforward(proj, standard_characters(c4)[0]) == standard_characters(q)[0]
    ident = hom(c4, c4, range(4))
    chi = abelian_irreducibles(c4)[1]
    assert pushforward(ident, chi) == chi


def _hom_catalog():
    """Injective, surjective and general homomorphisms between small groups."""
    out = []
    c2, c3, c4, c6, c12 = (cyclic_group(n) for n in (2, 3, 4, 6, 12))
    g = s3()
    out.append(hom(c2, c4, [0, 2]))
    out.append(hom(c3, c6, [0, 2, 4]))
    out.append(hom(c6, c2, [0, 1, 0, 1, 0, 1]))
    out.append(hom(c6, c3, [0, 1, 2, 0, 1, 2]))
    out.append(hom(c4, c2, [0, 1, 0, 1]))
    out.append(hom(c2, c2, [0, 0]))  # trivial, neither injective nor surjective to im
    transposition = next(c for c in g.classes if len(c) == 3)[0]
    out.append(hom(c2, g, [0, transposition]))
    q, proj = quotient(g, subgroup(g, sorted({0, *next(c for c in g.classes if len(c) == 2)})))
    out.append(proj)
    out.append(hom(c12, c4, [(3 * a) % 4 for a in range(12)]))  # neither inj nor surj? surj
    out.append(hom(c2, c12, [0, 6]))
    return out


def _random_cf(group, rng):
    return ClassFunction(
        group,
        tuple(
            make_root(4, rng.randrange(4)) * Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            for _ in group.classes
        ),
    )


def test_pushforward_adjunction():
    rng = random.Random(11)
    for alpha in _hom_catalog():
        for _ in range(4):
            chi = _random_cf(alpha.source, rng)
            chi_t = _random_cf(alpha.target, rng)
            assert pair(chi_t, pushforward(alpha, chi)) == pair(pullback(alpha, chi_t), chi)


def test_pushforward_composition():
    rng = random.Random(13)
    c2, c4 = cyclic_group(2), cyclic_group(4)
    q, proj = quotient(c4, subgroup(c4, [0, 2]))
    inner = hom(c2, c4, [0, 2])
    outer = proj
    comp = compose(outer, inner)
    for _ in range(5):
        chi = _random_cf(c2, rng)
        assert pushforward(comp, chi) == pushforward(outer, pushforward(inner, chi))


def test_pushforward_pullback_square():
    # for normal M, N in G: gamma_* alpha^* chi = delta^* beta_* chi on G/N
    rng = random.Random(17)
    for g in [cyclic_group(12), build_group({"abelian": [2, 4]}), s3()]:
        normals = all_normal_subgroups(g)
        for m in normals:
            for n in normals:
                gm, alpha = quotient(g, m)
                gn, gamma = quotient(g, n)
                mn_members = sorted({g.table[a][b] for a in m.members for b in n.members})
                gmn, _ = quotient(g, subgroup(g, mn_members))
                beta = _induced(gm, gmn, g, alpha, mn_members)
                delta = _induced(gn, gmn, g, gamma, mn_members)
                chi = _random_cf(gm, rng)
                assert pushforward(gamma, pullback(alpha, chi)) == pullback(
                    delta, pushforward(beta, chi)
                )


def _induced(src_quot, dst_quot, g, proj_src, mn_members):
    """The canonical surjection G/M -> G/(MN) determined by the projections."""
    _, proj_mn = quotient(g, subgroup(g, mn_members))
    mapping = [0] * src_quot.order
    for x in range(g.order):
        mapping[proj_src.mapping[x]] = proj_mn.mapping[x]
    return hom(src_quot, dst_quot, mapping)


# -- abelian irreducibles ------------------------------------------------------


def test_abelian_irreducibles_examples():
    c3 = cyclic_group(3)
    chars = abelian_irreducibles(c3)
    assert len(chars) == 3
    assert any(ch.value(1) == make_root(3, 1) for ch in chars)
    vals22 = abelian_irreducibles(build_group({"abelian": [2, 2]}))
    assert len(vals22) == 4
    assert all(v in (ONE, from_rational(-1)) for ch in vals22 for v in ch.values)
    c12 = cyclic_group(12)
    chars12 = abelian_irreducibles(c12)
    assert len(chars12) == 12
    for i, a in enumerate(chars12):
        for j, b in enumerate(chars12):
            assert pair(a, b) == (ONE if i == j else ZERO)
    with pytest.raises(GroupValidationError):
        abelian_irreducibles(s3())


def test_abelian_irreducibles_nontrivial_products():
    g = build_group({"abelian": [2, 6]})
    chars = abelian_irreducibles(g)
    assert len(chars) == 12
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            assert pair(a, b) == (ONE if i == j else ZERO)


def test_all_subgroups():
    assert len(all_subgroups(s3())) == 6
    assert len(all_normal_subgroups(s3())) == 3
    assert len(all_subgroups(cyclic_group(12))) == 6


def _subgroups_of_elementary_abelian(k: int) -> int:
    """The subgroups of (Z/2)^k: the sum over d of the Gaussian binomials [k, d]_2."""
    total = 0
    for d in range(k + 1):
        num = den = 1
        for i in range(d):
            num *= 2 ** (k - i) - 1
            den *= 2 ** (i + 1) - 1
        total += num // den
    return total


def test_subgroup_lattice_limit_admits_rank_6_and_not_rank_7():
    for k in range(1, 5):
        assert len(all_subgroups(build_group({"abelian": [2] * k}))) == \
            _subgroups_of_elementary_abelian(k)
    assert _subgroups_of_elementary_abelian(6) == 2825 <= MAX_SUBGROUPS
    assert _subgroups_of_elementary_abelian(7) == 29212 > MAX_SUBGROUPS


def test_all_subgroups_stops_past_the_lattice_limit(monkeypatch):
    import refartin.grouptheory as gt

    monkeypatch.setattr(gt, "MAX_SUBGROUPS", 15)
    with pytest.raises(GroupOrderError, match="past the limit 15"):
        all_subgroups(build_group({"abelian": [2, 2, 2]}))
    monkeypatch.setattr(gt, "MAX_SUBGROUPS", 16)
    assert len(all_subgroups(build_group({"abelian": [2, 2, 2]}))) == 16
