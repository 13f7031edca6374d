"""Reference implementations of group-layer kernels, for differential tests.

These are the earlier implementations: the pairing puts every classwise term
f1(c) * conj(f2(c)) * |c| in canonical form before one ``cyclo_sum``; each
value of a Q_p-irreducible character of C_n is the ``cyclo_sum`` of its roots
of unity, each built by ``make_root``; the subgroup lattice is closed by
joining every known subgroup with every element until nothing new appears;
normality is tested by conjugating every member by every element; and the
pushforward sums its source values element by element.  They are slow and
kept only as oracles for ``refartin.grouptheory`` (``pair``,
``all_subgroups``, ``Subgroup.is_normal``, ``pushforward``) and
``refartin.conductor.qp_irreducibles_cyclic``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from refartin.cyclotomic import Cyclotomic, closure, cyclo_sum, make_root
from refartin.grouptheory import (
    ClassFunction,
    FiniteGroup,
    GroupHom,
    GroupValidationError,
    Subgroup,
    cyclic_group,
)


def pair(f1: ClassFunction, f2: ClassFunction) -> Cyclotomic:
    """(f1|f2) = (1/|G|) sum_g f1(g) conj(f2(g)), one canonical value per class."""
    if f1.group != f2.group:
        raise GroupValidationError("class functions live on different groups")
    g = f1.group
    terms = []
    for ci, cls in enumerate(g.classes):
        v = f1.values[ci] * f2.values[ci].conjugate()
        if v:
            terms.append(v * len(cls))
    return cyclo_sum(terms) * Fraction(1, g.order)


def qp_irreducibles_cyclic(n: int, p: int) -> list[ClassFunction]:
    """The orbit sums sum_{r in orbit} chi_r on the standard cyclic group, in
    the order of their smallest exponent.  The orbits are those of the units
    u mod n whose reduction mod the prime-to-p part m of n is a power of p
    (every unit when p = 0)."""
    m = n
    while p and m % p == 0:
        m //= p
    powers = {pow(p, i, m) for i in range(m)} if p else None
    units = [
        u for u in range(1, n + 1)
        if gcd(u, n) == 1 and (powers is None or u % m in powers)
    ]
    group = cyclic_group(n)
    seen: set[int] = set()
    out = []
    for a in range(n):
        if a in seen:
            continue
        orbit = sorted({a * u % n for u in units})
        seen.update(orbit)
        values = [cyclo_sum([make_root(n, r * g) for r in orbit]) for g in range(n)]
        out.append(ClassFunction(group, tuple(values)))
    return out


def all_subgroup_members(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Member tuples of all subgroups, ordered by (order, member tuple)."""
    found = {tuple(sorted(closure((h,), g.mul, 0))) for h in range(g.order)}
    grew = True
    while grew:
        grew = False
        for a in list(found):
            for x in range(g.order):
                if x in a:
                    continue
                b = tuple(sorted(closure(a + (x,), g.mul, 0)))
                if b not in found:
                    found.add(b)
                    grew = True
    return sorted(found, key=lambda m: (len(m), m))


def is_normal(s: Subgroup) -> bool:
    """g^-1 h g lies in the subgroup for every element g and member h."""
    memset = set(s.members)
    t, inv = s.parent.table, s.parent.inverse
    return all(
        t[inv[g]][t[h][g]] in memset for g in range(s.parent.order) for h in s.members
    )


def pushforward(alpha: GroupHom, chi: ClassFunction) -> ClassFunction:
    """(alpha_* chi)(c') = (|G'| / (|G| |c'|)) * sum_{g : alpha(g) in c'} chi(g)."""
    src, tgt = alpha.source, alpha.target
    sums: list[list[Cyclotomic]] = [[] for _ in tgt.classes]
    for g in range(src.order):
        sums[tgt.class_of[alpha.mapping[g]]].append(chi.value(g))
    vals = [
        cyclo_sum(sums[ci]) * Fraction(tgt.order, src.order * len(cls))
        for ci, cls in enumerate(tgt.classes)
    ]
    return ClassFunction(tgt, tuple(vals))
