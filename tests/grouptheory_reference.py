"""Reference pairing and Q_p-irreducible characters, for differential tests.

These are the earlier implementations: the pairing puts every classwise term
f1(c) * conj(f2(c)) * |c| in canonical form before one ``cyclo_sum``, and each
value of a Q_p-irreducible character of C_n is the ``cyclo_sum`` of its roots
of unity, each built by ``make_root``.  They are slow and kept only as
oracles for ``refartin.grouptheory.pair`` and
``refartin.conductor.qp_irreducibles_cyclic``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from refartin.cyclotomic import Cyclotomic, cyclo_sum, make_root
from refartin.grouptheory import ClassFunction, GroupValidationError, cyclic_group


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
