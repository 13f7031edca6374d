"""Random admissible ramification data for property tests.

These are abstract data: every structural invariant holds, but nothing
guarantees a genuine extension realizes them, so only the formal identities
(bisection, lower/upper agreement, conductor-discriminant) are binding on
them; the extension-dependent identities run in advisory mode.
"""

from __future__ import annotations

import random
from math import gcd

from refartin.grouptheory import (
    FiniteGroup,
    Subgroup,
    abelian_group,
    all_subgroups,
    build_group,
    cyclic_group,
)
from refartin.ramification import (
    RamificationData,
    build_ramification,
    proj_order,
)


def all_normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    return [s for s in all_subgroups(g) if s.is_normal()]


def group_pool() -> list[FiniteGroup]:
    pool = [cyclic_group(n) for n in (1, 2, 3, 4, 6, 8, 9, 12, 24)]
    pool += [abelian_group(t) for t in ((2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6))]
    pool.append(build_group({"perm": [[[1, 2]], [[1, 2, 3]]]}))  # S3
    pool.append(build_group({"perm": [[[1, 2, 3, 4]], [[2, 4]]]}))  # D4
    return pool


def _is_p_group(order: int, p: int) -> bool:
    if order == 1:
        return True
    while order % p == 0:
        order //= p
    return order == 1


def random_admissible(rng: random.Random) -> RamificationData:
    """One admissible datum: random group, prime, filtration chain and Psi."""
    pool = group_pool()
    while True:
        gamma = rng.choice(pool)
        p = rng.choice([0, 2, 2, 3, 3, 5, 7])
        normals = all_normal_subgroups(gamma)
        candidates = []
        for g0 in normals:
            for g1 in normals:
                if not set(g1.members) <= set(g0.members):
                    continue
                if p == 0 and g1.order != 1:
                    continue
                if p > 0 and not _is_p_group(g1.order, p):
                    continue
                n = g0.order // g1.order
                if p > 0 and n % p == 0:
                    continue
                groups = [frozenset(g0.members), frozenset(g1.members)]
                gens = [
                    g
                    for g in g0.members
                    if proj_order(gamma, groups, g) == n
                ]
                if not gens:
                    continue  # tame quotient not cyclic
                candidates.append((g0, g1, n, gens))
        if not candidates:
            continue
        g0, g1, n, gens = rng.choice(candidates)
        # descending chain of normal p-subgroups below Gamma_1, with repeats
        chain = [list(g0.members), list(g1.members)]
        cur = g1
        while cur.order > 1 and rng.random() < 0.7:
            repeats = rng.randrange(1, 3)
            chain.extend([list(cur.members)] * repeats)
            smaller = [
                s
                for s in normals
                if set(s.members) < set(cur.members) and _is_p_group(s.order, p)
            ]
            if not smaller or rng.random() < 0.3:
                break
            cur = rng.choice(smaller)
            if cur.order > 1:
                chain.append(list(cur.members))
        tame = None
        if n > 1:
            k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
            tame = (rng.choice(gens), k)
        return build_ramification(gamma, chain, p, tame)


def sample(count: int, seed: int = 20260811) -> list[RamificationData]:
    rng = random.Random(seed)
    return [random_admissible(rng) for _ in range(count)]
