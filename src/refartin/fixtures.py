"""Curated ramification fixtures and monogenic orders used by tests and demos.

Every fixture here models a genuine extension of local fields, so the full
identity battery (including integer upper jumps for the abelian ones) is
binding on it.  The one deliberate exception is flagged in its docstring.
"""

from __future__ import annotations

from math import comb

from ._poly import pcompose
from .cyclotomic import cyclotomic_polynomial, is_prime
from .grouptheory import cyclic_group
from .oracle import MonogenicOrder, build_monogenic_order, filtration_from_monogenic
from .ramification import RamificationData, build_ramification


def quad_sqrt2() -> RamificationData:
    """The ramified quadratic extension of the 2-adics generated by sqrt(2):
    Gamma_0 = Gamma_1 = Gamma_2 = Gamma of order 2, break at 2."""
    c2 = cyclic_group(2)
    return build_ramification(c2, [[0, 1], [0, 1], [0, 1]], 2)


def tame_cyclic(n: int, p: int, exponent: int = 1) -> RamificationData:
    """Totally tamely ramified cyclic data of degree n over residue
    characteristic p (p = 0 allowed); Psi(generator) = zeta_n^exponent."""
    cn = cyclic_group(n)
    tame = (1, exponent) if n > 1 else None
    return build_ramification(cn, [list(range(n))], p, tame)


def unramified(order: int, p: int) -> RamificationData:
    """Unramified data: trivial inertia inside a cyclic group."""
    return build_ramification(cyclic_group(order), [], p)


def mixed_c6() -> RamificationData:
    """Cyclic sextic data at p = 2 with tame degree 3 and wild breaks at 1..3,
    modeling the compositum of an unramified-base tame cubic with the
    sqrt(2)-quadratic; upper jumps are 0 and 1."""
    c6 = cyclic_group(6)
    fil = [list(range(6)), [0, 3], [0, 3], [0, 3]]
    return build_ramification(c6, fil, 2, (1, 1))


def mixed_c6_abstract() -> RamificationData:
    """Admissible but unrealizable sextic data (wild breaks at 1..2 only).

    Its upper jump 2/3 is not an integer, so no abelian extension produces
    it, and its quotient by the tame part is not admissible; it is kept as a
    stress case for the abstract-data code paths.
    """
    c6 = cyclic_group(6)
    fil = [list(range(6)), [0, 3], [0, 3]]
    return build_ramification(c6, fil, 2, (1, 1))


def quad_order() -> MonogenicOrder:
    """Z[x]/(x^2 - 2) at p = 2 with sigma(x) = -x."""
    return build_monogenic_order(2, [-2, 0, 1], [[0, 1], [0, -1]])


def cyclotomic_tower_order(p: int, k: int) -> MonogenicOrder:
    """The order of the p^k-th cyclotomic extension of the p-adics, generated
    by x = zeta - 1 (Eisenstein); Galois maps x -> (x+1)^j - 1 for j prime
    to p.  Built once per (p, k) while ``build_monogenic_order`` keeps it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p**k
    phi = pcompose(cyclotomic_polynomial(q), (1, 1))
    # (x+1)^j - 1
    maps = [(0,) + tuple(comb(j, i) for i in range(1, j + 1)) for j in range(1, q) if j % p]
    maps.sort(key=lambda g: g != (0, 1))  # identity first
    return build_monogenic_order(p, phi, maps)


def real_cubic_order7() -> MonogenicOrder:
    """The order Z[y] of the real cubic subfield of the 7th cyclotomic field,
    y = zeta_7 + zeta_7^{-1} - 2, minimal polynomial y^3 + 7y^2 + 14y + 7
    (Eisenstein at 7); a totally tamely ramified cubic at p = 7 where two
    primes of Z[zeta_3] lie above 7."""
    return build_monogenic_order(7, [7, 14, 7, 1], [[0, 1], [0, 4, 1], [-7, -5, -1]])


def cyclotomic_tower_data(p: int, k: int, prime_choice: int = 0) -> RamificationData:
    """Ramification data of the p^k-th cyclotomic extension of the p-adics,
    derived through the monogenic oracle."""
    return filtration_from_monogenic(cyclotomic_tower_order(p, k), prime_choice)


def curated_fixtures() -> list[tuple[str, RamificationData]]:
    """The named fixtures on which every identity is binding."""
    out: list[tuple[str, RamificationData]] = [("quad-sqrt2", quad_sqrt2())]
    for n in range(1, 13):
        for p in _coprime_primes(n):
            out.append((f"tame-c{n}-p{p}", tame_cyclic(n, p)))
    out.append(("mixed-c6", mixed_c6()))
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        out.append((f"cyclotomic-{p}^{k}", cyclotomic_tower_data(p, k)))
    return out


def _coprime_primes(n: int) -> list[int]:
    first = next(p for p in (2, 3, 5, 7, 11, 13) if n % p)
    second = next(p for p in (7, 11, 13, 5, 3, 2) if n % p and p != first)
    # a prime congruent to 1 mod n, where every character is Frobenius-stable
    split = 2
    while split % n != 1 % n or not is_prime(split):
        split += 1
    return sorted({first, second, split})
