"""Ramification data for finite Galois extensions of local fields.

A :class:`RamificationData` is the combinatorial stand-in for L/K: the Galois
group, its lower-numbering filtration Gamma_0 >= Gamma_1 >= ... (normal in
Gamma, Gamma_1 a p-group, Gamma_0/Gamma_1 cyclic of order n prime to p), the
residue characteristic p (0 for equal characteristic zero, in which case
Gamma_1 is trivial), and the tame character Psi identifying Gamma_0/Gamma_1
with the n-th roots of unity.  Psi is stored as a generator of Gamma_0 mod
Gamma_1 together with an exponent k, meaning Psi(generator) = zeta_n^k; the
choice of the identification is part of the input.

Conventions follow Serre, Corps Locaux: for real u > -1 the group Gamma_u is
Gamma_ceil(u), the Herbrand function phi is the resulting continuous
piecewise-linear map with phi'(u) = 1/[Gamma_0 : Gamma_u], psi its inverse,
and the upper numbering is Gamma^v = Gamma_psi(v).

:func:`build_ramification` builds everything the datum is read through once:
the filtration subgroups Gamma_0, ..., Gamma_L (Gamma_L the first trivial
one) and the vertices of phi at u = -1, 0, 1, ..., L + 1.  phi and psi
interpolate those vertices, forwards and with the axes swapped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd
from typing import NamedTuple, Sequence

from .cyclotomic import frobenius_average, from_terms, is_prime, roots_of_unity, split_p
from .grouptheory import (
    ClassFunction,
    FiniteGroup,
    GroupHom,
    Subgroup,
    combine,
    compared_fields,
    cyclic_group,
    pushforward,
    quotient,
    standard_characters,
    subgroup,
)


class RamificationError(ValueError):
    """Raised when ramification data violates a structural invariant."""


class OracleError(ValueError):
    """Raised when oracle input violates a structural invariant.  Defined
    here, not in :mod:`refartin.oracle`, so the CLI's error table needs no
    oracle import."""


class RamificationData(NamedTuple):
    """Validated ramification data; build through :func:`build_ramification`.
    Equality, hashing and repr read the first five fields; the last two are
    derived from them."""

    gamma: FiniteGroup
    filtration: tuple[frozenset[int], ...]  # Gamma_0, Gamma_1, ...; trailing 1's trimmed
    p: int
    tame_generator: int  # element of Gamma_0 generating Gamma_0/Gamma_1
    tame_exponent: int  # Psi(generator) = zeta_n^tame_exponent
    # Gamma_0, ..., Gamma_L with Gamma_L = 1, L = len(filtration)
    subgroups: tuple[Subgroup, ...]
    # (u, phi(u)) for u = -1, 0, 1, ..., L + 1
    phi_vertices: tuple[tuple[Fraction, Fraction], ...]

    __eq__, __ne__, __hash__ = compared_fields(5)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:5], self))
        return f"RamificationData({fields})"

    @property
    def e(self) -> int:
        """Ramification index |Gamma_0|."""
        return len(self.filtration[0]) if self.filtration else 1

    @property
    def f(self) -> int:
        """Inertial degree [Gamma : Gamma_0]."""
        return self.gamma.order // self.e

    @property
    def n(self) -> int:
        """Order of the tame quotient Gamma_0/Gamma_1."""
        return self.e // self.wild_order

    @property
    def wild_order(self) -> int:
        return len(self.filtration[1]) if len(self.filtration) > 1 else 1

    def members_at(self, i: int) -> frozenset[int]:
        """Gamma_i as a member set (Gamma_{-1} = Gamma, trivial beyond the list)."""
        if i < 0:
            return frozenset(range(self.gamma.order))
        if i < len(self.filtration):
            return self.filtration[i]
        return frozenset({0})

    def subgroup_at(self, i: int) -> Subgroup:
        """Gamma_i as a subgroup; Gamma_{-1} = Gamma is built on each call."""
        if i < 0:
            return subgroup(self.gamma, range(self.gamma.order))
        return self.subgroups[min(i, len(self.filtration))]

    def order_at(self, i: int) -> int:
        return len(self.members_at(i))


def build_ramification(
    gamma: FiniteGroup,
    filtration: Sequence[Sequence[int]],
    p: int,
    tame: tuple[int, int] | None = None,
) -> RamificationData:
    """Validate and assemble ramification data.

    ``filtration`` lists the member sets of Gamma_0, Gamma_1, ...; trailing
    trivial groups may be included or omitted.  ``tame`` is the pair
    (generator, exponent) describing Psi; it may be omitted when n = 1.
    """
    if p != 0 and not is_prime(p):
        raise RamificationError(f"residue characteristic {p} is neither 0 nor prime")
    groups, e, wild, n = _shape(filtration)
    subs = [subgroup(gamma, sorted(m)) for m in groups] + [subgroup(gamma, (0,))]
    for i, s in enumerate(subs[:-1]):
        if not s.is_normal():
            raise RamificationError(f"filtration group at index {i} is not normal")
    for i in range(1, len(groups)):
        if not groups[i] <= groups[i - 1]:
            raise RamificationError(f"filtration is not decreasing at index {i}")
    if p == 0:
        if wild != 1:
            raise RamificationError("equal characteristic zero requires trivial wild inertia")
    else:
        if split_p(wild, p)[1] != 1:
            raise RamificationError(f"wild inertia order {wild} is not a power of p={p}")
        if n % p == 0:
            raise RamificationError("tame quotient order is divisible by p")
    # Gamma_0/Gamma_1 has order n, so it is cyclic iff some element has order n
    if groups and not any(proj_order(gamma, groups, g) == n for g in groups[0]):
        raise RamificationError("tame quotient Gamma_0/Gamma_1 is not cyclic")
    if n == 1:
        # Psi carries no information on a trivial quotient
        generator, exponent = 0, 0
    else:
        if tame is None:
            raise RamificationError("tame character required when the tame quotient is nontrivial")
        generator, exponent = int(tame[0]), int(tame[1]) % n
        if generator not in groups[0]:
            raise RamificationError("tame generator must lie in Gamma_0")
        if proj_order(gamma, groups, generator) != n:
            raise RamificationError("tame generator does not generate Gamma_0/Gamma_1")
        if gcd(exponent, n) != 1:
            raise RamificationError(
                f"tame character exponent {exponent} is not injective modulo {n}"
            )
    # phi has slope |Gamma_i|/e on (i - 1, i] and 1/e past L
    vertices = [(Fraction(-1), Fraction(-1)), (Fraction(0), Fraction(0))]
    for u, s in enumerate(subs[1:] + subs[-1:], start=1):
        vertices.append((Fraction(u), vertices[-1][1] + Fraction(s.order, e)))
    return RamificationData(
        gamma, tuple(groups), p, generator, exponent, tuple(subs), tuple(vertices)
    )


def _shape(filtration: Sequence[Sequence[int]]) -> tuple[list[frozenset[int]], int, int, int]:
    """Member sets of a filtration with trailing trivial groups trimmed, then
    e = |Gamma_0|, |Gamma_1| and the tame order n = e / |Gamma_1|."""
    groups = [frozenset(fl) for fl in filtration]
    while groups and len(groups[-1]) == 1:
        groups.pop()
    e = len(groups[0]) if groups else 1
    wild = len(groups[1]) if len(groups) > 1 else 1
    return groups, e, wild, e // wild


def proj_order(gamma: FiniteGroup, groups: Sequence[frozenset[int]], g: int) -> int:
    """Order of g modulo Gamma_1 (inside Gamma_0/Gamma_1)."""
    return len(gamma.powers(g, groups[1] if len(groups) > 1 else (0,)))


# ---------------------------------------------------------------------------
# Herbrand transition functions and the upper numbering


def _herbrand(r: RamificationData, x, inverse: bool) -> Fraction:
    """Interpolate the vertices of phi at x (psi: with the axes swapped),
    extending the last segment past the last vertex."""
    x = Fraction(x)
    if x < -1:
        raise RamificationError(f"{'psi' if inverse else 'phi'} is defined for arguments >= -1")
    a, b = (1, 0) if inverse else (0, 1)
    pts = r.phi_vertices
    k = 1
    while k < len(pts) - 1 and x > pts[k][a]:
        k += 1
    lo, hi = pts[k - 1], pts[k]
    return lo[b] + (x - lo[a]) * (hi[b] - lo[b]) / (hi[a] - lo[a])


def herbrand_phi(r: RamificationData, u) -> Fraction:
    """phi(u) = integral_0^u dt/[Gamma_0 : Gamma_t]; identity on [-1, 0]."""
    return _herbrand(r, u, inverse=False)


def herbrand_psi(r: RamificationData, v) -> Fraction:
    """The inverse of phi (piecewise linear, exact rational arithmetic)."""
    return _herbrand(r, v, inverse=True)


def upper_group(r: RamificationData, v) -> Subgroup:
    """Gamma^v = Gamma_psi(v), with Gamma_u = Gamma_ceil(u) for u > -1."""
    v = Fraction(v)
    if v < -1:
        raise RamificationError("upper numbering is defined for arguments >= -1")
    return r.subgroup_at(ceil(herbrand_psi(r, v)))  # psi(-1) = -1 gives Gamma itself


def lower_jumps(r: RamificationData) -> list[int]:
    """Integers i >= 0 with Gamma_i != Gamma_{i+1}."""
    return [i for i in range(len(r.filtration)) if r.members_at(i) != r.members_at(i + 1)]


def upper_jumps(r: RamificationData) -> list[Fraction]:
    """The jump locations of the upper-numbering filtration (v >= 0)."""
    return [r.phi_vertices[i + 1][1] for i in lower_jumps(r)]


# ---------------------------------------------------------------------------
# the Artin character and its refinement


@lru_cache(maxsize=64)
def bar_n(n: int) -> ClassFunction:
    """The bisecting central function on the standard cyclic group of order n,
    identified with mu_n via generator -> zeta_n:

        (1/n) * sum_{r=0}^{n-1} r * chi_r,   chi_r(zeta) = zeta^r.

    Its value at zeta != 1 is 1/(zeta - 1), and (n-1)/2 at the identity.

    Cached for the 64 most recently used n.  One ``verify_suite`` run reads
    n, 2n, 3n and 4n for its tame order n plus the tame orders of its
    subgroup and quotient data (divisors of n), and the sweep reads n <= 24,
    so a run never evicts its own entries.
    """
    vals = [from_terms(n, [(r * a, r) for r in range(n)]) * Fraction(1, n) for a in range(n)]
    return ClassFunction(cyclic_group(n), tuple(vals))


def power_character(n: int, r: int) -> ClassFunction:
    """chi_r on the standard cyclic group of order n: a -> zeta_n^(r a)."""
    roots = roots_of_unity(n)
    return ClassFunction(cyclic_group(n), tuple([roots[r * a % n] for a in range(n)]))


def _induced_augmentation(s: Subgroup) -> ClassFunction:
    """Ind_H^Gamma u_H for the subgroup H = s of Gamma = s.parent."""
    return pushforward(s.inclusion, standard_characters(s.group)[2])


def artin_character(r: RamificationData) -> ClassFunction:
    """Ar = sum_{i>=0} 1/[Gamma_0:Gamma_i] Ind u_{Gamma_i}; rational valued."""
    return combine(r.gamma, [(_induced_augmentation(s), Fraction(s.order, r.e)) for s in r.subgroups[:-1]])


def _tame_part_on_quotient(
    r: RamificationData, g0: Subgroup, wild: frozenset[int]
) -> list[tuple[ClassFunction, int]]:
    """[(Ind_{Gamma_0}^Gamma Inf(Psi^* bar_n), 1)], [] when n = 1, with Gamma_0
    given as the subgroup ``g0`` and Gamma_1 by its member set ``wild``."""
    n = r.n
    if n == 1:
        return []
    bn = bar_n(n)
    vals = [
        bn.values[(_dlog_mod_wild(r, g0.members[cls[0]], wild) * r.tame_exponent) % n]
        for cls in g0.group.classes
    ]
    return [(pushforward(g0.inclusion, ClassFunction(g0.group, tuple(vals))), 1)]


@lru_cache(maxsize=128)
def refined_artin(r: RamificationData, *, averaged: bool = False) -> ClassFunction:
    """The refined Artin character, built from the lower-numbering filtration:

        Ind_{Gamma_0}^Gamma Inf(Psi^* bar_n)
        + 1/2 Ind u_{Gamma_1}
        + 1/2 sum_{i>=1} 1/[Gamma_0:Gamma_i] Ind u_{Gamma_i},

    every induction going straight to Gamma.  Values lie in Q(zeta_n); adding
    the valuewise conjugate gives back the Artin character.

    With ``averaged=True`` the result is the Frobenius average
    :func:`p_average` of that character over zeta -> zeta^p, which depends on
    the datum alone, so it is computed once per datum however many
    characters it is paired with.  Callers pass ``averaged`` only when it is true: the cache
    keys ``refined_artin(r)`` and ``refined_artin(r, averaged=False)`` apart.

    Results are cached for the 128 most recently used calls, 64 data in both
    forms.  One ``verify_suite`` run needs the datum itself plus one datum
    per subgroup and per quotient, at most 34 on the curated fixtures and
    benchmark group jobs, so a run never evicts its own entries.
    """
    if averaged:
        bar = refined_artin(r)
        return p_average(bar, r.p, r.n)
    terms = _tame_part_on_quotient(r, r.subgroup_at(0), r.members_at(1))
    for i, s in enumerate(r.subgroups[1:-1], 1):
        # Gamma_1 carries both the 1/2 Ind u_{Gamma_1} term and its own summand
        coeff = Fraction(s.order, 2 * r.e) + (Fraction(1, 2) if i == 1 else 0)
        terms.append((_induced_augmentation(s), coeff))
    return combine(r.gamma, terms)


def refined_artin_upper(r: RamificationData) -> ClassFunction:
    """The same character computed through the upper-numbering filtration:

        Ind_{Gamma^0}^Gamma Inf(Psi^* bar_n)
        + 1/2 Ind u_{Gamma^{1/g0}}
        + 1/(2 g0) sum_{i>=1} Ind u_{Gamma^{i/g0}}.

    Kept as an independent code path; must agree exactly with
    :func:`refined_artin`.
    """
    e = r.e
    wild = upper_group(r, Fraction(1, e))
    terms = _tame_part_on_quotient(r, upper_group(r, 0), frozenset(wild.members))
    terms.append((_induced_augmentation(wild), Fraction(1, 2)))
    counts: dict[Subgroup, int] = {}
    i = 1
    while (s := upper_group(r, Fraction(i, e))).order > 1:
        counts[s] = counts.get(s, 0) + 1
        i += 1
    terms += [(_induced_augmentation(s), Fraction(count, 2 * e)) for s, count in counts.items()]
    return combine(r.gamma, terms)


def p_average(chi: ClassFunction, p: int, n: int) -> ClassFunction:
    """Average chi valuewise over the Frobenius orbit zeta -> zeta^p.

    For p = 0 the input is returned unchanged.  Requires p coprime to n and
    to the conductor of every value.
    """
    if p == 0:
        return chi
    if n > 0 and gcd(p, n) != 1:
        raise RamificationError(f"p={p} divides the modulus n={n}")
    vals = []
    for v in chi.values:
        if gcd(p, v.conductor) != 1:
            raise RamificationError(f"p={p} divides a value conductor {v.conductor}")
        vals.append(frobenius_average(v, p))
    return ClassFunction(chi.group, tuple(vals))


# ---------------------------------------------------------------------------
# derived data for subextensions and quotients


class SubextensionData(NamedTuple):
    data: RamificationData  # ramification data of L/M, on the subgroup's own group
    f_mk: int  # inertial degree [Gamma : Gamma_0 Gamma'] of M/K
    e_wild: int  # wild ramification degree |Gamma_1| / |Gamma'_1|


def subgroup_data(r: RamificationData, sub: Subgroup) -> SubextensionData:
    """Ramification data of L/M for the subgroup Gamma' fixing M.

    Lower numbering is compatible with subgroups: Gamma'_i = Gamma' n Gamma_i.
    The tame character of L/M satisfies Psi_{L/K} = Psi_{L/M}^e_wild on
    Gamma'_0/Gamma'_1, which determines it since e_wild is coprime to n'.
    """
    if sub.parent != r.gamma:
        raise RamificationError("subgroup belongs to a different group")
    h = sub.group
    memset = set(sub.members)
    filtration = []
    for i in range(len(r.filtration)):
        inter = sorted(memset & r.members_at(i))
        filtration.append([sub.members.index(m) for m in inter])
    g0gp = len({r.gamma.table[x][y] for x in r.members_at(0) for y in sub.members})
    f_mk = r.gamma.order // g0gp
    wild_sub = len(memset & r.members_at(1))
    e_wild = r.order_at(1) // wild_sub
    # tame character of L/M
    groups_h, _, _, n_sub = _shape(filtration)
    tame = None
    if n_sub > 1:
        gen_h = min(
            g
            for g in sorted(groups_h[0])
            if proj_order(h, groups_h, g) == n_sub
        )
        # discrete log of gen_h in Gamma_0/Gamma_1 with respect to r's generator
        t = _dlog_mod_wild(r, sub.members[gen_h])
        d = r.n // n_sub
        assert t % d == 0, "subgroup tame part must embed into mu_n"
        t0 = (t // d) % n_sub
        k_sub = (t0 * r.tame_exponent * pow(e_wild % n_sub, -1, n_sub)) % n_sub
        tame = (gen_h, k_sub)
    data = build_ramification(h, filtration, r.p, tame)
    return SubextensionData(data, f_mk, e_wild)


def _dlog_mod_wild(r: RamificationData, g: int, wild: frozenset[int] | None = None) -> int:
    """Discrete log of g modulo Gamma_1 with respect to the tame generator;
    ``wild`` is the member set of Gamma_1 (by default the lower-numbering one)."""
    if wild is None:
        wild = r.members_at(1)
    g_inv = r.gamma.inverse[g]
    for t, x in enumerate(r.gamma.powers(r.tame_generator, wild)):
        # does gen^t = g mod Gamma_1, i.e. gen^t * g^-1 in Gamma_1?
        if r.gamma.table[x][g_inv] in wild:
            return t
    raise RamificationError("element does not lie in the tame quotient span")


def quotient_data(r: RamificationData, normal: Subgroup) -> RamificationData:
    """Ramification data of M/K for the quotient Q = Gamma/N (Herbrand's theorem).

    The upper filtration passes to quotients, Q^v = image(Gamma^v), and
    Gamma^v = Gamma_i for v in (phi(i-1), phi(i)].  So psi_Q has slope
    |Q^0| / |image Gamma_i| there, U_i = psi_Q(phi(i)) is the running sum

        U_i = sum_{j=1}^{i} |Gamma_j| |image Gamma_0| / (e |image Gamma_j|),

    and the lower filtration is Q_u = image(Gamma_i) for u in (U_{i-1}, U_i],
    trivial past U_L since Gamma_L = 1.  The quotient tame character is Psi^d
    with d = n/n', i.e. the exponent is kept and read modulo n'.
    """
    if normal.parent != r.gamma:
        raise RamificationError("subgroup belongs to a different group")
    return projected_data(r, quotient(r.gamma, normal)[1])


def projected_data(r: RamificationData, proj: GroupHom) -> RamificationData:
    """``quotient_data`` for the quotient given by its projection from Gamma."""
    images = [sorted({proj.mapping[g] for g in s.members}) for s in r.subgroups]
    top, q0 = len(images) - 1, len(images[0])
    bounds = [Fraction(0)]  # U_0, U_1, ..., U_L
    for s, image in zip(r.subgroups[1:], images[1:]):
        bounds.append(bounds[-1] + Fraction(s.order * q0, r.e * len(image)))
    filtration = [images[0]]
    u, i = 1, 1
    while len(filtration[-1]) > 1:
        while i < top and u > bounds[i]:
            i += 1
        filtration.append(images[i])
        u += 1
    n_q = _shape(filtration)[3]
    tame = None
    if n_q > 1:
        tame = (proj.mapping[r.tame_generator], r.tame_exponent % n_q)
    return build_ramification(proj.target, filtration, r.p, tame)


# ---------------------------------------------------------------------------
# different and discriminant valuations


def different_valuation(r: RamificationData) -> int:
    """nu_L of the different of L/K: sum_{i>=0} (|Gamma_i| - 1)."""
    return sum(r.order_at(i) - 1 for i in range(len(r.filtration)))


def discriminant_valuation(r: RamificationData, sub: Subgroup) -> Fraction:
    """nu_K of the discriminant of M/K (M the field fixed by the subgroup),
    computed by the tower rule:

        nu_M(D_{M/K}) = (nu_L(D_{L/K}) - nu_L(D_{L/M})) / e_{L/M}
        nu_K(d_{M/K}) = f_{M/K} * nu_M(D_{M/K}).

    Both terms are read off the filtration of L/K: nu_L(D_{L/M}) through
    Gamma'_i = Gamma' n Gamma_i, and f_{M/K} / e_{L/M} = f_{L/K} / [L:M].

    Always an exact rational; an integer on data coming from genuine
    extensions.
    """
    if sub.parent != r.gamma:
        raise RamificationError("subgroup belongs to a different group")
    memset = set(sub.members)
    d_lm = sum(len(memset & r.members_at(i)) - 1 for i in range(len(r.filtration)))
    return Fraction(r.f * (different_valuation(r) - d_lm), sub.order)
