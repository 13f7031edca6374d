"""Base-change conductors via the refined-Artin pairing, and identity replay.

The base-change conductor of a representation with character chi, split by an
extension with ramification data r, is the rational number

    c(chi) = (refined_artin(r) | chi).

The pairing is rational whenever chi is the character of a representation
defined over Q_p; this module checks the necessary condition that the values
of chi are fixed by the Galois action zeta -> zeta^p (sigma_p-stability).
The condition is not sufficient (Schur indices are not decided here), so the
rationality of the pairing is still enforced at extraction time.

verify_suite replays the package's exact identities over one ramification
datum and returns a report with one record per identity instance; binding
failures drive the process exit status, advisory rows never do.  Every row
goes through one ``add``, and a row passes exactly when its expected value
equals its computed one, so its two encoded texts are equal too.  A
computation the datum does not admit is a row whose computed text is
``error: <message>``, which never equals the expected text.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cyclotomic import Cyclotomic, NotRationalError, from_terms, is_prime, split_p, unit_powers
from .grouptheory import (
    ClassFunction,
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    combine,
    cyclic_group,
    pair,
    pushforward,
    pullback,
    quotient,
    standard_characters,
)
from .ramification import (
    RamificationData,
    RamificationError,
    SubextensionData,
    artin_character,
    bar_n,
    discriminant_valuation,
    power_character,
    projected_data,
    refined_artin,
    refined_artin_upper,
    subgroup_data,
    upper_jumps,
)


class StabilityError(ValueError):
    """Raised in strict mode when a character fails the sigma_p-stability gate."""


def sigma_p_stable(chi: ClassFunction, p: int) -> bool:
    """Necessary condition for chi to come from a Q_p-rational representation:
    every value is fixed by zeta -> zeta^p (by the full Galois action when
    p = 0, i.e. the values are rational)."""
    if p == 0:
        return all(v.is_rational() for v in chi.values)
    for v in set(chi.values):
        if gcd(p, v.conductor) != 1 or v.galois(p) != v:
            return False
    return True


def _gate_stability(chi: ClassFunction, p: int, on_unstable: str) -> None:
    if on_unstable == "ignore":
        return
    if not sigma_p_stable(chi, p):
        msg = f"character values are not stable under zeta -> zeta^{p}"
        if on_unstable == "error":
            raise StabilityError(msg)
        warnings.warn(msg, stacklevel=3)


def conductor(
    r: RamificationData,
    chi: ClassFunction,
    *,
    averaged: bool = False,
    on_unstable: str = "warn",
) -> Fraction:
    """Base-change conductor (refined_artin(r) | chi) as an exact rational.

    With ``averaged=True`` chi is paired with the Frobenius average of the
    refined character, computed once per datum by ``refined_artin``.
    Raises NotRationalError if the pairing is irrational (possible only when
    chi is not sigma_p-stable); ``on_unstable`` selects how the stability
    gate reports ("warn", "error", "ignore").
    """
    if chi.group != r.gamma:
        raise RamificationError("character lives on a different group")
    _gate_stability(chi, r.p, on_unstable)
    bar = refined_artin(r, averaged=True) if averaged else refined_artin(r)
    return pair(bar, chi).rational()


def artin_conductor(r: RamificationData, chi: ClassFunction) -> Fraction:
    """(artin_character(r) | chi); equals conductor(chi) + conductor(conj chi)."""
    if chi.group != r.gamma:
        raise RamificationError("character lives on a different group")
    return pair(artin_character(r), chi).rational()


# ---------------------------------------------------------------------------
# Q_p-rational irreducible characters of cyclic groups


def qp_irreducibles_cyclic(n: int, p: int) -> list[ClassFunction]:
    """Characters of the simple Q_p[C_n]-modules on the standard cyclic group.

    They are the orbit sums of the linear characters chi_r under the
    subgroup H = {u in (Z/n)* : u = p^j mod m for some j} of (Z/n)*, m the
    prime-to-p part of n (p generates the Frobenius on the prime-to-p part,
    and the p-part is all inertia); equivalently, one character per
    irreducible factor of X^n - 1 over Q_p.  For p = 0 the orbits are under
    all of (Z/n)*, giving the Q-rational irreducibles.

    The values are Gauss periods P(O) = sum_{r in O} zeta_n^r, one per orbit
    O = aH, each built once.  For the character of O and g in C_n, r -> r g
    maps O onto the orbit O' of a g with |O| / |O'| elements over each
    point, so chi_O(g) = (|O| / |O'|) P(O').  The factor exceeds 1 only when
    a g has a smaller orbit than a, which needs g not a unit mod n.
    """
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if p and not is_prime(p):
        raise ValueError("p must be 0 or a prime")
    group = cyclic_group(n)
    orbit_group = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    if p:
        m = split_p(n, p)[1]
        frobenius = set(unit_powers(p, m))
        orbit_group = [u for u in orbit_group if u % m in frobenius]
    orbits: list[list[int]] = []
    orbit_of = [-1] * n
    for a in range(n):
        if orbit_of[a] < 0:
            orbit = sorted({(a * u) % n for u in orbit_group})
            for r in orbit:
                orbit_of[r] = len(orbits)
            orbits.append(orbit)
    periods = [from_terms(n, [(r, 1) for r in orbit]) for orbit in orbits]
    out = []
    for orbit in orbits:
        a, size = orbit[0], len(orbit)
        values = []
        for g in range(n):
            j = orbit_of[a * g % n]
            m = size // len(orbits[j])
            # Cyclotomic * int renormalizes, so the common m == 1 case reuses P
            values.append(periods[j] if m == 1 else periods[j] * m)
        out.append(ClassFunction(group, tuple(values)))
    return out


def transport_to_cyclic(group_chi: ClassFunction, target: FiniteGroup) -> ClassFunction:
    """Transport a class function from the standard C_n to an isomorphic cyclic
    group via the generator of least index."""
    n = group_chi.group.order
    if target.order != n:
        raise ValueError("groups have different orders")
    gen = min(g for g in range(n) if target.element_order(g) == n)
    values = [None] * len(target.classes)
    for j, x in enumerate(target.powers(gen)):
        values[target.class_of[x]] = group_chi.values[j]
    return ClassFunction(target, tuple(values))


# ---------------------------------------------------------------------------
# Weil-restriction identity


def weil_restriction_check(
    r: RamificationData,
    sub: Subgroup,
    chi: ClassFunction,
    *,
    on_unstable: str = "warn",
) -> tuple[Fraction, Fraction]:
    """Both sides of the induction identity for a character chi on the
    subgroup data of ``sub``:

        lhs = conductor(r, Ind chi)
        rhs = f_{M/K} * conductor(L/M data, chi) + (1/2) nu_K(d_{M/K}) chi(1).

    Returns (lhs, rhs) for comparison.
    """
    lhs, rhs, _ = _weil_restriction(
        r, sub, subgroup_data(r, sub), discriminant_valuation(r, sub), chi, on_unstable
    )
    return lhs, rhs


def _weil_restriction(
    r: RamificationData,
    sub: Subgroup,
    sd: SubextensionData,
    disc: Fraction,
    chi: ClassFunction,
    on_unstable: str,
) -> tuple[Fraction, Fraction, Fraction]:
    """weil_restriction_check with the subgroup data and discriminant of
    ``sub`` already computed; also returns conductor(L/M data, chi)."""
    if chi.group != sd.data.gamma:
        raise RamificationError("character must live on the subgroup's own group")
    lhs = conductor(r, pushforward(sub.inclusion, chi), on_unstable=on_unstable)
    c_sub = conductor(sd.data, chi, on_unstable=on_unstable)
    rhs = sd.f_mk * c_sub + Fraction(1, 2) * (disc * chi.value(0).rational())
    return lhs, rhs, c_sub


# ---------------------------------------------------------------------------
# identity replay


class ReportRecord(NamedTuple):
    """One identity instance: exact expected/computed values, never floats."""

    name: str
    inputs: str
    expected: str
    computed: str
    passed: bool
    binding: bool

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)


class ConductorReport(NamedTuple):
    records: tuple[ReportRecord, ...]

    @property
    def binding_ok(self) -> bool:
        return all(rec.passed for rec in self.records if rec.binding)

    def summary(self) -> str:
        total = len(self.records)
        failed = [r for r in self.records if not r.passed]
        fb = sum(1 for r in failed if r.binding)
        fa = len(failed) - fb
        return (
            f"{total} checks: {total - len(failed)} passed, "
            f"{fb} binding failures, {fa} advisory failures"
        )


def _enc(v) -> str:
    """JSON text of the values of a class function or of a cyclotomic value;
    ``str`` of anything else."""
    if isinstance(v, ClassFunction):
        return json.dumps([x.encode() for x in v.values], sort_keys=True)
    if isinstance(v, Cyclotomic):
        return json.dumps(v.encode(), sort_keys=True)
    return str(v)


def verify_suite(r: RamificationData, *, advisory: bool = False) -> ConductorReport:
    """Replay the exact identities on one ramification datum.

    Binding rows: the bisecting-function relations at the datum's tame order,
    the pairing values r/n, the bisection, the lower/upper agreement, the
    conductor-discriminant cross-check, and averaging consistency.  The
    subgroup-restriction, quotient-pushforward, Weil-restriction and
    integer-upper-jump rows are binding on curated data; pass
    ``advisory=True`` for data not known to come from a genuine extension.
    """
    recs: list[ReportRecord] = []
    prop_binding = not advisory

    def add(name, inputs, expected, computed, binding=True):
        recs.append(ReportRecord(name, inputs, _enc(expected), _enc(computed),
                                 expected == computed, binding))

    n = r.n
    # the four relations tying bar_n to bar_nd, d = 1, ..., 4; two do not read d
    bn = bar_n(n)
    cn = bn.group
    reg, triv, aug = standard_characters(cn)
    orthogonal, bisection = pair(bn, triv).rational(), bn + bn.conjugate()
    for d in range(1, 5):
        bnd = bar_n(n * d)
        inputs = f"n={n} d={d}"
        add("bar-orthogonal-to-1", inputs, 0, orthogonal)
        add("bar-bisection", inputs, aug, bisection)
        power_map = GroupHom(bnd.group, cn, tuple(a % n for a in range(n * d)))
        add("bar-pushforward-compat", inputs, bn, pushforward(power_map, bnd))
        incl = GroupHom(cn, bnd.group, tuple((a * d) % (n * d) for a in range(n)))
        add("bar-restriction-compat", inputs, combine(cn, [(bn, 1), (reg, Fraction(d - 1, 2))]),
            pullback(incl, bnd))
    for rr in range(n):
        add("bar-pairing", f"n={n} r={rr}", Fraction(rr, n), pair(bn, power_character(n, rr)).rational())
    bar = refined_artin(r)
    ar = artin_character(r)
    add("bisection", f"|G|={r.gamma.order}", ar, bar + bar.conjugate())
    add("lower-upper-agreement", f"|G|={r.gamma.order}", bar, refined_artin_upper(r))

    subs = all_subgroups(r.gamma)
    normals = [s for s in subs if s.is_normal()]

    # pushforward to quotients; both sides read the one projection quotient builds
    for nsub in normals:
        name, inputs = "quotient-pushforward", f"N={list(nsub.members)}"
        proj = quotient(r.gamma, nsub)[1]
        try:
            rhs = refined_artin(projected_data(r, proj))
        except RamificationError as ex:
            add(name, inputs, "admissible quotient", f"error: {ex}", prop_binding)
            continue
        add(name, inputs, rhs, pushforward(proj, bar), prop_binding)

    # restriction to subgroups, conductor-discriminant, Weil restriction
    bar_avg = refined_artin(r, averaged=True)
    for sub in subs:
        inputs = f"H={list(sub.members)}"
        try:
            sd = subgroup_data(r, sub)
        except (RamificationError, ValueError) as ex:
            add("subgroup-restriction", inputs, "admissible subextension data",
                f"error: {ex}", prop_binding)
            continue
        disc = discriminant_valuation(r, sub)
        reg_h, triv_h, _ = standard_characters(sub.group)
        rhs = combine(sub.group, [(refined_artin(sd.data, averaged=True), sd.f_mk), (reg_h, disc / 2)])
        add("subgroup-restriction", inputs, rhs, pullback(sub.inclusion, bar_avg), prop_binding)
        ind1 = pushforward(sub.inclusion, triv_h)
        add("conductor-discriminant", inputs, disc, pair(ar, ind1).rational())
        if sub.group.is_cyclic():
            for k, chi_std in enumerate(qp_irreducibles_cyclic(sub.order, r.p)):
                chi = transport_to_cyclic(chi_std, sd.data.gamma)
                chi_inputs = f"{inputs} chi#{k}"
                try:
                    lhs_c, rhs_c, c_sub = _weil_restriction(r, sub, sd, disc, chi, "error")
                except (NotRationalError, StabilityError, RamificationError) as ex:
                    add("weil-restriction", chi_inputs, "rational pairing", f"error: {ex}",
                        prop_binding)
                    continue
                add("weil-restriction", chi_inputs, rhs_c, lhs_c, prop_binding)
                # the stability gate never changes the value, so c_sub is
                # also the ungated conductor
                add("averaging-consistency", chi_inputs, c_sub,
                    conductor(sd.data, chi, averaged=True, on_unstable="ignore"))

    # integer upper jumps (Hasse-Arf) for abelian data from genuine extensions
    if r.gamma.is_abelian():
        jumps = upper_jumps(r)
        add("hasse-arf", f"jumps={[str(j) for j in jumps]}",
            True, all(j.denominator == 1 for j in jumps), prop_binding)
    return ConductorReport(tuple(recs))
