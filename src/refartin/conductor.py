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
failures drive the process exit status, advisory rows never do.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .cyclotomic import Cyclotomic, NotRationalError, closure, from_terms
from .grouptheory import (
    ClassFunction,
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
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
    quotient_data,
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
    subgroup H of (Z/n)* generated by p on the prime-to-p part and by all of
    (Z/p^k)* on the p-part; equivalently, one character per irreducible
    factor of X^n - 1 over Q_p.  For p = 0 the orbits are under all of
    (Z/n)*, giving the Q-rational irreducibles.

    The values are Gauss periods P(O) = sum_{r in O} zeta_n^r, one per orbit
    O = aH, each built once.  For the character of O and g in C_n, r -> r g
    maps O onto the orbit O' of a g with |O| / |O'| elements over each
    point, so chi_O(g) = (|O| / |O'|) P(O').  The factor exceeds 1 only when
    a g has a smaller orbit than a, which needs g not a unit mod n.
    """
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if p < 0:
        raise ValueError("p must be 0 or a prime")
    group = cyclic_group(n)
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    if p == 0:
        gens = units
    else:
        pk = 1
        m = n
        while m % p == 0:
            m //= p
            pk *= p
        gens = []
        if m > 1:
            gens.append(_crt(p % m, m, 1, pk))
        for w in range(1, pk + 1):
            if gcd(w, pk) == 1:
                gens.append(_crt(1, m, w, pk))
    orbit_group = closure(gens, lambda x, g: x * g % n, 1 % n)
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


def _crt(a: int, m: int, b: int, k: int) -> int:
    """The element of Z/(m k) congruent to a mod m and b mod k (gcd(m,k)=1)."""
    if m == 1:
        return b % k if k > 1 else 0
    if k == 1:
        return a % m
    x = a % m + m * (((b - a) * pow(m, -1, k)) % k)
    return x % (m * k)


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
        return json.dumps(
            {
                "name": self.name,
                "inputs": self.inputs,
                "expected": self.expected,
                "computed": self.computed,
                "passed": self.passed,
                "binding": self.binding,
            },
            sort_keys=True,
        )


class ConductorReport(NamedTuple):
    records: tuple[ReportRecord, ...]

    @property
    def binding_ok(self) -> bool:
        return all(rec.passed for rec in self.records if rec.binding)

    @property
    def all_ok(self) -> bool:
        return all(rec.passed for rec in self.records)

    def summary(self) -> str:
        total = len(self.records)
        failed = [r for r in self.records if not r.passed]
        fb = sum(1 for r in failed if r.binding)
        fa = len(failed) - fb
        return (
            f"{total} checks: {total - len(failed)} passed, "
            f"{fb} binding failures, {fa} advisory failures"
        )


def _enc_cf(chi: ClassFunction) -> str:
    return json.dumps([v.encode() for v in chi.values], sort_keys=True)


def _enc_val(v) -> str:
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

    def add(name, inputs, expected, computed, binding, ok=None):
        exp_s, got_s = _enc_val(expected), _enc_val(computed)
        passed = (expected == computed) if ok is None else ok
        recs.append(ReportRecord(name, inputs, exp_s, got_s, passed, binding))

    n = r.n
    # relations of the bisecting functions at the datum's tame order
    for d in range(1, 5):
        _bar_relation_records(recs, n, d)
    for rr in range(n):
        add(
            "bar-pairing",
            f"n={n} r={rr}",
            Fraction(rr, n),
            pair(bar_n(n), power_character(n, rr)).rational(),
            True,
        )
    bar = refined_artin(r)
    ar = artin_character(r)
    bisected = bar + bar.conjugate()
    add("bisection", f"|G|={r.gamma.order}", _enc_cf(ar), _enc_cf(bisected), True,
        ok=bisected.values == ar.values)
    upper = refined_artin_upper(r)
    add("lower-upper-agreement", f"|G|={r.gamma.order}", _enc_cf(bar), _enc_cf(upper), True,
        ok=upper.values == bar.values)

    subs = all_subgroups(r.gamma)
    normals = [s for s in subs if s.is_normal()]

    # pushforward to quotients
    for nsub in normals:
        name, inputs = "quotient-pushforward", f"N={list(nsub.members)}"
        try:
            _, proj = quotient(r.gamma, nsub)
            lhs = pushforward(proj, bar)
            rhs = refined_artin(quotient_data(r, nsub))
            add(name, inputs, _enc_cf(rhs), _enc_cf(lhs), prop_binding,
                ok=lhs.values == rhs.values)
        except RamificationError as ex:
            recs.append(ReportRecord(name, inputs, "admissible quotient",
                                     f"error: {ex}", False, prop_binding))

    # restriction to subgroups, conductor-discriminant, Weil restriction
    bar_avg = refined_artin(r, averaged=True)
    for sub in subs:
        inputs = f"H={list(sub.members)}"
        try:
            sd = subgroup_data(r, sub)
        except (RamificationError, ValueError) as ex:
            recs.append(ReportRecord("subgroup-restriction", inputs,
                                     "admissible subextension data",
                                     f"error: {ex}", False, prop_binding))
            continue
        disc = discriminant_valuation(r, sub)
        reg_h, triv_h, _ = standard_characters(sub.group)
        lhs = pullback(sub.inclusion, bar_avg)
        rhs = refined_artin(sd.data, averaged=True).scale(sd.f_mk)
        rhs = rhs + reg_h.scale(Fraction(1, 2) * disc)
        add("subgroup-restriction", inputs, _enc_cf(rhs), _enc_cf(lhs), prop_binding,
            ok=lhs.values == rhs.values)
        ind1 = pushforward(sub.inclusion, triv_h)
        add("conductor-discriminant", inputs, disc, pair(ar, ind1).rational(), True)
        if sub.group.is_cyclic():
            for k, chi_std in enumerate(qp_irreducibles_cyclic(sub.order, r.p)):
                chi = transport_to_cyclic(chi_std, sd.data.gamma)
                try:
                    lhs_c, rhs_c, c_sub = _weil_restriction(r, sub, sd, disc, chi, "error")
                    add("weil-restriction", f"{inputs} chi#{k}", rhs_c, lhs_c, prop_binding)
                    # the stability gate never changes the value, so c_sub
                    # is also the ungated conductor
                    add(
                        "averaging-consistency",
                        f"{inputs} chi#{k}",
                        c_sub,
                        conductor(sd.data, chi, averaged=True, on_unstable="ignore"),
                        True,
                    )
                except (NotRationalError, StabilityError, RamificationError) as ex:
                    recs.append(ReportRecord("weil-restriction", f"{inputs} chi#{k}",
                                             "rational pairing",
                                             f"error: {ex}", False, prop_binding))

    # integer upper jumps (Hasse-Arf) for abelian data from genuine extensions
    if r.gamma.is_abelian():
        jumps = upper_jumps(r)
        add("hasse-arf", f"jumps={[str(j) for j in jumps]}",
            True, all(j.denominator == 1 for j in jumps), prop_binding,
            ok=all(j.denominator == 1 for j in jumps))
    return ConductorReport(tuple(recs))


def _bar_relation_records(recs: list[ReportRecord], n: int, d: int) -> None:
    """The four relations tying bar_n to bar_{nd} (exact, always binding)."""
    bn, bnd = bar_n(n), bar_n(n * d)
    cn, cnd = bn.group, bnd.group
    reg, triv, aug = standard_characters(cn)

    def add(name, expected_cf, computed_cf):
        recs.append(
            ReportRecord(
                name,
                f"n={n} d={d}",
                _enc_cf(expected_cf),
                _enc_cf(computed_cf),
                expected_cf.values == computed_cf.values,
                True,
            )
        )

    one_pair = pair(bn, triv).rational()
    recs.append(ReportRecord("bar-orthogonal-to-1", f"n={n} d={d}", "0", str(one_pair),
                             one_pair == 0, True))
    add("bar-bisection", aug, bn + bn.conjugate())
    power_map = GroupHom(cnd, cn, tuple(a % n for a in range(n * d)))
    add("bar-pushforward-compat", bn, pushforward(power_map, bnd))
    incl = GroupHom(cn, cnd, tuple((a * d) % (n * d) for a in range(n)))
    add(
        "bar-restriction-compat",
        bn + reg.scale(Fraction(d - 1, 2)),
        pullback(incl, bnd),
    )
