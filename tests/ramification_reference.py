"""Reference Herbrand functions and quotient filtration, for differential tests.

This is the earlier implementation from ``refartin.ramification``: phi and
psi walk the lower filtration segment by segment on every call, and the
quotient's lower filtration is found by sampling the image of the upper
filtration at segment midpoints and solving psi_Q(w) = u with a third walk.
It is kept only as an oracle for the vertex-list implementation.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil

from refartin.grouptheory import Subgroup, quotient
from refartin.ramification import (
    RamificationData,
    RamificationError,
    _shape,
    build_ramification,
)


def herbrand_phi(r: RamificationData, u) -> Fraction:
    """phi(u) = integral_0^u dt/[Gamma_0 : Gamma_t]; identity on [-1, 0]."""
    u = Fraction(u)
    if u < -1:
        raise RamificationError("phi is defined for arguments >= -1")
    if u <= 0:
        return u
    g0 = r.e
    total = Fraction(0)
    i = 1
    left = Fraction(0)
    while True:
        gi = r.order_at(i)
        right = Fraction(i)
        if u <= right:
            return total + (u - left) * Fraction(gi, g0)
        total += (right - left) * Fraction(gi, g0)
        left = right
        if gi == 1:  # constant slope 1/g0 from here on
            return total + (u - left) * Fraction(1, g0)
        i += 1


def herbrand_psi(r: RamificationData, v) -> Fraction:
    """The inverse of phi (piecewise linear, exact rational arithmetic)."""
    v = Fraction(v)
    if v < -1:
        raise RamificationError("psi is defined for arguments >= -1")
    if v <= 0:
        return v
    g0 = r.e
    total = Fraction(0)
    i = 1
    left_u = Fraction(0)
    while True:
        gi = r.order_at(i)
        slope = Fraction(gi, g0)
        right_v = total + slope  # phi value at u = i
        if v <= right_v:
            return left_u + (v - total) / slope
        total = right_v
        left_u = Fraction(i)
        if gi == 1:
            return left_u + (v - total) / Fraction(1, g0)
        i += 1


def upper_jumps(r: RamificationData) -> list[Fraction]:
    """phi at every integer i >= 0 with Gamma_i != Gamma_{i+1}."""
    return [
        herbrand_phi(r, i)
        for i in range(len(r.filtration))
        if r.members_at(i) != r.members_at(i + 1)
    ]


def quotient_data(r: RamificationData, normal: Subgroup) -> RamificationData:
    """Ramification data of M/K for the quotient Gamma/N, by sampling the
    image of the upper filtration and inverting psi_Q at each integer."""
    if normal.parent != r.gamma:
        raise RamificationError("subgroup belongs to a different group")
    q, proj = quotient(r.gamma, normal)

    def qu(v) -> frozenset[int]:
        """Member set of (Gamma/N)^v = image(Gamma^v), Gamma^v = Gamma_ceil(psi(v))."""
        return frozenset(proj.mapping[g] for g in r.members_at(ceil(herbrand_psi(r, v))))

    img0 = qu(Fraction(0))
    q0_order = len(img0)
    bps = [herbrand_phi(r, i) for i in range(len(r.filtration) + 1)]
    samples = [(left + right) / 2 for left, right in zip(bps, bps[1:])] + [bps[-1] + 1]
    slopes = [Fraction(q0_order, len(qu(sample))) for sample in samples]
    filtration: list[list[int]] = [sorted(img0)]
    u = 1
    while len(filtration[-1]) > 1:
        acc = Fraction(0)
        w = None
        for j, (left, slope) in enumerate(zip(bps, slopes)):
            last = j + 1 >= len(bps)
            right = None if last else bps[j + 1]
            if last or acc + (right - left) * slope >= u:
                w = left + (u - acc) / slope
                break
            acc += (right - left) * slope
        filtration.append(sorted(qu(w)))
        u += 1
    n_q = _shape(filtration)[3]
    tame = None
    if n_q > 1:
        tame = (proj.mapping[r.tame_generator], r.tame_exponent % n_q)
    return build_ramification(q, filtration, r.p, tame)
