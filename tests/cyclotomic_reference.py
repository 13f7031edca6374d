"""Reference Q(zeta_N) kernel with Fraction coordinates, for differential tests.

This is the earlier implementation of the cyclotomic core: values are
(conductor, tuple of Fraction) pairs in the power basis of Q[X]/(Phi_N), and
the canonical form descends one prime at a time, testing Galois fixedness and
then solving for the subfield coordinates by Gaussian elimination.  It is
slow and kept only as an oracle for ``refartin.cyclotomic``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from oracle_reference import field_kernel
from refartin.cyclotomic import (
    ONE,
    Cyclotomic,
    closure,
    cyclotomic_polynomial,
    euler_phi,
    from_rational,
    prime_factors,
)

_F0 = Fraction(0)
_F1 = Fraction(1)

Value = tuple[int, tuple[Fraction, ...]]


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """X^j mod Phi_n for 0 <= j < n, as sparse (index, coeff) integer rows."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple((i, t) for i, t in enumerate(cur) if t))
        top = cur[d - 1]
        nxt = [0] + cur[:-1]
        if top:
            for i in range(d):
                nxt[i] -= top * phi[i]
        cur = nxt
    return tuple(rows)


def _reduce_raw(n: int, raw: dict[int, Fraction]) -> list[Fraction]:
    """Reduce a sparse exponent->coefficient map into power-basis coordinates."""
    table = _power_table(n)
    out = [_F0] * euler_phi(n)
    for e, c in raw.items():
        if not c:
            continue
        for i, t in table[e % n]:
            out[i] += c * t
    return out


@lru_cache(maxsize=None)
def _subfield_basis(n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Power-basis coordinates (at conductor n) of zeta_m^j, j < phi(m)."""
    step = n // m
    out = []
    for j in range(euler_phi(m)):
        out.append(tuple(_reduce_raw(n, {(step * j) % n: _F1})))
    return tuple(out)


def _galois_raw(n: int, coeffs: Sequence[Fraction], k: int) -> list[Fraction]:
    table = _power_table(n)
    out = [_F0] * euler_phi(n)
    for i, c in enumerate(coeffs):
        if not c:
            continue
        for j, t in table[(i * k) % n]:
            out[j] += c * t
    return out


@lru_cache(maxsize=None)
def _kernel_generators(n: int, m: int) -> tuple[int, ...]:
    """Generators of the kernel of (Z/n)* -> (Z/m)* (units congruent to 1 mod m)."""
    gens: list[int] = []
    closed = {1}
    for k in range(1 + m, n, m):
        if gcd(k, n) != 1 or k in closed:
            continue
        gens.append(k)
        closed = closure(gens, lambda x, g: x * g % n, 1)
    return tuple(gens)


def _fixed_by_subfield_group(n: int, coeffs: Sequence[Fraction], m: int) -> bool:
    coeffs = list(coeffs)
    for k in _kernel_generators(n, m):
        if _galois_raw(n, coeffs, k) != coeffs:
            return False
    return True


def canonical(n: int, coeffs: Sequence[Fraction]) -> Value:
    coeffs = list(coeffs)
    # strip conductors congruent to 2 mod 4: zeta_2m = -zeta_m^((m+1)/2), m odd
    while n % 4 == 2:
        m = n // 2
        h = (m + 1) // 2
        raw: dict[int, Fraction] = {}
        for i, c in enumerate(coeffs):
            if not c:
                continue
            e = (i * h) % m
            s = -c if i % 2 else c
            raw[e] = raw.get(e, _F0) + s
        n, coeffs = m, _reduce_raw(m, raw)
    if n == 1:
        return 1, (coeffs[0] if coeffs else _F0,)
    if not any(coeffs[1:]):
        return 1, (coeffs[0],)
    # descend one prime at a time while the value lies in the smaller field
    changed = True
    while changed and n > 1:
        changed = False
        for q in prime_factors(n):
            m = n // q
            while m % 4 == 2:
                m //= 2
            if m == n:
                continue
            if not _fixed_by_subfield_group(n, coeffs, m):
                continue
            # coeffs = A x with A's columns the (independent) subfield basis:
            # ker [A | coeffs] is empty or spanned by (-x, 1)
            basis = _subfield_basis(n, m)
            kernel = field_kernel(
                [[b[i] for b in basis] + [c] for i, c in enumerate(coeffs)], _F1
            )
            if not kernel:
                continue
            n, coeffs = m, [-x for x in kernel[0][:-1]]
            if n == 1:
                return 1, (coeffs[0] if coeffs else _F0,)
            if not any(coeffs[1:]):
                return 1, (coeffs[0],)
            changed = True
            break
    return n, tuple(coeffs)


def embed(a: Value, n: int) -> list[Fraction]:
    """Coordinates of a at conductor n (a's conductor must divide n)."""
    c, coeffs = a
    if n == c:
        return list(coeffs)
    step = n // c
    return _reduce_raw(n, {i * step: x for i, x in enumerate(coeffs) if x})


def from_terms(n: int, terms: Iterable[tuple[int, Fraction]]) -> Value:
    raw: dict[int, Fraction] = {}
    for k, c in terms:
        raw[k % n] = raw.get(k % n, _F0) + Fraction(c)
    return canonical(n, _reduce_raw(n, raw))


def add(a: Value, b: Value) -> Value:
    n = lcm(a[0], b[0])
    return canonical(n, [x + y for x, y in zip(embed(a, n), embed(b, n))])


def weighted_sum(values: Sequence[Value], weights: Sequence[int], den: int) -> Value:
    """sum_i weights[i] * values[i] / den, folded one ``add`` at a time."""
    total: Value = (1, (_F0,))
    for (n, coeffs), w in zip(values, weights, strict=True):
        total = add(total, (n, tuple([c * w / den for c in coeffs])))
    return total


def mul(a: Value, b: Value) -> Value:
    n = lcm(a[0], b[0])
    x, y = embed(a, n), embed(b, n)
    conv: dict[int, Fraction] = {}
    for i, ca in enumerate(x):
        if not ca:
            continue
        for j, cb in enumerate(y):
            if cb:
                conv[i + j] = conv.get(i + j, _F0) + ca * cb
    return canonical(n, _reduce_raw(n, conv))


def galois(a: Value, k: int) -> Value:
    n, coeffs = a
    if n == 1:
        return a
    return n, tuple(_galois_raw(n, coeffs, k % n))


def frobenius_average(a: Value, p: int) -> Value:
    n = a[0]
    if n == 1:
        return a
    total, k, r = a, p % n, 1
    while k != 1:  # the orbit of p in (Z/n)*, counted here and not by the kernel
        total, k, r = add(total, galois(a, k)), k * p % n, r + 1
    return total[0], tuple(c / r for c in total[1])


def inverse(a: Cyclotomic) -> Cyclotomic:
    """1/a for a ``refartin`` value, which has no division: the product of
    the other Galois conjugates of a over its norm, the rational a times
    that product (ZeroDivisionError for a = 0)."""
    n, prod = a.conductor, ONE
    for k in range(2, n):
        if gcd(k, n) == 1:
            prod = prod * a.galois(k)
    return prod * from_rational(1 / (a * prod).rational())
