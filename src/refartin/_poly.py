"""Dense univariate polynomial helpers over an exact field, and over Z.

Polynomials are lists/tuples of coefficients in ascending degree order with
no trailing zeros (the zero polynomial is the empty tuple).  Coefficients may
be ``fractions.Fraction`` or any exact field type supporting ``+ - * /`` and
truthiness (e.g. :class:`refartin.cyclotomic.Cyclotomic`).

Integer coefficients are allowed wherever no division is needed: division
divides only by a leading coefficient other than 1, so dividing by a monic
polynomial keeps integer input integer (``pdivmod``, ``pmod``,
``pexact_div``, ``pcompose_mod``).  An integer divisor that is not monic
raises ArithmeticError; a float never appears.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def ptrim(coeffs: Sequence) -> tuple:
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def pdeg(a: Sequence) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def padd(a: Sequence, b: Sequence) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return ptrim(out)


def pneg(a: Sequence) -> tuple:
    return tuple(-c for c in a)


def psub(a: Sequence, b: Sequence) -> tuple:
    return padd(a, pneg(b))


def pscale(a: Sequence, s) -> tuple:
    if not s:
        return ()
    return ptrim([c * s for c in a])


def pmul(a: Sequence, b: Sequence) -> tuple:
    if not a or not b:
        return ()
    out = [a[0] * b[0] * 0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return ptrim(out)


def pdivmod(a: Sequence, b: Sequence) -> tuple[tuple, tuple]:
    """Quotient and remainder; the leading coefficient of b must be invertible,
    and b must be monic when its coefficients are integers."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = pdeg(b), b[-1]
    monic = lb == 1
    if isinstance(lb, int) and not monic:
        raise ArithmeticError("integer polynomial division needs a monic divisor")
    if not a:
        return (), ()
    a = list(a)
    q = [a[0] * 0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        coef = a[-1] if monic else a[-1] / lb
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = a[da - db + i] - coef * b[i]
        a.pop()
        while a and not a[-1]:
            a.pop()
    return ptrim(q), ptrim(a)


def pmod(a: Sequence, b: Sequence) -> tuple:
    return pdivmod(a, b)[1]


def pexact_div(a: Sequence, b: Sequence) -> tuple:
    q, r = pdivmod(a, b)
    if r:
        raise ArithmeticError("polynomial division was not exact")
    return q


def pxgcd(a: Sequence, b: Sequence) -> tuple[tuple, tuple, tuple]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g (g not normalized)."""
    r0, r1 = ptrim(a), ptrim(b)
    s0, s1 = (_one_like(a, b),), ()
    t0, t1 = (), (_one_like(a, b),)
    while r1:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1))
        t0, t1 = t1, psub(t0, pmul(q, t1))
    return r0, s0, t0


def pinvmod(a: Sequence, f: Sequence) -> tuple:
    """The inverse of a modulo f; raises ZeroDivisionError if they share a factor."""
    g, s, _ = pxgcd(a, f)
    if pdeg(g) != 0:
        raise ZeroDivisionError("element is not invertible modulo f")
    return pscale(s, 1 / g[0])


def _one_like(a: Sequence, b: Sequence):
    for c in list(a) + list(b):
        if c:
            return c / c
    return Fraction(1)


def pcompose(a: Sequence, b: Sequence) -> tuple:
    """a(b(x)) by Horner evaluation."""
    out: tuple = ()
    for c in reversed(list(a)):
        out = padd(pmul(out, b), (c,) if c else ())
    return out


def pcompose_mod(a: Sequence, b: Sequence, f: Sequence) -> tuple:
    """a(b(x)) mod f by Horner evaluation, reducing mod f at every step."""
    out: tuple = ()
    for c in reversed(list(a)):
        out = pmod(padd(pmul(out, b), (c,) if c else ()), f)
    return out


def presultant(a: Sequence, b: Sequence) -> Fraction:
    """Resultant of two polynomials via the Euclidean remainder sequence."""
    a, b = ptrim(a), ptrim(b)
    if not a or not b:
        return Fraction(0)
    acc = Fraction(1)
    while pdeg(b) > 0:
        r = pmod(a, b)
        if not r:
            return Fraction(0)
        acc *= b[-1] ** (pdeg(a) - pdeg(r))
        if (pdeg(a) * pdeg(b)) % 2 == 1:
            acc = -acc
        a, b = b, r
    return acc * b[0] ** pdeg(a)


def plow_order(a: Sequence) -> int:
    """Index of the lowest nonzero coefficient; raises on the zero polynomial."""
    for i, c in enumerate(a):
        if c:
            return i
    raise ArithmeticError("zero polynomial has no finite order")
