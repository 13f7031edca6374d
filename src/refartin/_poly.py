"""Dense univariate polynomial helpers over an exact field, and over Z.

Polynomials are lists/tuples of coefficients in ascending degree order with
no trailing zeros (the zero polynomial is the empty tuple).  Coefficients may
be ``fractions.Fraction`` or any exact field type supporting ``+ - * /`` and
truthiness (e.g. :class:`refartin.cyclotomic.Cyclotomic`).

Integer coefficients are allowed wherever no division is needed: division
divides only by a leading coefficient other than 1, so dividing by a monic
polynomial keeps integer input integer (``pdivmod``, ``pmod``,
``pexact_div``).  An integer divisor that is not monic raises
ArithmeticError; a float never appears.  Nothing here inverts modulo a
polynomial, takes a resultant or forms a determinant: the oracles read
valuations only, the monogenic one through ``_linalg.eliminate``.
"""

from __future__ import annotations

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


def pcompose(a: Sequence, b: Sequence) -> tuple:
    """a(b(x)) by Horner evaluation."""
    out: tuple = ()
    for c in reversed(list(a)):
        out = padd(pmul(out, b), (c,) if c else ())
    return out

