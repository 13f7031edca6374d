"""Reference valuation kernel over Q, for differential tests of the
monogenic oracle.

This is the earlier valuation kernel of ``refartin.oracle``: nu_L(y) was read
as nu_p(Res(f, y)), with the resultant taken by the Euclidean remainder
sequence on ``Fraction`` coefficients and nu_p taken of a rational.  The
oracle now reads nu_L(y) as nu_p of the integer norm determinant of y; this
module is kept only as an independent oracle for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from refartin._poly import pdeg, pmod, ptrim


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


def val_p(q: Fraction, p: int) -> int:
    """nu_p of a nonzero rational."""
    if q == 0:
        raise ArithmeticError("valuation of zero")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v
