"""Exact linear algebra on plain Python ints: one elimination over Z_p,
``eliminate``, on full pivots of least valuation modulo a power of p, with
each row packed into one int.  The monogenic oracle reads both its
invariant lattice and the valuation of its determinant from it.  There are
no field routines: the tame oracle reads its invariant lattice and its
determinant off a diagonal.
"""

from __future__ import annotations

import math
import sys
from array import array
from operator import mul
from typing import Sequence

from .cyclotomic import split_p


def hadamard_exponent(rows: Sequence[Sequence[int]], p: int) -> int:
    """An integer h with nu_p(minor) <= h for every nonzero minor of the
    matrix: by Hadamard's inequality |minor| <= prod |row| over the rows
    that are not zero, and log_p |row| <= bits(|row|^2) / (2 bits(p) - 2),
    with no product formed."""
    return sum(sum(map(mul, r, r)).bit_length() for r in rows) // (2 * p.bit_length() - 2)


def eliminate(rows: Sequence[Sequence[int]], p: int, k: int, width: int) -> tuple[list[int], list[list[int]]]:
    """Least-valuation elimination of integer rows modulo q = p^k, pivoting
    on the first ``width`` slots only; ``rows`` is not modified.

    Returns the pivot valuations, in the order chosen, and the rows left
    once the first ``width`` slots of every row vanish mod q, each as its
    slots past ``width`` reduced mod q.  A row is cleared as the row minus
    a multiple of the pivot row, with the pivot column zero mod q; cleared
    columns stay in place.  The steps are invertible over Z_p, so with A
    the first ``width`` columns the pivot valuations are the Smith
    invariants of A below k, in increasing order (Cohen, GTM 138, 2.4), and
    every other invariant is at least k.  When every nonzero invariant is
    below k, the number of pivots is the rank of A over Q, and for rows
    [A | I] the rows left are congruent modulo p^(k - max pivot) to a Z_p
    basis of {u : u A = 0}: in Smith coordinates, u A = 0 mod q fixes the
    coordinate of invariant d_i only modulo p^(k - d_i).

    Each row is one int: entry j, nonnegative, in the w-byte slot j
    (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009).  Rows start
    reduced mod q, and a clear adds c prow, c < q, with prow reduced mod q
    when chosen: a slot grows by less than q^2 per clear, fewer than m
    times, and q + m q^2 < 2^(8 w), so nothing carries.  Slots are read
    unreduced: gcd(q, x) = p^v and x mod p^(v+1) do not see multiples of q.
    """
    m, n, q = len(rows), len(rows[0]) if rows else 0, p**k
    w = 8 * -(-(q + m * q * q).bit_length() // 64)
    bits, mask, low = 8 * w, (1 << 8 * w) - 1, (1 << 8 * w * width) - 1
    if w == 8 and sys.byteorder == "little":

        def unpack(row, count):
            return memoryview(row.to_bytes(count * w, "little")).cast("Q")

        def pack(xs):
            return int.from_bytes(array("Q", [x % q for x in xs]), "little")

    else:

        def unpack(row, count):
            b = row.to_bytes(count * w, "little")
            return [int.from_bytes(b[i:i + w], "little") for i in range(0, count * w, w)]

        def pack(xs):
            return int.from_bytes(b"".join((x % q).to_bytes(w, "little") for x in xs), "little")

    rows, pivots, v = [pack(row) for row in rows], [], 0
    while rows:
        best = None
        for i, row in enumerate(rows):
            xs = unpack(row & low, width)
            g = math.gcd(q, *xs)
            if g == q:  # the row vanishes mod q on the pivot slots
                continue
            vj = split_p(g, p)[0], next(j for j, x in enumerate(xs) if x % (g * p))
            if best is None or vj < best[1]:
                best = i, vj
                if vj[0] == v:  # no entry left has a smaller valuation
                    break
        if best is None:
            break
        i, (v, j) = best
        prow, pv, shift = pack(unpack(rows.pop(i), n)), p**v, j * bits
        u = pow((prow >> shift & mask) // pv, -1, q)
        pivots.append(v)
        for i, row in enumerate(rows):  # in place: a replaced row is freed at once
            # c = -row[j] / prow[j] mod q, so that the slots stay nonnegative
            x = row >> shift & mask
            if x % q:
                rows[i] = row + (-(x // pv) * u % q) * prow
    return pivots, [[x % q for x in unpack(row, n)[width:]] for row in rows]
