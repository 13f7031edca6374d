"""Exact linear algebra on plain Python ints: one elimination over Z_p,
``eliminate``, on full pivots of least valuation modulo a power of p, with
each row packed into one int, and ``eliminate_ol``, full pivoting over the
DVR Z_p[x]/(f) that hands each pivot's block to ``eliminate``.  The
monogenic oracle reads the index of its traces' span from the first and the
valuation of its determinant from the second.  There are no field routines:
the tame oracle reads its invariant lattice and determinant off a diagonal.
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


def _least(windows, p: int, q: int, floor: tuple[int, int]):
    """The first (key, (v, j)) of least (v, j) over the (key, slots) pairs
    in ``windows``, stopping at one <= ``floor``; None when every window
    vanishes mod q.  p^v is the gcd of q and the slots and j the first slot
    of valuation v, read unreduced: gcd(q, x) = p^v and x mod p^(v+1) do
    not see multiples of q."""
    best = None
    for key, xs in windows:
        g = math.gcd(q, *xs)
        if g == q:
            continue
        vj = split_p(g, p)[0], next(j for j, x in enumerate(xs) if x % (g * p))
        if best is None or vj < best[1]:
            best = key, vj
            if vj <= floor:
                break
    return best


def eliminate(rows: Sequence[Sequence[int]], p: int, k: int, width: int,
              start: int = 0, candidates: int | None = None) -> tuple[list[int], list[list[int]]]:
    """Least-valuation elimination of integer rows modulo q = p^k, pivoting
    on the ``width`` slots from ``start`` of the first ``candidates`` rows
    (all by default); ``rows`` is not modified.

    Returns the pivot valuations, in the order chosen, and the rows left
    once those slots of every candidate vanish mod q: the candidates left,
    then the other rows, each reduced mod q without the pivot slots.  A row
    is cleared as the row minus a multiple of the pivot row, with the pivot
    column zero mod q.  The steps are invertible over Z_p, so with A the
    candidates' pivot slots the pivot valuations are the Smith invariants
    of A below k, in increasing order (Cohen, GTM 138, 2.4), and every
    other invariant is at least k; another row is cleared when its pivot
    slots are a Z_p combination of A's rows mod q.  When every nonzero
    invariant is below k, the number of pivots is the rank of A over Q,
    and for rows [A | I] the rows left are congruent modulo p^(k - max
    pivot) to a Z_p basis of {u : u A = 0}: in Smith coordinates, u A = 0
    mod q fixes the coordinate of invariant d_i only modulo p^(k - d_i).

    Each row is one int: entry j, nonnegative, in the w-byte slot j
    (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009).  Rows start
    reduced mod q, and a clear adds c prow, c < q, with prow reduced mod q
    when chosen: a slot grows by less than q^2 per clear, fewer than m
    times, and q + m q^2 < 2^(8 w), so nothing carries.
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

    rows, pivots, v, skip = [pack(row) for row in rows], [], 0, start * bits
    live = m if candidates is None else candidates
    # valuations never decrease: stop at an entry of the last pivot's
    while best := _least(((i, unpack(rows[i] >> skip & low, width)) for i in range(live)), p, q, (v, width)):
        i, (v, j) = best
        prow, pv, shift = pack(unpack(rows.pop(i), n)), p**v, skip + j * bits
        u = pow((prow >> shift & mask) // pv, -1, q)
        pivots.append(v)
        live -= 1
        for i, row in enumerate(rows):  # in place: a replaced row is freed at once
            # c = -row[j] / prow[j] mod q, so that the slots stay nonnegative
            x = row >> shift & mask
            if x % q:
                rows[i] = row + (-(x // pv) * u % q) * prow
    return pivots, [[x % q for part in (xs[:start], xs[start + width:]) for x in part]
                    for xs in (unpack(row, n) for row in rows)]


def eliminate_ol(rows: Sequence[Sequence[int]], p: int, k: int, e: int, shifts) -> list[int]:
    """The pivot valuations ``eliminate`` finds on the rows of ``shifts(v)``
    for every row v, as a multiset, forming only the pivot rows' shifts.

    A row lies in O^d, O = Z_p[x]/(f) with f Eisenstein of degree e, as d
    blocks of e slots on the basis 1, x, ..., x^(e-1); ``shifts(v)`` lists
    v, x v, ..., x^(e-1) v.  Each step takes, over every row and every open
    block, the entry y of least nu_L(y) = min e nu_p(y_i) + i, which is
    e v + j for the (v, j) of ``_least``; these never decrease, so the scan
    stops at one equal to the last.  ``eliminate`` then pivots on y's block
    with y's row's shifts as the only candidates and clears the block in
    every other row (its entry lies in y O).  Shifts it leaves, of
    invariant at least k, are dropped: y divides the rest of its row, so
    column steps over O clear them.  Every row pivots exactly when d e
    valuations are returned.
    """
    rows, found, floor = list(rows), [], (0, 0)
    while rows and (best := _least((((r, b), row[b * e:(b + 1) * e]) for r, row in enumerate(rows)
                                    for b in range(len(row) // e)), p, p**k, floor)):
        (r, b), floor = best
        vn, rest = eliminate(shifts(rows.pop(r)) + rows, p, k, e, b * e, e)
        found += vn
        rows = rest[e - len(vn):]
    return found
