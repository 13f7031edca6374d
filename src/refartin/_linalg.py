"""Exact linear algebra kernels on plain Python ints: integer lattice
kernels, and ``nu_p_det``, the p-adic valuation of a determinant, read by
elimination modulo a power of p with each row packed into one int.  There
are no field routines: the tame oracle reads its invariant lattice and its
determinant off a diagonal.
"""

from __future__ import annotations

import math
import sys
from array import array
from operator import mul
from typing import Sequence

from .cyclotomic import split_p


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel {v in Z^ncols : A v = 0} of an integer matrix.

    Kernels of integer matrices are saturated sublattices, so the returned
    basis generates all integer solutions.  Computed by unimodular row
    reduction of the transpose augmented with an identity block.
    """
    m = len(rows)
    # work rows: i-th row = i-th column of A, augmented with e_i
    work = [[rows[r][i] for r in range(m)] + [0] * ncols for i in range(ncols)]
    for i in range(ncols):
        work[i][m + i] = 1
    pivot_row = 0
    for col in range(m):
        # clear column `col` below pivot_row down to a single nonzero entry
        while True:
            nz = [i for i in range(pivot_row, ncols) if work[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(work[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = work[i][col] // work[i0][col]
                if q:
                    wi, w0 = work[i], work[i0]
                    for j in range(col, m + ncols):
                        wi[j] -= q * w0[j]
        nz = [i for i in range(pivot_row, ncols) if work[i][col] != 0]
        if nz:
            i0 = nz[0]
            work[pivot_row], work[i0] = work[i0], work[pivot_row]
            pivot_row += 1
    return [tuple(r[m:]) for r in work[pivot_row:]]


def nu_p_det(mat: Sequence[Sequence[int]], p: int) -> int | None:
    """nu_p(det mat) of a square integer matrix, or None when det mat = 0.

    Elimination on full pivots of least valuation modulo q = p^k, for k = 4,
    8, 16, ...; ``mat`` is not modified.  A row is cleared as the row minus a
    multiple of the pivot row, with the pivot column zero mod q; cleared
    columns stay in place.  The steps are invertible over Z_p, so the Smith
    invariants d_i come out as min(d_i, k) (Cohen, GTM 138, 2.4), and the
    pivot valuations sum to nu_p(det) unless the remaining block vanishes.
    Then k doubles; past Hadamard's bound, nu_p(det) <= log_p prod |row|
    when det != 0, the matrix is singular.

    Each row is one int: entry j, nonnegative, in the w-byte slot j
    (Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009).  Rows start
    reduced mod q, and a clear adds c prow, c < q, with prow reduced mod q
    when chosen: a slot grows by less than q^2 per clear, fewer than m
    times, and q + m q^2 < 2^(8 w), so nothing carries.  Slots are read
    unreduced: gcd(q, x) = p^v and x mod p^(v+1) do not see multiples of q.
    """
    m = len(mat)
    bound = math.prod(sum(map(mul, r, r)) for r in mat).bit_length() // (2 * p.bit_length() - 2)
    k = 4
    while True:
        q = p**k
        w = 8 * -(-(q + m * q * q).bit_length() // 64)
        size, bits, mask = m * w, 8 * w, (1 << 8 * w) - 1
        if w == 8 and sys.byteorder == "little":

            def unpack(row):
                return memoryview(row.to_bytes(size, "little")).cast("Q")

            def pack(xs):
                return int.from_bytes(array("Q", [x % q for x in xs]), "little")

        else:

            def unpack(row):
                b = row.to_bytes(size, "little")
                return [int.from_bytes(b[i:i + w], "little") for i in range(0, size, w)]

            def pack(xs):
                return int.from_bytes(b"".join((x % q).to_bytes(w, "little") for x in xs), "little")

        rows, total, v = [pack(row) for row in mat], 0, 0
        while rows:
            best = None
            for i, row in enumerate(rows):
                xs = unpack(row)
                g = math.gcd(q, *xs)
                if g == q:  # the row vanishes mod q
                    continue
                vj = split_p(g, p)[0], next(j for j, x in enumerate(xs) if x % (g * p))
                if best is None or vj < best[1]:
                    best = i, vj
                    if vj[0] == v:  # no entry left has a smaller valuation
                        break
            if best is None:
                break
            i, (v, j) = best
            prow, pv, shift = pack(unpack(rows.pop(i))), p**v, j * bits
            u = pow((prow >> shift & mask) // pv, -1, q)
            total += v
            for i, row in enumerate(rows):  # in place: a replaced row is freed at once
                # c = -row[j] / prow[j] mod q, so that the slots stay nonnegative
                x = row >> shift & mask
                if x % q:
                    rows[i] = row + (-(x // pv) * u % q) * prow
        else:
            return total
        if k > bound:
            return None
        k *= 2
