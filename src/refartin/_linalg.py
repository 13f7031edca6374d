"""Exact linear algebra kernels: integer lattice kernels and field elimination.

Integer routines use plain Python ints (arbitrary precision); field routines
work generically over any exact field type with arithmetic dunders and
truthiness (Fraction, Cyclotomic).
"""

from __future__ import annotations

from typing import Sequence

from ._poly import pexact_div, pmul, psub, pscale, ptrim


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


def field_kernel(rows: list[list], one) -> list[list]:
    """Basis of the right kernel of a matrix over an exact field.

    ``rows`` is modified; entries must support + - * / and truthiness.
    ``one`` is the field's multiplicative identity.
    """
    zero = one * 0
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for pr, pc in enumerate(pivots):
            v[pc] = -rows[pr][fc]
        basis.append(v)
    return basis


def bareiss_poly_det(mat: list[list[tuple]]) -> tuple:
    """Determinant of a matrix over F[x] (entries as _poly tuples), fraction-free.

    Uses the Bareiss scheme; all divisions are exact in the polynomial ring.
    """
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    a = [[ptrim(e) for e in row] for row in mat]
    sign = 1
    prev: tuple = None  # type: ignore[assignment]
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return ()
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = psub(pmul(a[i][j], a[k][k]), pmul(a[i][k], a[k][j]))
                a[i][j] = pexact_div(num, prev) if prev is not None and prev != () else num
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else pscale(det, -1)
