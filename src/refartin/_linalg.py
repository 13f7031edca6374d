"""Exact linear algebra kernels: integer lattice kernels on plain Python
ints, and one valuation of a determinant over any discrete valuation ring
whose caller encodes the rows and their operations modulo a power of the
uniformizer: Z_p with a row packed into one int for the monogenic oracle,
Q(zeta_n)[[pi]] with list rows for the tame one.  There are no field
routines: the tame oracle reads its invariant lattice off a diagonal.
"""

from __future__ import annotations

from typing import Sequence


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


def valuation_det(mat: Sequence[Sequence], bound: int, ring) -> int | None:
    """nu(det mat) over a discrete valuation ring, or None when det mat = 0.

    Elimination on full pivots of least valuation modulo pi^k, pi a
    uniformizer, for k = 4, 8, 16, ...; ``mat`` is not modified.  Rows are
    opaque here: ``ring(mat, k)`` is (rows, low, pivot), the rows encoded mod
    pi^k; ``low(row)`` is (v, j), the least valuation v < k of an entry and
    a column j where it occurs, or None when the row vanishes mod pi^k;
    ``pivot(prow, v, j)`` is the function clearing a row against the pivot
    row: the row minus a multiple of prow, times at most a unit, with column
    j zero mod pi^k (unchanged if it was); cleared columns stay in place.
    The steps are invertible over the ring, so the Smith invariants d_i come
    out as min(d_i, k) (Cohen, GTM 138, 2.4), and the pivot valuations sum to
    nu(det) unless the remaining block vanishes.  Then k doubles; past
    ``bound``, which nu(det) does not exceed when det != 0, the matrix is
    singular.
    """
    k = 4
    while True:
        (rows, low, pivot), total, v = ring(mat, k), 0, 0
        while rows:
            best = None
            for i, row in enumerate(rows):
                vj = low(row)
                if vj is not None and (best is None or vj < best[1]):
                    best = i, vj
                    if vj[0] == v:  # no entry left has a smaller valuation
                        break
            if best is None:
                break
            i, (v, j) = best
            clear = pivot(rows.pop(i), v, j)
            total += v
            for i, row in enumerate(rows):  # in place: a replaced row is freed at once
                rows[i] = clear(row)
        else:
            return total
        if k > bound:
            return None
        k *= 2
