"""Exact linear algebra kernels: integer lattice kernels, field elimination
and one valuation of a determinant.

Integer routines use plain Python ints (arbitrary precision); field routines
work generically over any exact field type with arithmetic dunders and
truthiness (Fraction, Cyclotomic).  ``valuation_det`` works over any discrete
valuation ring whose caller supplies its operations modulo a power of the
uniformizer: Z_p for the monogenic oracle, Q(zeta_n)[[pi]] for the tame one.
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


def field_kernel(rows: list[list], one) -> list[list]:
    """Basis of the right kernel of a matrix over an exact field.

    ``rows`` is modified; entries must support + - * / and truthiness.
    ``one`` is the field's multiplicative identity.  The basis is read off
    the reduced row echelon form, which is unique; pivot rows are kept
    unnormalized, and a pivot is inverted only when a column or a basis
    entry needs it.
    """
    zero = one * 0
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    inverses: list = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow, inv = rows[r], None
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                if inv is None:
                    inv = one / prow[c]
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        inverses.append(inv)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for pr, pc in enumerate(pivots):
            if rows[pr][fc]:
                if inverses[pr] is None:
                    inverses[pr] = one / rows[pr][pc]
                v[pc] = -rows[pr][fc] * inverses[pr]
        basis.append(v)
    return basis


def valuation_det(mat: Sequence[Sequence], bound: int, low, clear) -> int | None:
    """nu(det mat) over a discrete valuation ring, or None when det mat = 0.

    Elimination on full pivots of least valuation modulo pi^k, pi a
    uniformizer, for k = 4, 8, 16, ...; ``mat`` is not modified.  The ring
    comes as whole-row callbacks: ``low(row, k)`` is (v, j), the least
    valuation v < k of an entry and a column j where it occurs, or None when
    the row vanishes mod pi^k; ``clear(row, prow, j, v, k)`` is the row
    minus a multiple of the pivot row prow, times at most a unit, mod pi^k,
    with column j zero.  The steps are invertible over the ring, so the
    Smith invariants d_i come out as min(d_i, k) (Cohen, GTM 138, 2.4), and
    the pivot valuations sum to nu(det) unless the remaining block vanishes.
    Then k doubles; past ``bound``, which nu(det) does not exceed when
    det != 0, the matrix is singular.
    """
    k = 4
    while True:
        rows, total, v = [list(row) for row in mat], 0, 0
        while rows:
            best = None
            for i, row in enumerate(rows):
                vj = low(row, k)
                if vj is not None and (best is None or vj < best[1]):
                    best = i, vj
                    if vj[0] == v:  # no entry left has a smaller valuation
                        break
            if best is None:
                break
            i, (v, j) = best
            prow = rows.pop(i)
            total += v
            for i, row in enumerate(rows):  # in place: a replaced row is freed at once
                rows[i] = row = clear(row, prow, j, v, k) if row[j] else row
                del row[j]
        else:
            return total
        if k > bound:
            return None
        k *= 2
