"""Exact linear algebra kernels: integer lattice kernels, field elimination
and one fraction-free determinant.

Integer routines use plain Python ints (arbitrary precision); field routines
work generically over any exact field type with arithmetic dunders and
truthiness (Fraction, Cyclotomic).  ``bareiss_det`` works over any integral
domain whose caller supplies the exact cross-multiply-and-divide step: Z for
the monogenic oracle, Q(zeta_n)[pi] for the tame one.
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


def bareiss_det(mat: Sequence[Sequence], step, one):
    """Determinant of a square matrix over an integral domain, up to sign.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): each pass sets
    a_ij = step(a_kk, a_kj, a_ik, a_ij, prev) = (a_kk a_ij - a_kj a_ik) / prev,
    the division exact in the ring, where prev is the previous pivot and
    ``one`` the ring's one; an entry must be falsy exactly when it is zero.
    Rows are swapped to find a nonzero pivot and the swaps are not counted,
    so the sign is lost: callers read only a valuation.  A 0x0 matrix gives
    ``one``; a singular one gives the zero entry that left its pivot column
    empty.
    """
    a = [list(row) for row in mat]
    n = len(a)
    prev = one
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return a[k][k]
        a[k], a[pivot] = a[pivot], a[k]
        pk, rest = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            c = row[k]
            row[k + 1:] = [step(pk, t, c, x, prev) for t, x in zip(rest, row[k + 1:])]
        prev = pk
    return prev
