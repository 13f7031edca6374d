"""Reference kernels for differential tests of the lattice oracles.

These are earlier kernels of ``refartin.oracle`` and ``refartin._linalg``,
kept only as independent oracles for the current ones:

* ``presultant`` and ``val_p``: nu_L(y) was read as nu_p(Res(f, y)), with
  the resultant taken by the Euclidean remainder sequence on ``Fraction``
  coefficients and nu_p taken of a rational.  The oracle now reads nu_L(y)
  off the coefficients of y on the basis 1, x, ..., x^(e-1).
* ``bareiss_det`` with ``int_step`` and ``poly_step`` (and ``psub``, the
  polynomial difference, which no ``refartin`` module calls): both oracles
  took the full determinant by fraction-free elimination.  The monogenic
  oracle now reads its valuation by full pivoting over O_L
  (``_linalg.eliminate_ol``), and the tame one sums the valuations of the
  diagonal entries of phi's matrix over Q(zeta_n)[pi].
* "``eliminate`` on every x-shift": the monogenic norm step before
  ``eliminate_ol`` formed all d e norm rows, the x-shifts x^b v of each
  kernel vector v, and ran ``_linalg.eliminate`` on them.  That route needs
  no code of its own, so it is not copied here; ``tests/test_oracle.py``
  runs it as the reference route for the norm step, with the same sorted
  pivot valuations and the same verdict on rows left.
* ``integer_kernel``: the monogenic oracle took its invariant lattice as the
  saturated integer kernel of the sigma (x) sigma - 1 stack, by Euclidean
  row reduction over Z.  It then ran the least-valuation elimination over
  Z_p on the stack's columns (``stack_route``).
* ``stack_route`` with ``sigma_matrix``: the monogenic oracle took its
  invariant lattice K tensor Z_p as the rows left by ``_linalg.eliminate``
  on the columns of the stacked sigma (x) sigma - 1 over a generating set,
  each followed by its unit vector, exact only modulo p^(k - max va), and
  accepted sum vn / e when every row pivots and max vn + max va < k.  It
  now eliminates the d twisted traces of a normal element, exact integer
  rows spanning a sublattice of K of index p^(sum va), and accepts when
  every row pivots.
* ``field_kernel``: the kernel basis read off the reduced row echelon form,
  every pivot row normalized at once.  The tame oracle took its invariant
  lattice by field elimination on the dense diagonal matrix of sigma - 1; it
  now reads the unit vectors off that diagonal.  The cyclotomic reference
  solves for subfield coordinates with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from refartin._linalg import eliminate, eliminate_ol, hadamard_exponent
from refartin._poly import padd, pdeg, pmod, pmul, ptrim
from refartin.cyclotomic import Cyclotomic
from refartin.grouptheory import generators
from refartin.oracle import _x_shifts


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


def psub(a: Sequence, b: Sequence) -> tuple:
    return padd(a, tuple(-c for c in b))


def bareiss_det(mat: Sequence[Sequence], step, one):
    """Determinant of a square matrix over an integral domain, up to sign.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): each pass sets
    a_ij = step(a_kk, a_kj, a_ik, a_ij, prev) = (a_kk a_ij - a_kj a_ik) / prev,
    the division exact in the ring, where prev is the previous pivot and
    ``one`` the ring's one; an entry must be falsy exactly when it is zero.
    Rows are swapped to find a nonzero pivot and the swaps are not counted,
    so the sign is lost.  A 0x0 matrix gives ``one``; a singular one gives
    the zero entry that left its pivot column empty.
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


def int_step(a: int, b: int, c: int, d: int, prev: int) -> int:
    """The Bareiss step over Z: (a d - b c) / prev."""
    return (a * d - b * c) // prev


def poly_step(a: tuple, b: tuple, c: tuple, d: tuple, prev: tuple) -> tuple:
    """The Bareiss step over a polynomial ring: (a d - b c) / prev, by long
    division through the reciprocal of prev's leading coefficient."""
    rem, inv, q = list(psub(pmul(a, d), pmul(b, c))), reciprocal(prev[-1]), []
    for top in range(len(rem) - len(prev), -1, -1):
        q.append(rem[top + len(prev) - 1] * inv)
        for i, y in enumerate(prev):
            rem[top + i] = rem[top + i] - q[-1] * y
    assert not any(rem), "the Bareiss division is exact"
    return ptrim(tuple(reversed(q)))


def reciprocal(x):
    """1/x in Q, or in Q(zeta_N) by the reference inverse: ``Cyclotomic``
    values have no division."""
    if isinstance(x, Cyclotomic):
        from cyclotomic_reference import inverse  # it imports this module

        return inverse(x)
    return Fraction(1) / x


def field_kernel(rows: list[list], one) -> list[list]:
    """Basis of the right kernel of a matrix over an exact field, every
    pivot row normalized as soon as it is chosen."""
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
        inv = reciprocal(rows[r][c])
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


def sigma_matrix(order, i: int) -> list[list[int]]:
    """Matrix of the i-th automorphism of a ``MonogenicOrder`` on the Z-basis
    1, x, .., x^(e-1): its columns are g^0, ..., g^(e-1), read from
    ``order.powers``."""
    return [list(row) for row in zip(*order.powers[i][:-1])]


def stack_route(order, action) -> tuple[Fraction, int, list[int], list[list[int]]]:
    """(c_lin, k, va, rows left) by the stack route, at the accepted k.

    The columns of the stacked B_sigma - 1, B = A (x) S, over the generators
    sigma, each followed by its unit vector, are eliminated on the stack's
    slots: with pivot valuations va, the d rows left span the invariant
    lattice tensor Z_p modulo p^(k - max va).  Their norm rows have pivot
    valuations vn over O_L, and sum vn / e is exact when every row pivots
    and max vn + max va < k, since a perturbation by p^j leaves the Smith
    form unchanged when every invariant is below j.  Otherwise k doubles;
    a rank other than d is exact once k passes Hadamard's bound on the
    stack's columns, and fails the assertion."""
    e, d = order.degree, len(action[0])
    blocks, dim = [(action[s], list(zip(*sigma_matrix(order, s)))) for s in generators(order.group.table)], d * e
    width, cols = len(blocks) * dim, []
    for i in range(dim):
        j, a = divmod(i, e)
        col = []
        for amat, scols in blocks:
            col += [x * amat[j2][j] for j2 in range(d) for x in scols[a]]
            col[len(col) - dim + i] -= 1
        cols.append(col + [0] * i + [1] + [0] * (dim - 1 - i))
    k = 4
    while True:
        va, rest = eliminate(cols, order.p, k, width)
        if len(rest) == d:
            vn = eliminate_ol(rest, order.p, k, e, lambda v: _x_shifts(v, order.f))
            if len(vn) == dim and max(vn, default=0) + max(va, default=0) < k:
                return Fraction(sum(vn), e), k, va, rest
        else:
            assert k <= hadamard_exponent([c[:width] for c in cols], order.p), \
                f"invariant lattice rank {len(rest)} differs from module rank {d}"
        k *= 2
