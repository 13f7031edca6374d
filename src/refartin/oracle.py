"""Definition-level lattice oracles for the linear base-change conductor.

Two exact models, independent of the character-pairing route:

* an equal-characteristic tame model: K = Q(zeta_n)((t)), O_L = O_K[pi] with
  pi^n = t and sigma(pi) = zeta_n pi.  Since t = pi^n, O_L is simply the
  polynomial ring Q(zeta_n)[pi] and valuations are read off exactly as the
  lowest nonzero pi-power;

* a mixed-characteristic monogenic model: the dense order Z[x]/(f) with f
  monic and Eisenstein at p (so x is a uniformizer of a totally ramified
  extension of Q_p), a Galois action given by integer polynomials, and
  valuations computed through norms: nu_L(y) = nu_p(N_{L/Q_p} y), the
  integer determinant of multiplication by y.  Inputs are reduced mod f once
  (``_poly.pmod``); after that every computation in Z[x]/(f) runs on integer
  lists through two operations: shifts by x (``_x_shifts``) and the powers
  g^0, ..., g^e of each Galois map, computed once per order.

Both oracles compute c_lin(M) = nu_K(det phi) where phi is the multiplication
map (M (x) O_L)^Gamma (x) O_L -> M (x) O_L; the invariant lattice is found by
an exact kernel computation (field elimination in the tame model, saturated
integer kernels via unimodular reduction in the monogenic model).  Both take
det phi from the one fraction-free ``_linalg.bareiss_det``: over
Q(zeta_n)[pi] in the tame model, and in the monogenic model over Z, as nu_p
of the integer norm determinant (phi as a Z-linear map), since
nu_p(N_{L/Q_p} y) = nu_L(y) for L/Q_p totally ramified.

The monogenic model also extracts lower-numbering ramification filtrations,
i_Gamma(sigma) = nu_L(sigma(x) - x), and tame characters.  Matching the
residue of sigma(x)/x to a root of unity in Q(zeta_n) requires choosing a
prime of Z[zeta_n] above p; the choice is an explicit parameter
(``prime_choice`` indexes the roots of Phi_n mod p in increasing order), and
different choices yield Galois-conjugate tame characters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from ._linalg import bareiss_det, field_kernel, integer_kernel
from ._poly import pexact_div, plow_order, pmod, pmul, psub, ptrim
from .cyclotomic import Cyclotomic, ONE, ZERO, is_prime, multiplicative_order, roots_of_unity
from .grouptheory import FiniteGroup, compared_fields, generators, group_from_table
from .ramification import OracleError, RamificationData, build_ramification


# ---------------------------------------------------------------------------
# equal-characteristic tame model


class _TameModelFields(NamedTuple):
    n: int


class TameModel(_TameModelFields):
    """O_L = Q(zeta_n)[pi] with pi^n = t and sigma(pi) = zeta_n pi.

    sigma has order n and fixes the base ring Q(zeta_n)[t]; nu_L(pi) = 1 and
    nu_L(t) = n.
    """

    __slots__ = ()

    def __new__(cls, n: int):
        if n < 1:
            raise OracleError("tame degree must be positive")
        return tuple.__new__(cls, (n,))

    def invariant_basis(self, exponents: Sequence[int]) -> list[list[Cyclotomic]]:
        """Basis of (M (x) O_L)^sigma for the diagonal action
        sigma = diag(zeta^i_1, ..., zeta^i_d) on M, as vectors over the
        O_K-basis e_j (x) pi^a (j major, a minor)."""
        n, d = self.n, len(exponents)
        dim = d * n
        roots = roots_of_unity(n)
        rows = []
        for j in range(d):
            for a in range(n):
                row = [ZERO] * dim
                row[j * n + a] = roots[(exponents[j] + a) % n] - ONE
                rows.append(row)
        basis = field_kernel(rows, ONE)
        if len(basis) != d:
            raise OracleError(
                f"invariant lattice rank {len(basis)} differs from module rank {d}"
            )
        return basis

    def clin(self, exponents: Sequence[int]) -> Fraction:
        """nu_K(det phi) = (1/n) nu_L(det phi) for the diagonal action."""
        n, d = self.n, len(exponents)
        basis = self.invariant_basis(exponents)
        # phi matrix over O_L = Q(zeta_n)[pi]: column k lists the O_L
        # coordinates of the k-th invariant vector
        mat = [
            [ptrim([basis[k][j * n + a] for a in range(n)]) for k in range(d)]
            for j in range(d)
        ]
        # (1,), the polynomial 1, is the one pdivmod divides by without a loop
        det = bareiss_det(mat, _poly_step, (1,))
        if not det:
            raise OracleError("base-change map is not injective")
        return Fraction(plow_order(det), n)


def _poly_step(a: tuple, b: tuple, c: tuple, d: tuple, prev: tuple) -> tuple:
    """The Bareiss step over a polynomial ring: (a d - b c) / prev."""
    return pexact_div(psub(pmul(a, d), pmul(b, c)), prev)


def _int_step(a: int, b: int, c: int, d: int, prev: int) -> int:
    """The Bareiss step over Z: (a d - b c) / prev."""
    return (a * d - b * c) // prev


def oracle_tame_clin(n: int, exponents: Sequence[int]) -> Fraction:
    """c_lin for the diagonal action with the given exponents on the tame
    cyclic model of degree n; equals sum_j ((n - i_j) mod n)/n."""
    return TameModel(n).clin([i % n for i in exponents])


# ---------------------------------------------------------------------------
# mixed-characteristic monogenic model


class _MonogenicOrderFields(NamedTuple):
    p: int
    f: tuple[int, ...]
    galois: tuple[tuple[int, ...], ...]
    group: FiniteGroup
    powers: tuple[list[list[int]], ...]


class MonogenicOrder(_MonogenicOrderFields):
    """The order Z[x]/(f) of a totally ramified Galois extension of Q_p.

    ``f`` is monic and Eisenstein at p, ascending coefficients; ``galois``
    lists one integer polynomial per group element (reduced mod f, identity
    first) with g(x) again a root of f; composition must close into a group
    of order deg f.  ``group`` is that abstract group, with element i the
    automorphism x -> galois[i](x), and ``powers[i]`` lists g^0, ..., g^e
    mod f for g = galois[i]; both are built here.  Equality and hashing read
    (p, f, galois) only, and repr does not show ``powers``.
    """

    __slots__ = ()

    def __new__(cls, p: int, f: tuple[int, ...], galois: tuple[tuple[int, ...], ...]):
        if not is_prime(p):
            raise OracleError(f"{p} is not prime")
        if len(f) < 2 or f[-1] != 1:
            raise OracleError("f must be monic of positive degree")
        if any(c % p for c in f[:-1]) or f[0] % (p * p) == 0:
            raise OracleError(f"f is not Eisenstein at {p}")
        e = len(f) - 1
        maps = [_reduce_int(g, f) for g in galois]
        if len(maps) != e:
            raise OracleError(
                f"a Galois order needs {e} automorphisms, got {len(maps)}"
            )
        if maps[0] != _reduce_int((0, 1), f):
            raise OracleError("the first Galois map must be the identity x -> x")
        if len(set(maps)) != e:
            raise OracleError("Galois maps are not distinct")
        powers = []
        for g in maps:
            # g^(k+1) = sum_j (g^k)_j x^j g: the rows of multiplication by g
            # are the x-shifts of g
            times_g = _x_shifts(list(g), f)
            pw = [[1] + [0] * (e - 1)]
            for _ in range(e):
                pw.append(_combine(pw[-1], times_g))
            powers.append(pw)
        # f(g) = sum_k f_k g^k
        if any(any(_combine(f, pw)) for pw in powers):
            raise OracleError("a Galois map does not send x to a root of f")
        index = {g: i for i, g in enumerate(maps)}
        table = []
        for pw in powers:
            row = []
            for b in maps:
                # (sigma_a o sigma_b)(x) = g_b(g_a(x)) = sum_k b_k g_a^k
                comp = tuple(_combine(b, pw))
                if comp not in index:
                    raise OracleError("Galois maps do not close under composition")
                row.append(index[comp])
            table.append(row)
        return tuple.__new__(cls, (p, f, tuple(maps), group_from_table(table), tuple(powers)))

    def __getnewargs__(self):
        return self[:3]

    __eq__, __ne__, __hash__ = compared_fields(3)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:4], self))
        return f"MonogenicOrder({fields})"

    @property
    def degree(self) -> int:
        return len(self.f) - 1

    def sigma_matrix(self, i: int) -> list[list[int]]:
        """Matrix of the i-th automorphism on the Z-basis 1, x, .., x^(e-1):
        its columns are g^0, ..., g^(e-1)."""
        return [list(row) for row in zip(*self.powers[i][:-1])]


def _reduce_int(g: Sequence[int], f: tuple[int, ...]) -> tuple[int, ...]:
    """g mod f as a coefficient tuple of length deg f."""
    out = pmod(tuple(int(c) for c in g), f)
    return out + (0,) * (len(f) - 1 - len(out))


def _x_shifts(v: list[int], f: tuple[int, ...]) -> list[list[int]]:
    """v, x v, ..., x^(e-1) v for e = deg f, each block of e coordinates of
    v an element of Z[x]/(f).

    x y mod f shifts each block up and subtracts its top times f.  Rows are
    lists: tuples of each length up to 19 would fill CPython's tuple free
    lists, which only a full collection empties (+3 MiB of peak RSS on the
    oracle-lattice benchmark, CPython 3.11)."""
    e = len(f) - 1
    rows = [v]
    for _ in range(e - 1):
        nxt = []
        for j in range(0, len(v), e):
            top = v[j + e - 1]
            nxt += [(v[j + a - 1] if a else 0) - top * f[a] for a in range(e)]
        v = nxt
        rows.append(v)
    return rows


def _combine(coeffs: Sequence[int], vectors: Sequence[list[int]]) -> list[int]:
    """sum_k coeffs[k] vectors[k], over the first len(coeffs) vectors."""
    return [sum(map(mul, coeffs, col)) for col in zip(*vectors)]


def build_monogenic_order(p: int, f: Sequence[int], galois: Sequence[Sequence[int]]) -> MonogenicOrder:
    return MonogenicOrder(int(p), tuple(int(c) for c in f), tuple(tuple(int(c) for c in g) for g in galois))


def valuation_monogenic(order: MonogenicOrder, y: Sequence[int] | Sequence[Fraction]):
    """nu_L(y) for y given as a polynomial in x: nu_p(N_{L/Q_p} y), the
    integer determinant of multiplication by y on Z[x]/(f).

    A rational y is z/D with z integral, and nu_L(y) = nu_L(z) - e nu_p(D).
    Returns math.inf for y = 0.  Valid because f is Eisenstein, so x is a
    uniformizer of the single (totally ramified) place above p.
    """
    den = math.lcm(*(c.denominator for c in y))
    z = list(_reduce_int([c.numerator * (den // c.denominator) for c in y], order.f))
    if not any(z):
        return math.inf
    det = bareiss_det(_x_shifts(z, order.f), _int_step, 1)
    return _val_p(det, order.p) - order.degree * _val_p(den, order.p)


def _val_p(q: int, p: int) -> int:
    if q == 0:
        raise ArithmeticError("valuation of zero")
    v = 0
    while q % p == 0:
        q //= p
        v += 1
    return v


def regular_action(group: FiniteGroup) -> list[list[list[int]]]:
    """Permutation matrices of the left regular representation, one per element."""
    m = group.order
    out = []
    for s in range(m):
        mat = [[0] * m for _ in range(m)]
        for t in range(m):
            mat[group.table[s][t]][t] = 1
        out.append(mat)
    return out


def oracle_monogenic_clin(order: MonogenicOrder, action: Sequence[Sequence[Sequence[int]]]) -> Fraction:
    """c_lin(M) = nu_K(det phi) computed verbatim in the monogenic model.

    ``action`` lists one integer matrix per group element (indexed like
    ``order.galois``) defining the Galois action on the lattice M.  The
    representation is checked as rho(a) rho(s) = rho(as) for every element a
    and every s in a generating set, which gives rho(a) rho(b) = rho(ab) for
    every pair by induction on the length of b as a word in the generators.
    The invariant lattice is the integer kernel of the stacked
    (sigma (x) sigma - 1) matrices over the same generators (saturated by
    construction).  nu_L(det phi) is nu_p of the integer norm determinant:
    the determinant of phi as a Z-linear map, on the Z-basis v_k x^b (b < e)
    of its source, with x^b v_k reduced mod f.
    """
    e = order.degree
    grp = order.group
    mats = [[list(map(int, row)) for row in m] for m in action]
    if len(mats) != grp.order:
        raise OracleError("one action matrix per group element required")
    d = len(mats[0])
    if any(len(m) != d or any(len(row) != d for row in m) for m in mats):
        raise OracleError("action matrices must be square of equal size")
    if mats[0] != [[1 if i == j else 0 for j in range(d)] for i in range(d)]:
        raise OracleError("identity element must act as the identity matrix")
    gens = generators(grp.table)
    for a in range(grp.order):
        for s in gens:
            if _mat_mul(mats[a], mats[s]) != mats[grp.table[a][s]]:
                raise OracleError("action matrices do not define a representation")
    # stacked (B_sigma - 1) over generators sigma, B = A (x) S
    stacked: list[list[int]] = []
    dim = d * e
    for s in gens:
        smat = order.sigma_matrix(s)
        amat = mats[s]
        for j2 in range(d):
            for a2 in range(e):
                row = [0] * dim
                for j in range(d):
                    if amat[j2][j] == 0:
                        continue
                    for a in range(e):
                        row[j * e + a] += amat[j2][j] * smat[a2][a]
                row[j2 * e + a2] -= 1
                stacked.append(row)
    kernel = integer_kernel(stacked, dim)
    if len(kernel) != d:
        raise OracleError(
            f"invariant lattice rank {len(kernel)} differs from module rank {d}; "
            "the action is not through a finite quotient compatible with the order"
        )
    # row (k, b) lists the coordinates of x^b v_k on the Z-basis e_j x^a:
    # the transpose of phi's matrix, with the same determinant
    rows = [row for v in kernel for row in _x_shifts(list(v), order.f)]
    det = bareiss_det(rows, _int_step, 1)
    if not det:
        raise OracleError("base-change map is not injective")
    return Fraction(_val_p(det, order.p), e)


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# ramification data extracted from monogenic orders


class TameCharacterData(NamedTuple):
    generator: int  # group element index generating the tame quotient
    exponent: int  # Psi(generator) = zeta_n^exponent
    n: int  # tame degree
    root: int  # chosen root of Phi_n mod p (the prime of Z[zeta_n] used)


def _residue_units(order: MonogenicOrder) -> list[int]:
    """sigma(x)/x mod the maximal ideal, per group element: an element of
    F_p^x, namely the linear coefficient of g_sigma reduced mod p."""
    p = order.p
    out = []
    for g in order.galois:
        u = (g[1] if len(g) > 1 else 0) % p
        if u == 0:
            raise OracleError("degenerate Galois map: sigma(x)/x is not a unit")
        out.append(u)
    return out


def phi_roots_mod_p(n: int, p: int) -> list[int]:
    """Roots of Phi_n modulo the prime p in increasing order (the primes above p).

    With n = p^a m and p not dividing m, Phi_n = Phi_m^phi(p^a) mod p, and the
    roots of Phi_m are the elements of order exactly m in F_p^*: none unless m
    divides p - 1, and otherwise the powers w^k, gcd(k, m) = 1, of the first
    w = a^((p-1)/m) of order m.
    """
    m = n
    while m % p == 0:
        m //= p
    if (p - 1) % m:
        return []
    for a in range(1, p):
        w = pow(a, (p - 1) // m, p)
        powers = [pow(w, k, p) for k in range(1, m + 1)]
        if powers.index(1) == m - 1:  # w has order exactly m
            return sorted([x for k, x in enumerate(powers, 1) if math.gcd(k, m) == 1])
    raise AssertionError("F_p^* is cyclic, so some a has order m")


def tame_character_from_monogenic(order: MonogenicOrder, prime_choice: int = 0) -> TameCharacterData:
    """The tame character of the extension modeled by the order.

    The residue map sigma -> sigma(x)/x mod m identifies the tame quotient
    with mu_n(F_p); the Teichmueller-style identification with mu_n in
    Q(zeta_n) is made through the prime (p, zeta_n - r) of Z[zeta_n], where r
    is the ``prime_choice``-th root of Phi_n mod p.  Different choices give
    Galois-conjugate characters.
    """
    units = _residue_units(order)
    p = order.p
    grp = order.group
    wild = [i for i, u in enumerate(units) if u == 1]
    n = grp.order // len(wild)
    if n == 1:
        raise OracleError("the extension has trivial tame quotient")
    if math.gcd(p, n) != 1:
        raise OracleError(f"tame degree {n} not coprime to p={p}")
    # on generators only, as for the representation in oracle_monogenic_clin
    gens = generators(grp.table)
    for a in range(grp.order):
        for s in gens:
            if units[grp.table[a][s]] != units[a] * units[s] % p:
                raise OracleError("residue map is not a homomorphism")
    roots = phi_roots_mod_p(n, p)
    if not 0 <= prime_choice < len(roots):
        raise OracleError(
            f"prime_choice {prime_choice} out of range: {len(roots)} primes above {p}"
        )
    root = roots[prime_choice]
    gen = min(
        g for g in range(grp.order) if multiplicative_order(units[g], p) == n
    )
    exponent = next(c for c in range(n) if pow(root, c, p) == units[gen])
    return TameCharacterData(gen, exponent, n, root)


def filtration_from_monogenic(order: MonogenicOrder, prime_choice: int = 0) -> RamificationData:
    """Lower-numbering ramification data of the extension modeled by the order:
    Gamma_i = { sigma : nu_L(sigma(x) - x) >= i + 1 }.

    The tame character (when the tame quotient is nontrivial) is extracted
    with :func:`tame_character_from_monogenic` at the given prime choice.
    The output passes full ramification validation.
    """
    depths = [valuation_monogenic(order, [g[0], g[1] - 1, *g[2:]]) for g in order.galois[1:]]
    if not all(1 <= v < math.inf for v in depths):
        raise OracleError("automorphism does not move the uniformizer properly")
    # Gamma_0 = Gamma (every depth is at least 1), ..., Gamma_(max depth - 1)
    filtration = [
        [0] + [s for s, v in enumerate(depths, 1) if v > i] for i in range(max(depths, default=1))
    ]
    wild = len(filtration[1]) if len(filtration) > 1 else 1
    n = len(filtration[0]) // wild
    tame = None
    if n > 1:
        tc = tame_character_from_monogenic(order, prime_choice)
        tame = (tc.generator, tc.exponent)
    return build_ramification(order.group, filtration, order.p, tame)
