"""Definition-level lattice oracles for the linear base-change conductor.

Two exact models, independent of the character-pairing route:

* an equal-characteristic tame model: K = Q(zeta_n)((t)), O_L = O_K[pi] with
  pi^n = t and sigma(pi) = zeta_n pi.  Since t = pi^n, O_L is simply the
  polynomial ring Q(zeta_n)[pi], and valuations are lowest pi-powers;

* a mixed-characteristic monogenic model: the dense order Z[x]/(f) with f
  monic and Eisenstein at p, so x is a uniformizer of a totally ramified
  extension of Q_p and nu_L(y) is read off the basis 1, x, ..., x^(e-1),
  with a Galois action given by integer polynomials.  Inputs are reduced
  mod f once (``_poly.pmod``); after that Z[x]/(f) is computed in on
  integer lists through shifts by x (``_x_shifts``) and the powers
  g^0, ..., g^e of each Galois map.  Each order, with those powers and the
  conjugates of a normal element, is built once per (p, f, galois)
  (``build_monogenic_order``).

Both oracles compute c_lin(M) = nu_K(det phi) where phi is the multiplication
map (M (x) O_L)^Gamma (x) O_L -> M (x) O_L.  In the tame model the invariant
lattice is read off the diagonal of sigma - 1, and phi's matrix over O_L is
then diagonal, so nu_L(det phi) is the sum of its entries' valuations.  In
the monogenic one nu_L(det phi) is nu_p of the integer norm determinant
(phi as a Z-linear map), nu_p(N_{L/Q_p} y) = nu_L(y), taken on the d
twisted traces of a normal element, which span the invariant lattice up to
an index read by ``_linalg.eliminate``; ``_linalg.eliminate_ol`` reads the
valuation over O_L at the same precision p^k.  No determinant is formed.

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
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from ._linalg import eliminate, eliminate_ol, hadamard_exponent
from ._poly import pmod
from .cyclotomic import Cyclotomic, ONE, ZERO, is_prime, split_p, unit_powers
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
        # sigma - 1 is diagonal: zeta^(i_j + a) - 1 on e_j (x) pi^a, zero
        # exactly when i_j + a = 0 mod n; the kernel is spanned by those e_r
        basis = [[ONE if c == r else ZERO for c in range(d * n)]
                 for r in range(d * n) if (exponents[r // n] + r) % n == 0]
        if len(basis) != d:
            raise OracleError(f"invariant lattice rank {len(basis)} differs from module rank {d}")
        return basis

    def clin(self, exponents: Sequence[int]) -> Fraction:
        """nu_K(det phi) = (1/n) nu_L(det phi) for the diagonal action.

        The invariant vector for e_j is e_j (x) pi^(a_j), and phi maps it to
        pi^(a_j) e_j: phi's matrix over O_L is diag(pi^(a_j)), and nu_L of a
        diagonal determinant is the sum of the entries' valuations."""
        n = self.n
        return Fraction(sum(v.index(ONE) % n for v in self.invariant_basis(exponents)), n)


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
    powers: tuple[tuple[tuple[int, ...], ...], ...]
    normal: tuple[tuple[int, ...], ...]


class MonogenicOrder(_MonogenicOrderFields):
    """The order Z[x]/(f) of a totally ramified Galois extension of Q_p.

    ``f`` is monic and Eisenstein at p, ascending coefficients; ``galois``
    lists one integer polynomial per group element (reduced mod f, identity
    first) with g(x) again a root of f; composition must close into a group
    of order deg f.  ``group`` is that abstract group, with element i the
    automorphism x -> galois[i](x), ``powers[i]`` lists g^0, ..., g^e mod f
    for g = galois[i], and ``normal[i]`` is galois[i](theta) mod f for the
    normal element theta of ``_normal_conjugates``, found and certified once
    every check has passed; all are built here, as tuples.  Equality and
    hashing read (p, f, galois) only, and repr shows neither ``powers`` nor
    ``normal``.
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
            raise OracleError(f"a Galois order needs {e} automorphisms, got {len(maps)}")
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
            powers.append(tuple(map(tuple, pw)))
        # f(g) = sum_k f_k g^k
        if any(any(_combine(f, pw)) for pw in powers):
            raise OracleError("a Galois map does not send x to a root of f")
        index = {g: i for i, g in enumerate(maps)}
        # (sigma_a o sigma_b)(x) = g_b(g_a(x)) = sum_k b_k g_a^k
        table = [[index.get(tuple(_combine(b, pw))) for b in maps] for pw in powers]
        if any(None in row for row in table):
            raise OracleError("Galois maps do not close under composition")
        return tuple.__new__(cls, (p, f, tuple(maps), group_from_table(table), tuple(powers),
                                   _normal_conjugates(p, f, powers)))

    def __getnewargs__(self):
        return self[:3]

    __eq__, __ne__, __hash__ = compared_fields(3)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:4], self))
        return f"MonogenicOrder({fields})"

    @property
    def degree(self) -> int:
        return len(self.f) - 1


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


def _combine(coeffs: Sequence[int], vectors: Sequence[Sequence[int]]) -> list[int]:
    """sum_k coeffs[k] vectors[k], over the first len(coeffs) vectors."""
    return [sum(map(mul, coeffs, col)) for col in zip(*vectors)]


# Keyed on the int tuples of (p, f, galois), all an order depends on.  The
# bound, 32 orders, covers the 11 the oracle-lattice benchmark reads (0.18 MB
# together with their keys, by tracemalloc on CPython 3.11) and the 12 of the
# tests' MONOGENIC_ORDERS.  Exceptions are not cached: invalid input is
# refused on every call.
_unique_order = lru_cache(maxsize=32)(MonogenicOrder)


def build_monogenic_order(p: int, f: Sequence[int], galois: Sequence[Sequence[int]]) -> MonogenicOrder:
    """``MonogenicOrder(p, f, galois)``, one object per input: equal
    arguments, given as lists or as tuples, return the identical order
    (``_unique_order``)."""
    return _unique_order(int(p), tuple(int(c) for c in f), tuple(tuple(int(c) for c in g) for g in galois))


def valuation_monogenic(order: MonogenicOrder, y: Sequence[int] | Sequence[Fraction]):
    """nu_L(y) for y given as a polynomial in x; math.inf for y = 0.

    f is Eisenstein, so x is a uniformizer of the single (totally ramified)
    place above p, and for z = sum z_i x^i integral and reduced mod f the
    terms have the valuations e nu_p(z_i) + i, distinct mod e: nu_L(z) is
    the least of them (Serre, Local Fields, I 6).  A rational y is z/D with
    z integral, and nu_L(y) = nu_L(z) - e nu_p(D).
    """
    p, e = order.p, order.degree
    den = math.lcm(*(c.denominator for c in y))
    z = _reduce_int([c.numerator * (den // c.denominator) for c in y], order.f)
    terms = [e * split_p(c, p)[0] + i for i, c in enumerate(z) if c]
    return min(terms) - e * split_p(den, p)[0] if terms else math.inf


def regular_action(group: FiniteGroup) -> list[list[list[int]]]:
    """Permutation matrices of the left regular representation, one per element."""
    m, table = group.order, group.table
    return [[[int(table[s][t] == r) for t in range(m)] for r in range(m)] for s in range(m)]


def _normal_conjugates(p: int, f: tuple[int, ...],
                       powers: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
    """The conjugates tau(theta), one per group element, from the powers of
    the Galois maps, of theta = (f(c) - f(x)) / (c - x), whose coefficient
    of x^a is sum_{i > a} f_i c^(i-1-a), for the least c >= 0 that makes
    theta normal: its conjugates are a basis of L (normal basis theorem;
    Lang, Algebra, VI 13), that is their e x e matrix has e pivots at
    Hadamard's bound plus one.

    Some c <= e (e - 1) does.  Over a splitting field theta = prod (c - y)
    over the roots y != x of f, so at c = g(x), g in Gamma, the matrix
    [sigma tau(theta)] has its nonzero entries where sigma tau = g, one in
    each row and column.  Its determinant, that of the coordinates times a
    Vandermonde one, is then a nonzero polynomial in c of degree at most
    e (e - 1)."""
    e = len(f) - 1
    for c in range(e * (e - 1) + 1):
        theta = [sum(f[i] * c ** (i - 1 - a) for i in range(a + 1, e + 1)) for a in range(e)]
        conj = [_combine(theta, pw) for pw in powers]
        if len(eliminate(conj, p, hadamard_exponent(conj, p) + 1, e)[0]) == e:
            return tuple(map(tuple, conj))
    raise AssertionError("at most e (e - 1) integers c give a singular matrix")


def oracle_monogenic_clin(order: MonogenicOrder, action: Sequence[Sequence[Sequence[int]]]) -> Fraction:
    """c_lin(M) = nu_K(det phi) computed verbatim in the monogenic model.

    ``action`` lists one integer matrix per group element (indexed like
    ``order.galois``) defining the Galois action on the lattice M.  The
    representation is checked as rho(a) rho(s) = rho(as) for every element a
    and every s in a generating set, which gives rho(a) rho(b) = rho(ab) for
    every pair by induction on the length of b as a word in the generators.

    The invariant lattice K = (M (x) O_L)^Gamma is not formed.  With theta
    the order's normal element, read from ``order.normal`` (no search or
    certification runs here), the twisted traces t_j = sum_tau
    rho(tau) e_j (x) tau(theta), j < d, are invariant and independent: if
    sum_j w_j t_j = 0, then sum_tau rho(tau) w (x) tau(theta) = 0, so every
    rho(tau) w = 0 and w = 0.  By Speiser's lemma L = Q[x]/(f) is Galois
    over Q with group Gamma, so (M (x) L)^Gamma (x) L = M (x) L and K has
    rank d: the t_j span a sublattice S of K of finite index, and det phi
    != 0.  K is saturated in Z_p^(d e), so the Smith invariants va of S's
    d x (d e) matrix are those of the change of basis U from a basis of K:
    det_{O_L} phi_S = det U det_{O_L} phi_K with nu_L(det U) = e sum va.
    nu_L(det phi_S) is nu_p of the integer norm determinant, phi_S as a
    Z-linear map on the Z-basis x^b t_j (b < e), since nu_p(N_{L/Q_p} y) =
    nu_L(y).  With vn its Smith invariants, c_lin = sum vn / e - sum va.

    The t_j are exact integer rows, so at q = p^k, k = 4, 8, 16, ...,
    ``_linalg.eliminate`` finds the invariants va below k and
    ``_linalg.eliminate_ol`` the invariants vn below k.  Once every row
    pivots, d rows and then d e, both sums are exact; otherwise k doubles.
    Every invariant is finite, since S has rank d and det phi_S != 0, so
    the loop ends.

    vn is taken over O_L, a DVR with uniformizer x (Serre, Local Fields,
    I 6), by ``_linalg.eliminate_ol``: full pivoting on the d vectors as a
    d x d matrix over O_L, on the entry of least nu_L, gives its Smith
    form, and only each pivot's e x-shifts are eliminated over Z_p on its
    block.  x^(e s + t) times a unit has Z_p Smith invariants s + 1 (t
    times) and s (e - t times), so vn is the multiset of Smith invariants
    below k of the norm matrix, which ``eliminate`` finds on all its rows.
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
    # t_j on the Z-basis e_i x^a: coordinate (i, a) is sum_tau rho(tau)_ij tau(theta)_a
    conj, k = order.normal, 4
    traces = [[c for i in range(d) for c in _combine([m[i][j] for m in mats], conj)] for j in range(d)]
    while True:
        va = eliminate(traces, order.p, k, d * e)[0]
        if len(va) == d:
            # the x-shifts x^b t_j on the Z-basis e_i x^a: the rows of the
            # transpose of phi_S's matrix, with the same determinant
            vn = eliminate_ol(traces, order.p, k, e, lambda v: _x_shifts(v, order.f))
            if len(vn) == d * e:
                return Fraction(sum(vn), e) - sum(va)
        k *= 2


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


# ---------------------------------------------------------------------------
# ramification data extracted from monogenic orders


class TameCharacterData(NamedTuple):
    generator: int  # group element index generating the tame quotient
    exponent: int  # Psi(generator) = zeta_n^exponent
    n: int  # tame degree
    root: int  # chosen root of Phi_n mod p (the prime of Z[zeta_n] used)


def phi_roots_mod_p(n: int, p: int) -> list[int]:
    """Roots of Phi_n modulo the prime p in increasing order (the primes above p).

    With n = p^a m and p not dividing m, Phi_n = Phi_m^phi(p^a) mod p, and the
    roots of Phi_m are the elements of order exactly m in F_p^*: none unless m
    divides p - 1, and otherwise the powers w^k, gcd(k, m) = 1, of the first
    w = a^((p-1)/m) of order m.
    """
    m = split_p(n, p)[1]
    if (p - 1) % m:
        return []
    for a in range(1, p):
        powers = unit_powers(pow(a, (p - 1) // m, p), p)
        if len(powers) == m:  # a^((p-1)/m) has order exactly m
            return sorted([x for k, x in enumerate(powers) if math.gcd(k, m) == 1])
    raise AssertionError("F_p^* is cyclic, so some a has order m")


def tame_character_from_monogenic(order: MonogenicOrder, prime_choice: int = 0) -> TameCharacterData:
    """The tame character of the extension modeled by the order.

    The residue map sigma -> sigma(x)/x mod m identifies the tame quotient
    with mu_n(F_p); the Teichmueller-style identification with mu_n in
    Q(zeta_n) is made through the prime (p, zeta_n - r) of Z[zeta_n], where r
    is the ``prime_choice``-th root of Phi_n mod p.  Different choices give
    Galois-conjugate characters.
    """
    p, grp = order.p, order.group
    # the tame quotient Gamma_0 / Gamma_1: Gamma_1 is the p-Sylow subgroup of Gamma_0 = Gamma
    n = split_p(grp.order, p)[1]
    if n == 1:
        raise OracleError("the extension has trivial tame quotient")
    # sigma(x)/x mod the maximal ideal: the linear coefficient of g mod p
    # (deg f = |Gamma| > 1, so g has one)
    units = [g[1] % p for g in order.galois]
    if not all(units):
        raise OracleError("degenerate Galois map: sigma(x)/x is not a unit")
    # on generators only, as for the representation in oracle_monogenic_clin
    gens = generators(grp.table)
    for a in range(grp.order):
        for s in gens:
            if units[grp.table[a][s]] != units[a] * units[s] % p:
                raise OracleError("residue map is not a homomorphism")
    roots = phi_roots_mod_p(n, p)
    if not 0 <= prime_choice < len(roots):
        raise OracleError(f"prime_choice {prime_choice} out of range: {len(roots)} primes above {p}")
    root = roots[prime_choice]
    gen = min(g for g in range(grp.order) if len(unit_powers(units[g], p)) == n)
    exponent = unit_powers(root, p).index(units[gen])
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
    filtration = [[0] + [s for s, v in enumerate(depths, 1) if v > i] for i in range(max(depths, default=1))]
    wild = len(filtration[1]) if len(filtration) > 1 else 1
    n = len(filtration[0]) // wild
    tame = tame_character_from_monogenic(order, prime_choice)[:2] if n > 1 else None
    return build_ramification(order.group, filtration, order.p, tame)
