"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored in the power basis 1, z, ..., z^(phi(N)-1) of
Q[X]/(Phi_N(X)) as a tuple of integer numerators over one positive common
denominator, in lowest terms (the gcd of the denominator and all numerators
is 1).  Arithmetic, printing and parsing run on plain Python ints (``encode``
and ``str`` reduce each numerator against den by one gcd); ``coeffs`` is a
read-only view of the coordinates as ``Fraction``.

Values are always kept at the *smallest* conductor realizing them, so
equality is plain equality of (conductor, numerators, denominator).
Conductors congruent to 2 mod 4 are never used (Q(zeta_2m) = Q(zeta_m) for
odd m); conductor-1 values are exactly the rationals.  The canonical form
descends one prime q at a time by reading the strands num[t::q] of the
numerators (:func:`_descend`), through Phi_mq(X) = Phi_m(X^q) when q divides
m and Q(zeta_mq) = Q(zeta_m) (x) Q(zeta_q) when it does not, so no table is
kept and no linear system is solved.  Every result is reduced modulo Phi_N
by :func:`_mod_phi`: fold X^N = 1, then divide by Phi_N from the top down
through its nonzero terms only (as many as Phi_rad(N) has, 5 at N = 800).
Every linear combination sum w_i v_i / d (integer weights, one d > 0) is one
:func:`cyclo_sum`, canonicalized once; :func:`hermitian_sum`, the kernel of
the pairing, sums products in Z[X]/(X^N - 1) over a final ``den`` (|G| for a
pairing) and canonicalizes once.

Everything is immutable and pure; the per-conductor caches are filled
idempotently, so concurrent use needs no synchronization.

Hot paths build tuples and *-arguments from lists, not generators: CPython
builds a tuple from a generator by resizing, and resized tuples pile up on
its per-size free lists, which only a full garbage collection empties.

No floating point is used anywhere.

The module is also the package's one home for elementary number theory:
:func:`is_prime`, :func:`prime_factors`, :func:`euler_phi`, :func:`divisors`,
:func:`split_p`, :func:`unit_powers` (multiplicative order and discrete log),
:func:`cyclotomic_polynomial`, and the generic :func:`closure` of a set of
generators under a multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from ._poly import pexact_div


class NotRationalError(ArithmeticError):
    """Raised when a cyclotomic value is extracted as a rational but is not one."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Unbounded, but keyed by conductors, which admission caps at 400."""
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Unbounded, but keyed by conductors, which admission caps at 400."""
    out, p, m = [], 2, n
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            m = split_p(m, p)[1]
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


# Sorenson and Webster (2015): Miller-Rabin with the first 13 prime bases is
# exact for every n below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin with the prime bases 2..41.

    Exact for n < psi_13 = 3317044064679887385961981; raises ValueError for
    larger n, where these bases are no longer proven sufficient.
    """
    if n >= PSI_13:
        raise ValueError(f"{n} is beyond the range of deterministic primality testing")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_p(n: int, p: int) -> tuple[int, int]:
    """(v, m) with n = p^v * m and p not dividing m, for n != 0 and p > 1."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def unit_powers(a: int, n: int) -> list[int]:
    """[1, a, ..., a^(r-1)] mod n, r the multiplicative order of the unit a
    mod n: the list's length is that order and ``index(x)`` the discrete log
    of x to the base a.  Raises ValueError when a is not a unit mod n."""
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    out, x = [1 % n], a % n
    while x != out[0]:
        out.append(x)
        x = x * a % n
    return out


def closure(gens: Iterable, mul: Callable, one, limit: int | None = None) -> set:
    """Everything reachable from ``one`` by multiplying on the right by the
    generators, breadth first: the subgroup they generate in a finite group.
    With a ``limit`` it returns early, after the level that passes ``limit``."""
    gens = list(gens)
    seen = {one}
    frontier = [one]
    while frontier and (limit is None or len(seen) <= limit):
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree, computed by dividing
    X^n - 1 by the cyclotomic polynomials of the proper divisors of n.
    Unbounded, but keyed by conductors up to 400 and their divisors."""
    if n == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in divisors(n)[:-1]:
        num = pexact_div(num, cyclotomic_polynomial(d))
    return num


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(n), the pairs (j, a) of the terms a X^j != 0 of Phi_n below X^phi(n)).
    Unbounded, but admission caps every conductor an input reaches at 400: its
    values, its pairings and 4 times the tame order that ``verify`` reads."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple([(j, a) for j, a in enumerate(phi[:-1]) if a])


def _mod_phi(n: int, v: list[int]) -> list[int]:
    """The phi(n) power-basis coordinates of the integer polynomial v
    (ascending; v may be modified) modulo Phi_n: fold X^n = 1, then clear the
    top coefficients one by one through the nonzero terms of the monic Phi_n."""
    d, terms = _phi_terms(n)
    if len(v) > n:  # X^n = 1
        for start in range(n, len(v), n):
            chunk = v[start : start + n]
            v[: len(chunk)] = map(add, v[: len(chunk)], chunk)
        del v[n:]
    for e in range(len(v) - 1, d - 1, -1):
        if c := v[e]:
            base = e - d
            for j, a in terms:
                v[base + j] -= c * a
    del v[d:]
    v += [0] * (d - len(v))
    return v


def _scatter(n: int, terms: Iterable[tuple[int, int]]) -> list[int]:
    """Power-basis numerators at conductor n of sum c * X^e over (e, c)
    pairs; exponents are taken mod n, so the sum is reduced once in
    Z[X]/(X^n - 1) and then once modulo Phi_n."""
    v = [0] * n
    for e, c in terms:
        if c:
            v[e % n] += c
    return _mod_phi(n, v)


def _mul_raw(n: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Numerators at conductor n of the product of two values given by their
    numerators at conductor n."""
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                conv[i + j] += x * y
    return _mod_phi(n, conv)


def _descend(n: int, q: int, num: Sequence[int]) -> Sequence[int] | None:
    """The numerators at conductor m = n/q (q a prime dividing n) of the value
    with numerators num at conductor n, or None when the value does not lie
    in Q(zeta_m).  Both cases read the strands num[t::q]:

    If q divides m, Phi_n(X) = Phi_m(X^q), so the value is
    sum_t z_n^t S_t(zeta_m) with S_t strand t, and 1, z_n, ..., z_n^(q-1) are
    a basis over Q(zeta_m): the value lies there exactly when every strand
    t != 0 is zero, and then num[::q] are its numerators.

    If not, Q(zeta_n) = Q(zeta_m) (x) Q(zeta_q) with zeta_m = z_n^q and
    zeta_q = z_n^m, so z_n^(t + q j) = zeta_m^(t u + j) zeta_q^b with
    u = q^-1 mod m and b = t m^-1 mod q: the value is sum_b A_b zeta_q^b,
    A_b strand t shifted by t u.  As 1 + zeta_q + ... + zeta_q^(q-1) = 0 is
    the only relation, the value lies in Q(zeta_m) exactly when
    A_1 = ... = A_(q-1) modulo Phi_m, and is then A_0 - A_1 (for q = 2 and m
    odd this is zeta_2m = -zeta_m^((m+1)/2)).  Everything stays integral.
    """
    m = n // q
    if m % q == 0:
        for t in range(1, q):
            if any(num[t::q]):
                return None
        return num[::q]
    u = pow(q, -1, m)

    def strand(t: int) -> list[int]:  # A_b in Z[X]/(X^m - 1)
        w = list(num[t::q])
        w += [0] * (m - len(w))
        s = m - t * u % m
        return w[s:] + w[:s]

    one = strand(m % q)  # b = 1
    for t in range(1, q):
        if t != m % q and any(_mod_phi(m, list(map(sub, strand(t), one)))):
            return None
    return _mod_phi(m, list(map(sub, strand(0), one)))


def _canonical(n: int, num: Sequence[int]) -> tuple[int, Sequence[int]]:
    """The smallest conductor realizing the value with numerators num at
    conductor n, and its numerators there (over the same denominator)."""
    # descend one prime at a time while the value lies in the smaller field;
    # the loop test already decides the descent from a prime n to 1
    while any(num[1:]):
        for q in prime_factors(n):
            x = _descend(n, q, num) if q < n else None
            if x is not None:
                n, num = n // q, x
                break
        else:
            return n, num
    return 1, num[:1]


def _ratio(c: int, den: int) -> str:
    """str(Fraction(c, den)) for den > 0, without building the Fraction."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _lowest(n: int, num: Sequence[int], den: int) -> "Cyclotomic":
    """The value sum(num[i] z_n^i) / den, with n already its conductor."""
    g = gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return Cyclotomic(n, tuple(num), den)


class _CyclotomicFields(NamedTuple):
    conductor: int
    num: tuple[int, ...]
    den: int = 1


class Cyclotomic(_CyclotomicFields):
    """An element sum(num[i] * z^i) / den of Q(zeta_N), N = ``conductor``, in
    canonical form: minimal conductor, den > 0, and lowest terms.

    Do not call the constructor with non-canonical data; use :func:`make_root`,
    :func:`from_rational` or :func:`from_terms`.  Equality and hashing are
    those of the tuple (conductor, num, den).
    """

    __slots__ = ()

    def __new__(cls, conductor: int, num: tuple[int, ...], den: int = 1):
        if conductor < 1 or len(num) != euler_phi(conductor) or den < 1:
            raise ValueError("coefficient vector does not match the conductor")
        return tuple.__new__(cls, (conductor, num, den))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions (a read-only view)."""
        return tuple([Fraction(c, self.den) for c in self.num])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _new(n: int, num: list[int], den: int) -> "Cyclotomic":
        cn, cnum = _canonical(n, num)
        return _lowest(cn, cnum, den)

    # -- predicates / extraction ------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational(self) -> Fraction:
        """Extract a rational value; raises NotRationalError otherwise."""
        if self.conductor != 1:
            raise NotRationalError(f"value has conductor {self.conductor}, not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(1, (x.numerator,), x.denominator)
        return NotImplemented  # type: ignore[return-value]

    def _embed(self, n: int) -> Sequence[int]:
        """Numerators of self at conductor n (self.conductor must divide n)."""
        if n == self.conductor:
            return self.num
        return _scatter(n, zip(range(0, n, n // self.conductor), self.num))

    def _scaled(self, p: int, q: int) -> "Cyclotomic":
        """self * p / q for integers p and q > 0."""
        if not p:
            return ZERO
        return _lowest(self.conductor, [c * p for c in self.num], self.den * q)

    def __add__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return cyclo_sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return cyclo_sum((self, other), (1, -1))

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, int):
            return self._scaled(other, 1)
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if other.conductor == 1:
            return self._scaled(other.num[0], other.den)
        if self.conductor == 1:
            return other._scaled(self.num[0], self.den)
        n = lcm(self.conductor, other.conductor)
        num = _mul_raw(n, self._embed(n), other._embed(n))
        return Cyclotomic._new(n, num, self.den * other.den)

    __rmul__ = __mul__

    # -- Galois ------------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta_N -> zeta_N^k; k must be a unit mod N."""
        n = self.conductor
        if n == 1:
            return self
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {n}")
        # an automorphism keeps the conductor and maps Z[zeta_N] onto itself,
        # so the numerators stay in lowest terms
        num = _scatter(n, zip(range(0, k * len(self.num), k), self.num))
        return Cyclotomic(n, tuple(num), self.den)

    def conjugate(self) -> "Cyclotomic":
        """The automorphism zeta -> zeta^(-1); fixes rationals; an involution."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- presentation ------------------------------------------------------

    def encode(self) -> dict:
        """Canonical text encoding {"n": N, "terms": [[k, "a/b"], ...]}."""
        den = self.den
        return {"n": self.conductor, "terms": [[i, _ratio(c, den)] for i, c in enumerate(self.num) if c]}

    def __str__(self) -> str:
        n, den = self.conductor, self.den
        if n == 1:
            return _ratio(self.num[0], den)
        monos = ["", f"*z{n}"] + [f"*z{n}^{i}" for i in range(2, len(self.num))]
        parts = [_ratio(c, den) + mono for c, mono in zip(self.num, monos) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {list(self.coeffs)})"


ZERO = Cyclotomic(1, (0,))
ONE = Cyclotomic(1, (1,))


def make_root(n: int, k: int) -> Cyclotomic:
    """zeta_n^k in canonical form; make_root(n, 0) == 1."""
    if n < 1:
        raise ValueError("conductor must be positive")
    g = gcd(n, k)
    n, k = n // g, k // g
    return Cyclotomic._new(n, _scatter(n, [(k, 1)]), 1)


@lru_cache(maxsize=64)
def roots_of_unity(n: int) -> tuple[Cyclotomic, ...]:
    """(zeta_n^0, ..., zeta_n^(n-1)): zeta_n^k is entry k mod n.

    Cached for the 64 most recently used n.  The sweep reads n <= 24 and one
    ``verify_suite`` run reads its tame order, so no workload evicts a table
    it still reads.
    """
    return tuple([make_root(n, k) for k in range(n)])


def from_rational(q) -> Cyclotomic:
    q = Fraction(q)
    return Cyclotomic(1, (q.numerator,), q.denominator)


def frobenius_average(a: Cyclotomic, p: int) -> Cyclotomic:
    """Average of a over the orbit of zeta -> zeta^p; requires gcd(p, N) = 1.

    Idempotent, fixes rationals, and equals the Gal(Q_p(mu_N)/Q_p)-average of
    the value for any modulus N the value's conductor divides.
    """
    n = a.conductor
    if n == 1:
        return a
    if p < 1 or gcd(p, n) != 1:
        raise ValueError(f"{p} is not coprime to the conductor {n}")
    orbit = unit_powers(p, n)
    return cyclo_sum([a.galois(k) for k in orbit], den=len(orbit))


def cyclo_sum(
    values: Iterable[Cyclotomic], weights: Iterable[int] | None = None, den: int = 1
) -> Cyclotomic:
    """sum_i weights[i] * values[i] / den for integer weights (all 1 by default)
    and den > 0, canonicalized once; a single nonzero term is only rescaled."""
    terms = [(v, w) for v, w in zip(values, repeat(1) if weights is None else weights) if w and v]
    if len(terms) == 1:
        v, w = terms[0]
        return v if w == den == 1 else v._scaled(w, den)
    if not terms:
        return ZERO
    n = lcm(*[v.conductor for v, _ in terms])
    lden = lcm(*[v.den for v, _ in terms])
    acc = [0] * euler_phi(n)
    for v, w in terms:
        acc = list(map(add, acc, map(mul, v._embed(n), repeat(w * (lden // v.den)))))
    return Cyclotomic._new(n, acc, lden * den)


def hermitian_sum(
    a: Sequence[Cyclotomic], b: Sequence[Cyclotomic], weights: Sequence[int], den: int = 1
) -> Cyclotomic:
    """sum_c weights[c] * a[c] * conj(b[c]) / den (den > 0), canonicalized once.

    The terms are accumulated in Z[X]/(X^N - 1), N the lcm of the conductors
    involved: numerator i of a conductor-m value is the power X^(i N/m),
    conjugation negates exponents and a product is a cyclic convolution.  Only
    the sum is reduced modulo Phi_N and put in canonical form.
    """
    terms = list(zip(a, b, weights))
    n = lcm(*[x.conductor for x, _, _ in terms], *[y.conductor for _, y, _ in terms])
    lden = lcm(*[x.den * y.den for x, y, _ in terms])
    acc = [0] * (2 * n)  # exponents e + k with 0 <= e, k < n; _mod_phi folds X^n = 1
    for x, y, w in terms:
        f = w * (lden // (x.den * y.den))
        sx, sy = n // x.conductor, n // y.conductor
        conj = [(-j * sy % n, c) for j, c in enumerate(y.num) if c]
        for i, c in enumerate(x.num):
            if c:
                c *= f
                e = i * sx
                for k, d in conj:
                    acc[e + k] += c * d
    return Cyclotomic._new(n, _mod_phi(n, acc), lden * den)


def from_terms(n: int, terms: Iterable[tuple[int, int | Fraction]]) -> Cyclotomic:
    """Sum of coeff * zeta_n^k terms for arbitrary exponents and int or Fraction
    coefficients, scattered once as integers over the lcm of their denominators."""
    if n < 1:
        raise ValueError("conductor must be positive")
    terms = list(terms)
    den = lcm(*[c.denominator for _, c in terms])
    num = _scatter(n, [(k, c.numerator * (den // c.denominator)) for k, c in terms])
    return Cyclotomic._new(n, num, den)


def parse_value(obj) -> Cyclotomic:
    """Parse the CLI text encoding; accepts bare rationals ("3/2", 3) too."""
    if isinstance(obj, (int, str)):
        return from_rational(Fraction(obj))
    if isinstance(obj, dict):
        n = int(obj["n"])
        if n < 1:
            raise ValueError("conductor must be positive")
        terms = [(int(k), Fraction(c)) for k, c in obj.get("terms", [])]
        return from_terms(n, terms)
    raise ValueError(f"cannot parse cyclotomic value from {obj!r}")
