"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Values are stored in the power basis 1, z, ..., z^(phi(N)-1) of
Q[X]/(Phi_N(X)) and always at the *smallest* conductor realizing them, so
equality is plain coordinate equality.  Conductors congruent to 2 mod 4 are
never used (Q(zeta_2m) = Q(zeta_m) for odd m); conductor-1 values are exactly
the rationals.

Everything is immutable and pure; the per-conductor caches are filled
idempotently, so concurrent use needs no synchronization.

No floating point is used anywhere.

The module is also the package's one home for elementary number theory:
:func:`is_prime`, :func:`prime_factors`, :func:`euler_phi`, :func:`divisors`,
:func:`multiplicative_order`, :func:`cyclotomic_polynomial`, and the generic
:func:`closure` of a set of generators under a multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Sequence

from ._linalg import field_kernel
from ._poly import pexact_div, pinvmod, ptrim

_F0 = Fraction(0)
_F1 = Fraction(1)


class NotRationalError(ArithmeticError):
    """Raised when a cyclotomic value is extracted as a rational but is not one."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=None)
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
    out, p, m = [], 2, n
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


# Sorenson and Webster (2015): Miller-Rabin with the first 13 prime bases is
# exact for every n below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin with the prime bases 2..41.

    Exact for n < psi_13 = 3317044064679887385961981; raises ValueError for
    larger n, where these bases are no longer proven sufficient.
    """
    if n >= _PSI_13:
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


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    x, r = a % n, 1
    while x != 1:
        x = (x * a) % n
        r += 1
    return r


def closure(gens: Iterable, mul: Callable, one) -> set:
    """Everything reachable from ``one`` by multiplying on the right by the
    generators, breadth first: the subgroup they generate in a finite group."""
    gens = list(gens)
    seen = {one}
    frontier = [one]
    while frontier:
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
    X^n - 1 by the cyclotomic polynomials of the proper divisors of n."""
    if n == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in divisors(n)[:-1]:
        num = pexact_div(num, cyclotomic_polynomial(d))
    return num


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """X^j mod Phi_n for 0 <= j < n, as sparse (index, coeff) integer rows."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple((i, t) for i, t in enumerate(cur) if t))
        top = cur[d - 1]
        nxt = [0] + cur[:-1]
        if top:
            for i in range(d):
                nxt[i] -= top * phi[i]
        cur = nxt
    return tuple(rows)


def _reduce_raw(n: int, raw: dict[int, Fraction]) -> list[Fraction]:
    """Reduce a sparse exponent->coefficient map into power-basis coordinates."""
    table = _power_table(n)
    out = [_F0] * euler_phi(n)
    for e, c in raw.items():
        if not c:
            continue
        for i, t in table[e % n]:
            out[i] += c * t
    return out


@lru_cache(maxsize=None)
def _subfield_basis(n: int, m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Power-basis coordinates (at conductor n) of zeta_m^j, j < phi(m)."""
    step = n // m
    out = []
    for j in range(euler_phi(m)):
        out.append(tuple(_reduce_raw(n, {(step * j) % n: _F1})))
    return tuple(out)


def _galois_raw(n: int, coeffs: Sequence[Fraction], k: int) -> list[Fraction]:
    table = _power_table(n)
    out = [_F0] * euler_phi(n)
    for i, c in enumerate(coeffs):
        if not c:
            continue
        for j, t in table[(i * k) % n]:
            out[j] += c * t
    return out


@lru_cache(maxsize=None)
def _kernel_generators(n: int, m: int) -> tuple[int, ...]:
    """Generators of the kernel of (Z/n)* -> (Z/m)* (units congruent to 1 mod m)."""
    gens: list[int] = []
    closed = {1}
    for k in range(1 + m, n, m):
        if gcd(k, n) != 1 or k in closed:
            continue
        gens.append(k)
        closed = closure(gens, lambda x, g: x * g % n, 1)
    return tuple(gens)


def _canonical(n: int, coeffs: Sequence[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    coeffs = list(coeffs)
    # strip conductors congruent to 2 mod 4: zeta_2m = -zeta_m^((m+1)/2), m odd
    while n % 4 == 2:
        m = n // 2
        h = (m + 1) // 2
        raw: dict[int, Fraction] = {}
        for i, c in enumerate(coeffs):
            if not c:
                continue
            e = (i * h) % m
            s = -c if i % 2 else c
            raw[e] = raw.get(e, _F0) + s
        n, coeffs = m, _reduce_raw(m, raw)
    if n == 1:
        return 1, (coeffs[0] if coeffs else _F0,)
    if not any(coeffs[1:]):
        return 1, (coeffs[0],)
    # descend one prime at a time while the value lies in the smaller field
    changed = True
    while changed and n > 1:
        changed = False
        for q in prime_factors(n):
            m = n // q
            while m % 4 == 2:
                m //= 2
            if m == n:
                continue
            if not _fixed_by_subfield_group(n, coeffs, m):
                continue
            # coeffs = A x with A's columns the (independent) subfield basis:
            # ker [A | coeffs] is empty or spanned by (-x, 1)
            basis = _subfield_basis(n, m)
            kernel = field_kernel(
                [[b[i] for b in basis] + [c] for i, c in enumerate(coeffs)], _F1
            )
            if not kernel:
                continue
            n, coeffs = m, [-x for x in kernel[0][:-1]]
            if n == 1:
                return 1, (coeffs[0] if coeffs else _F0,)
            if not any(coeffs[1:]):
                return 1, (coeffs[0],)
            changed = True
            break
    return n, tuple(coeffs)


def _fixed_by_subfield_group(n: int, coeffs: Sequence[Fraction], m: int) -> bool:
    """True iff the value is fixed by Gal(Q(zeta_n)/Q(zeta_m)); it suffices to
    test a generating set of that subgroup."""
    coeffs = list(coeffs)
    for k in _kernel_generators(n, m):
        if _galois_raw(n, coeffs, k) != coeffs:
            return False
    return True


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_N) in canonical form (minimal conductor).

    Do not call the constructor with non-canonical data; use :func:`make_root`,
    :func:`from_rational` or :func:`from_terms`.
    """

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.conductor < 1 or len(self.coeffs) != euler_phi(self.conductor):
            raise ValueError("coefficient vector does not match the conductor")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _new(n: int, coeffs: Sequence[Fraction]) -> "Cyclotomic":
        cn, cc = _canonical(n, coeffs)
        return Cyclotomic(cn, cc)

    # -- predicates / extraction ------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational(self) -> Fraction:
        if self.conductor != 1:
            raise NotRationalError(f"value has conductor {self.conductor}, not rational")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic(1, (Fraction(x),))
        return NotImplemented  # type: ignore[return-value]

    def _embed(self, n: int) -> list[Fraction]:
        """Coordinates of self at conductor n (self.conductor must divide n)."""
        if n == self.conductor:
            return list(self.coeffs)
        step = n // self.conductor
        raw = {i * step: c for i, c in enumerate(self.coeffs) if c}
        return _reduce_raw(n, raw)

    def __add__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        a, b = self._embed(n), other._embed(n)
        return Cyclotomic._new(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            if not s:
                return ZERO
            return Cyclotomic(self.conductor, tuple(c * s for c in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if other.conductor == 1:
            return self * other.coeffs[0]
        if self.conductor == 1:
            return other * self.coeffs[0]
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        a, b = self._embed(n), other._embed(n)
        conv: dict[int, Fraction] = {}
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    conv[i + j] = conv.get(i + j, _F0) + ca * cb
        return Cyclotomic._new(n, _reduce_raw(n, conv))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.conductor == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],))
        phi = tuple(Fraction(c) for c in cyclotomic_polynomial(self.conductor))
        inv = pinvmod(ptrim(self.coeffs), phi)
        coeffs = list(inv) + [_F0] * (len(self.coeffs) - len(inv))
        return Cyclotomic._new(self.conductor, coeffs)

    def __truediv__(self, other) -> "Cyclotomic":
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Cyclotomic":
        return Cyclotomic._coerce(other) * self.inverse()

    def __pow__(self, e: int) -> "Cyclotomic":
        if e < 0:
            return self.inverse() ** (-e)
        result, base = ONE, self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- Galois ------------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta_N -> zeta_N^k; k must be a unit mod N."""
        n = self.conductor
        if n == 1:
            return self
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {n}")
        return Cyclotomic(n, tuple(_galois_raw(n, self.coeffs, k % n)))

    def conjugate(self) -> "Cyclotomic":
        """The automorphism zeta -> zeta^(-1); fixes rationals; an involution."""
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- presentation ------------------------------------------------------

    def encode(self) -> dict:
        """Canonical text encoding {"n": N, "terms": [[k, "a/b"], ...]}."""
        terms = [[i, str(c)] for i, c in enumerate(self.coeffs) if c]
        return {"n": self.conductor, "terms": terms}

    def __str__(self) -> str:
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "1" if i == 0 else f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
            parts.append(f"{c}*{mono}" if i else str(c))
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {list(self.coeffs)})"


ZERO = Cyclotomic(1, (_F0,))
ONE = Cyclotomic(1, (_F1,))


def make_root(n: int, k: int) -> Cyclotomic:
    """zeta_n^k in canonical form; make_root(n, 0) == 1."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic._new(n, _reduce_raw(n, {k % n: _F1}))


def from_rational(q) -> Cyclotomic:
    return Cyclotomic(1, (Fraction(q),))


def to_rational(a: Cyclotomic) -> Fraction:
    """Extract a rational value; raises NotRationalError otherwise."""
    return a.rational()


def galois_apply(a: Cyclotomic, k: int) -> Cyclotomic:
    return a.galois(k)


def conjugate(a: Cyclotomic) -> Cyclotomic:
    return a.conjugate()


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
    r = multiplicative_order(p, n)
    total, k = a, 1
    for _ in range(r - 1):
        k = (k * p) % n
        total = total + a.galois(k)
    return total * Fraction(1, r)


def cyclo_sum(values: Iterable[Cyclotomic]) -> Cyclotomic:
    """Sum of cyclotomic values with a single final canonicalization."""
    values = list(values)
    if not values:
        return ZERO
    n = 1
    for v in values:
        n = n * v.conductor // gcd(n, v.conductor)
    acc = [_F0] * euler_phi(n)
    for v in values:
        for i, c in enumerate(v._embed(n)):
            acc[i] += c
    return Cyclotomic._new(n, acc)


def from_terms(n: int, terms: Iterable[tuple[int, Fraction]]) -> Cyclotomic:
    """Sum of coeff * zeta_n^k terms; accepts arbitrary exponents."""
    raw: dict[int, Fraction] = {}
    for k, c in terms:
        c = Fraction(c)
        if c:
            raw[k % n] = raw.get(k % n, _F0) + c
    return Cyclotomic._new(n, _reduce_raw(n, raw)) if n > 1 else Cyclotomic(1, (raw.get(0, _F0),))


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
