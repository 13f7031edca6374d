"""Finite groups given by multiplication tables, and class functions on them.

Groups are small, so everything is table-driven: elements are indices
0..m-1 with the identity at index 0, conjugacy classes are computed on
construction, and homomorphisms are plain index maps.  Checks run at the
input boundary: :func:`build_group` refuses a spec whose group has more than
MAX_GROUP_ORDER = 200 elements before any table is built,
:func:`group_from_table` verifies the axioms of a table given from outside
and :func:`hom` a map given from outside, pairwise.  Derived
tables (cyclic, abelian and permutation groups, subgroups, quotients) are
groups by construction and go through ``_group``, which only derives inverses
and classes; inclusions, projections and composites are not re-checked.

Class functions carry one exact cyclotomic value per conjugacy class.  The
pairing is hermitian, (f1|f2) = (1/|G|) sum f1(g) * conj(f2(g)); for
characters (and for every central function produced by this package) this
agrees with (1/|G|) sum f1(g) f2(g^-1).  It is one accumulation in
Z[X]/(X^N - 1), N the lcm of the value conductors, followed by one reduction
to canonical form (:func:`refartin.cyclotomic.hermitian_sum`).

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Container, Iterable, NamedTuple, Sequence

from .cyclotomic import (
    Cyclotomic,
    ZERO,
    closure,
    cyclo_sum,
    from_rational,
    hermitian_sum,
    roots_of_unity,
)


class GroupValidationError(ValueError):
    """Raised when group-theoretic input violates a structural invariant."""


class GroupOrderError(Exception):
    """A group spec past MAX_GROUP_ORDER, or a lattice past MAX_SUBGROUPS
    subgroups: refused for its size, so not a ValueError."""


# the largest group a spec may name: m x m tables, and lattices enumerated whole
MAX_GROUP_ORDER = 200
# the largest lattice enumerated: (Z/2)^6 has 2,825 subgroups, and the count
# grows like 2^(k^2/4) in (Z/2)^k, so (Z/2)^7 of order 128 would have 29,212
MAX_SUBGROUPS = 3000


# ---------------------------------------------------------------------------
# groups


def compared_fields(k: int):
    """``__eq__``, ``__ne__`` and ``__hash__`` for a NamedTuple whose first
    ``k`` fields are its value, the rest derived from them: equal only to
    the same class, and hashed as the tuple of those fields."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:k] == other[:k]

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:k] != other[:k]

    def __hash__(self) -> int:
        return hash(self[:k])

    return __eq__, __ne__, __hash__


class FiniteGroup(NamedTuple):
    """A finite group: m x m multiplication table with identity at index 0.
    Equal and hashed by ``table`` alone; the other fields derive from it."""

    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    __eq__, __ne__, __hash__ = compared_fields(1)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def powers(self, g: int, stop: Container[int] = (0,)) -> list[int]:
        """The element indices [0, g, g^2, ..., g^(r-1)] (index 0 is the
        identity), r the least r >= 1 with g^r in ``stop``, which must hold
        the identity; by default the cyclic subgroup <g>, in order."""
        out, x = [0], g
        while x not in stop:
            out.append(x)
            x = self.table[x][g]
        return out

    def element_order(self, a: int) -> int:
        return len(self.powers(a))

    def exponent(self) -> int:
        return lcm(*(self.element_order(g) for g in range(self.order)))

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in range(self.order))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def group_from_table(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Build a group from a table given from outside, checking the axioms.

    The identity must sit at index 0.  Associativity is verified with Light's
    test over a generating set.
    """
    m = len(table)
    tab = tuple([tuple(row) for row in table])
    if m == 0 or any(len(row) != m for row in tab):
        raise GroupValidationError("multiplication table is not square")
    if any(not (0 <= x < m) for row in tab for x in row):
        raise GroupValidationError("table entry out of range")
    if any(tab[0][j] != j or tab[j][0] != j for j in range(m)):
        raise GroupValidationError("index 0 is not a two-sided identity")
    for a, row in enumerate(tab):
        if not any(x == 0 and tab[b][a] == 0 for b, x in enumerate(row)):
            raise GroupValidationError(f"element {a} has no two-sided inverse")
    gens, seen = [], {0}
    for g in range(m):  # Light's test, on each element of a generating set
        if g not in seen:
            if any(tab[row[g]] != tuple(row[y] for y in tab[g]) for row in tab):
                raise GroupValidationError("multiplication table is not associative")
            gens.append(g)
            seen = closure(gens, lambda a, b: tab[a][b], 0)
    return _group(tab)


def _group(tab: tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """The group on a table that is a group by construction, identity at
    index 0: no axiom is checked, inverses and conjugacy classes are derived.
    Classes are numbered by their least element."""
    inverse = tuple([row.index(0) for row in tab])
    classes: list[tuple[int, ...]] = []
    class_of = [-1] * len(tab)
    for g, row in enumerate(tab):
        if class_of[g] < 0:
            cls = tuple(sorted({tab[inverse[t]][x] for t, x in enumerate(row)}))
            for x in cls:
                class_of[x] = len(classes)
            classes.append(cls)
    return FiniteGroup(tab, inverse, tuple(classes), tuple(class_of))


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupValidationError("cyclic order must be positive")
    return _group(tuple([tuple([(i + j) % n for j in range(n)]) for i in range(n)]))


@lru_cache(maxsize=None)
def abelian_group(invariants: tuple[int, ...]) -> FiniteGroup:
    if not invariants or any(k < 1 for k in invariants):
        raise GroupValidationError("abelian invariants must be positive")
    elements = list(itertools.product(*[range(k) for k in invariants]))
    index = {e: i for i, e in enumerate(elements)}
    return _group(tuple([
        tuple([index[tuple((x + y) % k for x, y, k in zip(a, b, invariants))] for b in elements])
        for a in elements
    ]))


def perm_group(generator_cycles: Sequence[Sequence[Sequence[int]]]) -> FiniteGroup:
    """Group generated by permutations given in cycle notation (1-based
    points); the cycles of one generator must be disjoint.  Points that
    occur are numbered by rank, which keeps the lexicographic element order."""
    points = sorted({q for cycles in generator_cycles for cyc in cycles for q in cyc})
    if points and points[0] < 1:
        raise GroupValidationError("cycle points are 1-based positive integers")
    rank = {q: i for i, q in enumerate(points)}
    perms = []
    for cycles in generator_cycles:
        p = list(range(len(points)))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise GroupValidationError(f"cycle {list(cyc)} repeats a point")
            for a, b in zip(cyc, list(cyc[1:]) + list(cyc[:1])):
                p[rank[a]] = rank[b]
        if len(set(p)) != len(points):
            raise GroupValidationError(f"cycles {cycles} of one generator are not disjoint")
        perms.append(tuple(p))
    one = tuple(range(len(points)))
    elements = closure(perms, lambda a, b: tuple(a[i] for i in b), one, MAX_GROUP_ORDER)
    if len(elements) > MAX_GROUP_ORDER:
        raise GroupOrderError(f"permutation group order is past the limit {MAX_GROUP_ORDER}")
    ordered = sorted(elements)  # the identity is the lexicographic minimum
    index = {p: i for i, p in enumerate(ordered)}
    return _group(tuple([
        tuple([index[tuple([a[i] for i in b])] for b in ordered]) for a in ordered
    ]))


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a spec dict: one of {"cyclic": n},
    {"abelian": [n1, ...]}, {"perm": [[...cycles...], ...]}, {"table": [[...]]}.
    Past MAX_GROUP_ORDER it raises :class:`GroupOrderError` before any table is built.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise GroupValidationError(f"bad group spec {spec!r}")
    ((kind, arg),) = spec.items()
    orders = {"cyclic": int, "abelian": lambda arg: prod(map(int, arg)), "table": len}
    if kind in orders and (order := orders[kind](arg)) > MAX_GROUP_ORDER:
        raise GroupOrderError(f"{kind} group order {order} is past the limit {MAX_GROUP_ORDER}")
    if kind == "cyclic":
        return cyclic_group(int(arg))
    if kind == "abelian":
        return abelian_group(tuple(int(k) for k in arg))
    if kind == "perm":
        return perm_group(arg)
    if kind == "table":
        return group_from_table(arg)
    raise GroupValidationError(f"unknown group spec kind {kind!r}")


# ---------------------------------------------------------------------------
# subgroups, quotients, homomorphisms


class GroupHom(NamedTuple):
    """A homomorphism as an element-index map.  A plain record: maps given
    from outside are checked by :func:`hom`."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]


def hom(source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]) -> GroupHom:
    """A homomorphism given from outside, checked pairwise."""
    f = tuple(mapping)
    if len(f) != source.order or any(not (0 <= x < target.order) for x in f):
        raise GroupValidationError("homomorphism map has wrong shape")
    if f[0] != 0:
        raise GroupValidationError("homomorphism does not preserve the identity")
    for a, row in enumerate(source.table):
        image = target.table[f[a]]
        if any(f[ab] != image[f[b]] for b, ab in enumerate(row)):
            raise GroupValidationError("map is not a homomorphism")
    return GroupHom(source, target, f)


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    if inner.target != outer.source:
        raise GroupValidationError("homomorphisms do not compose")
    return GroupHom(inner.source, outer.target, tuple(outer.mapping[x] for x in inner.mapping))


class _SubgroupFields(NamedTuple):
    parent: FiniteGroup
    members: tuple[int, ...]
    group: FiniteGroup
    inclusion: GroupHom


class Subgroup(_SubgroupFields):
    """A subgroup of a parent group, with its own group structure attached.

    ``group`` is the subgroup as a standalone FiniteGroup (members re-indexed
    in ascending order) and ``inclusion`` the corresponding injection; both
    are built here, and equality and hashing read (parent, members) only.
    The members are checked to lie in the parent and to be closed; a closed
    subset of a group is a group, so its table is not checked again.
    """

    __slots__ = ()

    def __new__(cls, parent: FiniteGroup, members: Iterable[int]):
        g = parent
        mem = tuple(sorted(set(members)))
        for x in mem[:1] + mem[-1:]:
            if not 0 <= x < g.order:
                raise GroupValidationError(
                    f"subgroup member {x} is not an element of a group of order {g.order}"
                )
        if not mem or mem[0] != 0:
            raise GroupValidationError("subgroup must contain the identity (index 0)")
        index = {x: i for i, x in enumerate(mem)}
        if any(g.inverse[a] not in index for a in mem):
            raise GroupValidationError("subgroup not closed under inverse")
        try:
            table = tuple([tuple([index[g.table[a][b]] for b in mem]) for a in mem])
        except KeyError:
            raise GroupValidationError("subgroup not closed under product") from None
        grp = _group(table)
        return tuple.__new__(cls, (g, mem, grp, GroupHom(grp, g, mem)))

    def __getnewargs__(self):
        return self.parent, self.members

    __eq__, __ne__, __hash__ = compared_fields(2)

    @property
    def order(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        """Whether the subgroup is a union of conjugacy classes of the parent."""
        g, memset = self.parent, set(self.members)
        return all(memset.issuperset(g.classes[g.class_of[h]]) for h in self.members)

    def __repr__(self) -> str:
        return f"Subgroup({list(self.members)})"


def subgroup(parent: FiniteGroup, members: Iterable[int]) -> Subgroup:
    return Subgroup(parent, tuple(members))


def quotient(parent: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; returns the group and the projection.

    Cosets are labelled in increasing order of their least element, so the
    identity coset lands at index 0.
    """
    if normal.parent != parent:
        raise GroupValidationError("subgroup belongs to a different group")
    if not normal.is_normal():
        raise GroupValidationError("subgroup is not normal")
    t = parent.table
    coset_of = [-1] * parent.order
    reps: list[int] = []  # the least element of each coset, ascending
    for g in range(parent.order):
        if coset_of[g] < 0:
            for h in normal.members:
                coset_of[t[g][h]] = len(reps)
            reps.append(g)
    q = _group(tuple([tuple([coset_of[t[a][b]] for b in reps]) for a in reps]))
    return q, GroupHom(parent, q, tuple(coset_of))


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups, ordered by (order, member tuple).

    The lattice is built by cyclic extension (Neubueser, Numer. Math. 2,
    1960): every subgroup is a join of cyclic subgroups, so joining each
    subgroup found once with each cyclic subgroup not inside it finds them
    all.  A join is closed from the subgroup's generator tuple.  Raises
    :class:`GroupOrderError` as soon as more than MAX_SUBGROUPS are found.
    """
    cyclic: dict[frozenset[int], int] = {}  # member set -> a generator
    for h in range(g.order):
        cyclic.setdefault(frozenset(g.powers(h)), h)
    found = {c: (h,) for c, h in cyclic.items()}  # member set -> generators
    todo = deque(found)  # breadth first: the small joins find new subgroups fastest
    while todo:
        a = todo.popleft()
        for h in cyclic.values():
            if h not in a:
                gens = found[a] + (h,)
                b = frozenset(closure(gens, g.mul, 0))
                if b not in found:
                    found[b] = gens
                    todo.append(b)
                    if len(found) > MAX_SUBGROUPS:
                        raise GroupOrderError(f"the subgroup lattice of a group of order "
                                              f"{g.order} is past the limit {MAX_SUBGROUPS}")
    return [subgroup(g, mem) for mem in sorted(sorted(map(sorted, found)), key=len)]


# ---------------------------------------------------------------------------
# class functions


class _ClassFunctionFields(NamedTuple):
    group: FiniteGroup
    values: tuple[Cyclotomic, ...]


class ClassFunction(_ClassFunctionFields):
    """A central function: one cyclotomic value per conjugacy class."""

    __slots__ = ()

    def __new__(cls, group: FiniteGroup, values: tuple[Cyclotomic, ...]):
        if len(values) != len(group.classes):
            raise GroupValidationError("one value per conjugacy class required")
        return tuple.__new__(cls, (group, values))

    def value(self, g: int) -> Cyclotomic:
        return self.values[self.group.class_of[g]]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        _same_group(self, other)
        return ClassFunction(self.group, tuple([a + b for a, b in zip(self.values, other.values)]))

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        _same_group(self, other)
        return ClassFunction(self.group, tuple([a - b for a, b in zip(self.values, other.values)]))

    def __neg__(self) -> "ClassFunction":
        return ClassFunction(self.group, tuple([-a for a in self.values]))

    def scale(self, s) -> "ClassFunction":
        if isinstance(s, (int, Fraction)):
            s = from_rational(s)
        return ClassFunction(self.group, tuple([a * s for a in self.values]))

    def __mul__(self, other) -> "ClassFunction":
        if isinstance(other, ClassFunction):
            _same_group(self, other)
            return ClassFunction(
                self.group, tuple([a * b for a, b in zip(self.values, other.values)])
            )
        return self.scale(other)

    __rmul__ = __mul__

    def conjugate(self) -> "ClassFunction":
        """Valuewise cyclotomic conjugation zeta -> zeta^(-1)."""
        return ClassFunction(self.group, tuple([v.conjugate() for v in self.values]))


def _same_group(a: ClassFunction, b: ClassFunction) -> None:
    if a.group != b.group:
        raise GroupValidationError("class functions live on different groups")


def pair(f1: ClassFunction, f2: ClassFunction) -> Cyclotomic:
    """(f1|f2) = (1/|G|) sum_g f1(g) conj(f2(g)), computed classwise."""
    _same_group(f1, f2)
    g = f1.group
    sizes = [len(cls) for cls in g.classes]
    return hermitian_sum(f1.values, f2.values, sizes) * Fraction(1, g.order)


def standard_characters(g: FiniteGroup) -> tuple[ClassFunction, ClassFunction, ClassFunction]:
    """(regular, trivial, augmentation) characters of g."""
    one = from_rational(1)
    reg = ClassFunction(
        g, tuple([from_rational(g.order) if cls[0] == 0 else ZERO for cls in g.classes])
    )
    triv = ClassFunction(g, (one,) * len(g.classes))
    return reg, triv, reg - triv


def pullback(alpha: GroupHom, chi: ClassFunction) -> ClassFunction:
    """chi o alpha, a central function on the source."""
    if chi.group != alpha.target:
        raise GroupValidationError("class function not on the hom target")
    vals = [chi.value(alpha.mapping[cls[0]]) for cls in alpha.source.classes]
    return ClassFunction(alpha.source, tuple(vals))


def pushforward(alpha: GroupHom, chi: ClassFunction) -> ClassFunction:
    """The adjoint of pullback: (chi'|alpha_* chi) = (alpha^* chi'|chi).

    One formula covers injective (induction), surjective (fiber averaging)
    and general homomorphisms:
        (alpha_* chi)(c') = (|G'| / (|G| |c'|)) * sum_{g : alpha(g) in c'} chi(g).
    """
    if chi.group != alpha.source:
        raise GroupValidationError("class function not on the hom source")
    src, tgt = alpha.source, alpha.target
    sums: list[list[Cyclotomic]] = [[] for _ in tgt.classes]
    for cls, v in zip(src.classes, chi.values):  # a hom maps classes into classes
        sums[tgt.class_of[alpha.mapping[cls[0]]]] += [v] * len(cls)
    m, n = tgt.order, src.order
    vals = [cyclo_sum(s) * Fraction(m, n * len(c)) for s, c in zip(sums, tgt.classes)]
    return ClassFunction(tgt, tuple(vals))


def abelian_irreducibles(g: FiniteGroup) -> list[ClassFunction]:
    """The |G| linear characters of an abelian group, values in mu_exponent(G).

    Built by extending characters along a chain of cyclic steps: if x has
    order s modulo the current subgroup H, each character chi of H extends in
    exactly s ways, by the solutions e of s*e = exponent(chi(x^s)) in
    Z/exponent(G).
    """
    if not g.is_abelian():
        raise GroupValidationError("irreducible enumeration implemented for abelian groups only")
    n_exp = g.exponent()
    in_sub = {0}
    chars: list[dict[int, int]] = [{0: 0}]
    while len(in_sub) < g.order:
        x = next(e for e in range(g.order) if e not in in_sub)
        pows = g.powers(x, in_sub)
        s = len(pows)  # least s >= 1 with x^s in H; s divides exponent(G)
        y = g.table[pows[-1]][x]  # x^s
        assert n_exp % s == 0
        new_chars = []
        for chi in chars:
            c = chi[y]
            assert c % s == 0, "character extension must be solvable"
            for j in range(s):
                e = (c // s + j * (n_exp // s)) % n_exp
                full = dict(chi)
                for t in range(1, s):
                    te = (t * e) % n_exp
                    for h, ce in chi.items():
                        full[g.table[h][pows[t]]] = (ce + te) % n_exp
                new_chars.append(full)
        chars = new_chars
        in_sub = {g.table[h][xt_] for h in in_sub for xt_ in pows}
    chars.sort(key=lambda chi: tuple(chi[e] for e in range(g.order)))
    roots = roots_of_unity(n_exp)
    return [ClassFunction(g, tuple([roots[chi[cls[0]]] for cls in g.classes])) for chi in chars]
