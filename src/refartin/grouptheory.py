"""Finite groups given by multiplication tables, and class functions on them.

Groups are small (order <= ~200), so everything is table-driven: elements are
indices 0..m-1 with the identity at index 0, conjugacy classes are computed on
construction, and homomorphisms are plain index maps validated pairwise.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence

from .cyclotomic import Cyclotomic, ZERO, closure, cyclo_sum, from_rational, hermitian_sum, make_root


class GroupValidationError(ValueError):
    """Raised when group-theoretic input violates a structural invariant."""


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: m x m multiplication table with identity at index 0."""

    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...] = field(compare=False)
    classes: tuple[tuple[int, ...], ...] = field(compare=False)
    class_of: tuple[int, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, a: int) -> int:
        x, r = a, 1
        while x != 0:
            x = self.table[x][a]
            r += 1
        return r

    def exponent(self) -> int:
        return lcm(*(self.element_order(g) for g in range(self.order)))

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in range(self.order))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _generating_set(table: Sequence[Sequence[int]]) -> list[int]:
    gens: list[int] = []
    seen = {0}
    for x in range(len(table)):
        if x not in seen:
            gens.append(x)
            seen = closure(gens, lambda a, b: table[a][b], 0)
    return gens


def group_from_table(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Build a group from a table, verifying the group axioms.

    The identity must sit at index 0.  Associativity is verified with Light's
    test over a generating set.
    """
    m = len(table)
    tab = tuple(tuple(row) for row in table)
    if m == 0 or any(len(row) != m for row in tab):
        raise GroupValidationError("multiplication table is not square")
    if any(not (0 <= x < m) for row in tab for x in row):
        raise GroupValidationError("table entry out of range")
    if any(tab[0][j] != j or tab[j][0] != j for j in range(m)):
        raise GroupValidationError("index 0 is not a two-sided identity")
    inverse = [-1] * m
    for a in range(m):
        for b in range(m):
            if tab[a][b] == 0 and tab[b][a] == 0:
                inverse[a] = b
                break
        if inverse[a] < 0:
            raise GroupValidationError(f"element {a} has no two-sided inverse")
    for g in _generating_set(tab):
        for x in range(m):
            xg = tab[x][g]
            rowg = tab[g]
            for y in range(m):
                if tab[xg][y] != tab[x][rowg[y]]:
                    raise GroupValidationError("multiplication table is not associative")
    classes = _conjugacy_classes(tab, inverse)
    class_of = [0] * m
    for ci, cls in enumerate(classes):
        for g in cls:
            class_of[g] = ci
    return FiniteGroup(tab, tuple(inverse), classes, tuple(class_of))


def _conjugacy_classes(
    table: Sequence[Sequence[int]], inverse: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    m = len(table)
    seen = [False] * m
    classes = []
    for g in range(m):
        if seen[g]:
            continue
        cls = {table[inverse[t]][table[g][t]] for t in range(m)}
        for x in cls:
            seen[x] = True
        classes.append(tuple(sorted(cls)))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupValidationError("cyclic order must be positive")
    return group_from_table([[(i + j) % n for j in range(n)] for i in range(n)])


@lru_cache(maxsize=None)
def abelian_group(invariants: tuple[int, ...]) -> FiniteGroup:
    if not invariants or any(k < 1 for k in invariants):
        raise GroupValidationError("abelian invariants must be positive")
    elements = list(itertools.product(*[range(k) for k in invariants]))
    index = {e: i for i, e in enumerate(elements)}
    table = [
        [index[tuple((x + y) % k for x, y, k in zip(a, b, invariants))] for b in elements]
        for a in elements
    ]
    return group_from_table(table)


def perm_group(generator_cycles: Sequence[Sequence[Sequence[int]]]) -> FiniteGroup:
    """Group generated by permutations given in cycle notation (1-based points)."""
    points = 1
    for cycles in generator_cycles:
        for cyc in cycles:
            if any(p < 1 for p in cyc):
                raise GroupValidationError("cycle points are 1-based positive integers")
            if cyc:
                points = max(points, max(cyc))
    perms = []
    for cycles in generator_cycles:
        p = list(range(points))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise GroupValidationError(f"cycle {list(cyc)} repeats a point")
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                p[a - 1] = b - 1
        perms.append(tuple(p))
    elements = closure(perms, lambda a, b: tuple(a[i] for i in b), tuple(range(points)))
    ordered = sorted(elements)  # the identity is the lexicographic minimum
    index = {p: i for i, p in enumerate(ordered)}
    table = [
        [index[tuple(a[b[i]] for i in range(points))] for b in ordered] for a in ordered
    ]
    return group_from_table(table)


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from a spec dict: one of {"cyclic": n},
    {"abelian": [n1, ...]}, {"perm": [[...cycles...], ...]}, {"table": [[...]]}.
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise GroupValidationError(f"bad group spec {spec!r}")
    ((kind, arg),) = spec.items()
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


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism as an element-index map, validated on construction."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        s, t, f = self.source, self.target, self.mapping
        if len(f) != s.order or any(not (0 <= x < t.order) for x in f):
            raise GroupValidationError("homomorphism map has wrong shape")
        if f[0] != 0:
            raise GroupValidationError("homomorphism does not preserve the identity")
        for a in range(s.order):
            fa = f[a]
            for b in range(s.order):
                if f[s.table[a][b]] != t.table[fa][f[b]]:
                    raise GroupValidationError("map is not a homomorphism")

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.order


def hom(source: FiniteGroup, target: FiniteGroup, mapping: Sequence[int]) -> GroupHom:
    return GroupHom(source, target, tuple(mapping))


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    if inner.target != outer.source:
        raise GroupValidationError("homomorphisms do not compose")
    return GroupHom(inner.source, outer.target, tuple(outer.mapping[x] for x in inner.mapping))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a parent group, with its own group structure attached.

    ``group`` is the subgroup as a standalone FiniteGroup (members re-indexed
    in ascending order) and ``inclusion`` the corresponding injection.
    """

    parent: FiniteGroup
    members: tuple[int, ...]
    group: FiniteGroup = field(init=False, compare=False)
    inclusion: GroupHom = field(init=False, compare=False)

    def __post_init__(self):
        mem = tuple(sorted(set(self.members)))
        if not mem or mem[0] != 0:
            raise GroupValidationError("subgroup must contain the identity (index 0)")
        if mem[-1] >= self.parent.order:
            raise GroupValidationError(
                f"subgroup member {mem[-1]} is not an element of a group of order "
                f"{self.parent.order}"
            )
        memset = set(mem)
        for a in mem:
            if self.parent.inverse[a] not in memset:
                raise GroupValidationError("subgroup not closed under inverse")
            for b in mem:
                if self.parent.table[a][b] not in memset:
                    raise GroupValidationError("subgroup not closed under product")
        object.__setattr__(self, "members", mem)
        index = {g: i for i, g in enumerate(mem)}
        table = [[index[self.parent.table[a][b]] for b in mem] for a in mem]
        grp = group_from_table(table)
        object.__setattr__(self, "group", grp)
        object.__setattr__(self, "inclusion", GroupHom(grp, self.parent, mem))

    @property
    def order(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        memset = set(self.members)
        t, inv = self.parent.table, self.parent.inverse
        return all(
            t[inv[g]][t[h][g]] in memset
            for g in range(self.parent.order)
            for h in self.members
        )

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
    coset_of: dict[int, int] = {}
    cosets: list[tuple[int, ...]] = []
    for g in range(parent.order):
        if g in coset_of:
            continue
        cs = tuple(sorted(t[g][h] for h in normal.members))
        for x in cs:
            coset_of[x] = len(cosets)
        cosets.append(cs)
    order = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    relabel = {old: new for new, old in enumerate(order)}
    reps = [cosets[old][0] for old in order]
    table = [[relabel[coset_of[t[a][b]]] for b in reps] for a in reps]
    q = group_from_table(table)
    proj = GroupHom(parent, q, tuple(relabel[coset_of[g]] for g in range(parent.order)))
    return q, proj


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups, ordered by (order, member tuple)."""
    found = {tuple(sorted(closure((h,), g.mul, 0))) for h in range(g.order)}
    grew = True
    while grew:
        grew = False
        for a in list(found):
            for x in range(g.order):
                if x in a:
                    continue
                b = tuple(sorted(closure(a + (x,), g.mul, 0)))
                if b not in found:
                    found.add(b)
                    grew = True
    return [subgroup(g, mem) for mem in sorted(found, key=lambda m: (len(m), m))]


def all_normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    return [s for s in all_subgroups(g) if s.is_normal()]


# ---------------------------------------------------------------------------
# class functions


@dataclass(frozen=True)
class ClassFunction:
    """A central function: one cyclotomic value per conjugacy class."""

    group: FiniteGroup
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if len(self.values) != len(self.group.classes):
            raise GroupValidationError("one value per conjugacy class required")

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

    def is_zero(self) -> bool:
        return not any(self.values)


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
    for g in range(src.order):
        sums[tgt.class_of[alpha.mapping[g]]].append(chi.value(g))
    vals = []
    for ci, cls in enumerate(tgt.classes):
        vals.append(cyclo_sum(sums[ci]) * Fraction(tgt.order, src.order * len(cls)))
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
    sub = [0]
    in_sub = {0}
    chars: list[dict[int, int]] = [{0: 0}]
    while len(sub) < g.order:
        x = next(e for e in range(g.order) if e not in in_sub)
        pows = [0]
        xt = x
        while xt not in in_sub:
            pows.append(xt)
            xt = g.table[xt][x]
        s = len(pows)  # least s >= 1 with x^s in H; s divides exponent(G)
        y = xt  # x^s
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
        sub = sorted({g.table[h][xt_] for h in sub for xt_ in pows})
        in_sub = set(sub)
    chars.sort(key=lambda chi: tuple(chi[e] for e in range(g.order)))
    return [
        ClassFunction(g, tuple(make_root(n_exp, chi[cls[0]]) for cls in g.classes))
        for chi in chars
    ]
