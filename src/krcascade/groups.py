"""Finite group structure: subgroups, normality, cosets, factors, composition series."""

from __future__ import annotations

from .algebra import FiniteMonoid, _integer, _integers, clamp_label, find_identity, is_associative
from .errors import InvalidInputError, NotAGroupError, ResourceCapError

SUBGROUP_CAP = 24


class FiniteGroup:
    """A FiniteMonoid in which every element has a two-sided inverse."""

    def __init__(self, monoid: FiniteMonoid, inverse=None):
        self.monoid = monoid
        if inverse is None:
            inverse = _compute_inverses(monoid)
        self.inverse = _integers(inverse, "inverse")
        if len(self.inverse) != monoid.order:
            raise InvalidInputError("need one inverse per element")
        e = monoid.identity
        for x, y in enumerate(self.inverse):
            if monoid.table[x][y] != e or monoid.table[y][x] != e:
                raise NotAGroupError(
                    "element %s lacks a two-sided inverse" % monoid.labels[x]
                )

    @property
    def order(self) -> int:
        return self.monoid.order

    @property
    def table(self):
        return self.monoid.table

    @property
    def labels(self):
        return self.monoid.labels

    @property
    def identity(self) -> int:
        return self.monoid.identity

    def mul(self, a: int, b: int) -> int:
        return self.monoid.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, a: int) -> int:
        e = self.identity
        k, x = 1, a
        while x != e:
            x = self.mul(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return self.monoid.is_commutative()

    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in range(self.order))

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.order


def _compute_inverses(monoid: FiniteMonoid):
    e = monoid.identity
    n = monoid.order
    inverse = [None] * n
    for x in range(n):
        for y in range(n):
            if monoid.table[x][y] == e and monoid.table[y][x] == e:
                inverse[x] = y
                break
        if inverse[x] is None:
            raise NotAGroupError("element %s lacks a two-sided inverse" % monoid.labels[x])
    return inverse


def group_from_table(table, labels=None, identity=None):
    """Validate a multiplication table as a group; inverses are computed."""
    table = [_integers(row, "table entry") for row in table]
    n = len(table)
    if labels is None:
        labels = ["g%d" % i for i in range(n)]
    if not is_associative(table):
        raise InvalidInputError("multiplication table is not associative")
    e = find_identity(table)
    if e is None:
        raise NotAGroupError("table has no two-sided identity")
    if identity is not None and _integer(identity, "identity") != e:
        raise InvalidInputError("claimed identity is not the table's identity")
    monoid = FiniteMonoid(labels, table, e, check=False)
    return FiniteGroup(monoid)


def subgroup_closure(G: FiniteGroup, seed) -> frozenset:
    """Smallest subgroup containing the seed elements.

    Closes {e} under right multiplication by the seed elements: in a finite
    group every element's inverse is one of its powers, so the products of
    the seed elements already form the subgroup.
    """
    gens = list(set(seed))
    table = G.table
    have = {G.identity}
    queue = [G.identity]
    for x in queue:
        row = table[x]
        for g in gens:
            z = row[g]
            if z not in have:
                have.add(z)
                queue.append(z)
    return frozenset(have)


def normal_closure(G: FiniteGroup, seed) -> frozenset:
    """Smallest normal subgroup containing the seed elements: the subgroup
    generated by their conjugates g^-1 x g."""
    table, inverse = G.table, G.inverse
    return subgroup_closure(
        G, {table[table[inverse[g]][x]][g] for x in set(seed) for g in range(G.order)}
    )


def _elements(G: FiniteGroup, H):
    """H as a frozenset, or None unless H holds only elements of G: ints in
    range(G.order). Any other value, an unhashable one too, is checked
    before H is hashed."""
    H = tuple(H)
    if all(isinstance(x, int) and 0 <= x < G.order for x in H):
        return frozenset(H)
    return None


def is_subgroup(G: FiniteGroup, H) -> bool:
    H = _elements(G, H)
    if H is None or G.identity not in H:
        return False
    return all(G.mul(x, y) in H and G.inv(x) in H for x in H for y in H)


def _check_order(G: FiniteGroup, cap: int):
    if G.order > cap:
        raise ResourceCapError(
            "subgroup enumeration capped at order %d, group has order %d" % (cap, G.order)
        )


def enumerate_subgroups(G: FiniteGroup, cap: int = SUBGROUP_CAP):
    """All subgroups of G, sorted by (order, element tuple).

    Public API; the decomposition does not use it, since it needs only the
    normal subgroups (_normal_subgroups). Grows a closure lattice: every
    subgroup extended by one outside element and closed again. Any subgroup
    H arises this way from any maximal chain below it, so by induction the
    enumeration is complete.
    """
    _check_order(G, cap)
    found = {frozenset([G.identity])}
    frontier = list(found)
    while frontier:
        new = []
        for H in frontier:
            for x in range(G.order):
                if x in H:
                    continue
                K = subgroup_closure(G, H | {x})
                if K not in found:
                    found.add(K)
                    new.append(K)
        frontier = new
    return sorted(found, key=lambda H: (len(H), tuple(sorted(H))))


def is_normal(G: FiniteGroup, H) -> bool:
    H = _elements(G, H)
    return H is not None and all(
        G.mul(G.mul(g, h), G.inv(g)) in H for g in range((G.order)) for h in H
    )


def is_simple(G: FiniteGroup, cap: int = SUBGROUP_CAP) -> bool:
    """No proper nontrivial normal subgroup; the trivial group counts as simple.

    G is simple exactly when the normal closure of every non-identity element
    is G itself. Raises ResourceCapError above order cap.
    """
    _check_order(G, cap)
    return all(
        len(normal_closure(G, [x])) == G.order for x in range(G.order) if x != G.identity
    )


def _normal_subgroups(G: FiniteGroup):
    """Every normal subgroup of G, in no particular order.

    A normal subgroup is the join of the normal closures of its elements, so
    joining {e} with those closures until nothing new appears finds them all.
    The join of two normal subgroups N, M is the product set NM.
    """
    table = G.table
    atoms = {normal_closure(G, [x]) for x in range(G.order)}
    found = {frozenset([G.identity])}
    frontier = list(found)
    while frontier:
        new = []
        for N in frontier:
            for M in atoms:
                if M <= N:
                    continue
                J = frozenset(table[n][m] for n in N for m in M)
                if J not in found:
                    found.add(J)
                    new.append(J)
        frontier = new
    return found


class CosetPartition:
    """Right cosets Hg of a subgroup, with a transversal starting at the identity."""

    def __init__(self, group: FiniteGroup, subgroup, transversal, cosets):
        self.group = group
        self.subgroup = frozenset(subgroup)
        self.transversal = tuple(transversal)
        self.cosets = tuple(cosets)

    @property
    def count(self) -> int:
        return len(self.transversal)

    def block(self, i: int):
        return sorted(x for x in range(self.group.order) if self.cosets[x] == i)


def coset_partition(G: FiniteGroup, H) -> CosetPartition:
    H = _elements(G, H)
    if H is None or not is_subgroup(G, H):
        raise InvalidInputError("given set is not a subgroup")
    cosets = [None] * G.order
    transversal = []
    for g in [G.identity] + [x for x in range(G.order) if x != G.identity]:
        if cosets[g] is None:
            k = len(transversal)
            transversal.append(g)
            for h in H:
                cosets[G.mul(h, g)] = k
    if G.order != len(H) * len(transversal):
        raise InvalidInputError("cosets do not partition the group")
    return CosetPartition(G, H, transversal, cosets)


def factor_group(G: FiniteGroup, H) -> FiniteGroup:
    """G/H for a normal subgroup H, elements indexed like coset_partition's blocks."""
    cp = coset_partition(G, H)
    if not is_normal(G, cp.subgroup):
        raise InvalidInputError("factor group needs a normal subgroup")
    s = cp.count
    table = [
        [cp.cosets[G.mul(cp.transversal[i], cp.transversal[j])] for j in range(s)]
        for i in range(s)
    ]
    labels = [
        clamp_label("[%s]" % G.labels[cp.transversal[i]], "[%d]" % i) for i in range(s)
    ]
    monoid = FiniteMonoid(labels, table, 0, check=False)
    return FiniteGroup(monoid)


def subgroup_as_group(G: FiniteGroup, H):
    """H as a group in its own right; returns (group, ascending global element indices)."""
    H = _elements(G, H)
    if H is None or not is_subgroup(G, H):
        raise InvalidInputError("given set is not a subgroup")
    elems = sorted(H)
    local = {x: i for i, x in enumerate(elems)}
    table = [[local[G.mul(x, y)] for y in elems] for x in elems]
    labels = [G.labels[x] for x in elems]
    monoid = FiniteMonoid(labels, table, local[G.identity], check=False)
    return FiniteGroup(monoid), elems


def _maximal_normal_subgroup(G: FiniteGroup, elems, cap):
    """Largest proper normal subgroup; ties broken by smallest global element tuple."""
    _check_order(G, cap)
    proper = [H for H in _normal_subgroups(G) if len(H) < G.order]
    return min(proper, key=lambda H: (-len(H), sorted(elems[i] for i in H)), default=None)


def _composition_walk(G: FiniteGroup, cap):
    """(H_{i+1} as G's element indices, simple factor H_i/H_{i+1}) down the
    composition series, outermost first."""
    cur, elems = G, list(range(G.order))
    while cur.order > 1:
        H = _maximal_normal_subgroup(cur, elems, cap)
        yield frozenset(elems[i] for i in H), factor_group(cur, H)
        cur, local_elems = subgroup_as_group(cur, H)
        elems = [elems[i] for i in local_elems]


def composition_series(G: FiniteGroup, cap: int = SUBGROUP_CAP):
    """Chain G = H_0 > H_1 > ... > {e} with every H_{i+1} maximal normal in H_i.

    Returns the chain as frozensets of G's element indices. Each H_{i+1} is
    the largest normal subgroup of H_i found from normal closures (ties go to
    the smallest element tuple), so it is maximal normal and every factor
    H_i/H_{i+1} is simple. Raises ResourceCapError above order cap.
    """
    return [frozenset(range(G.order))] + [H for H, _ in _composition_walk(G, cap)]


def composition_factors(G: FiniteGroup, cap: int = SUBGROUP_CAP):
    """The simple factor groups H_i/H_{i+1} along composition_series, outermost first."""
    return [factor for _, factor in _composition_walk(G, cap)]
