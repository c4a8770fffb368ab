"""Finite monoid arithmetic: tables, closure generation, congruences, quotients, homs."""

from __future__ import annotations

from itertools import compress, count
from operator import index
from typing import Optional, Sequence

from .errors import InvalidCongruenceError, InvalidInputError, ResourceCapError

CLOSURE_CAP = 10000

LABEL_LIMIT = 80


def clamp_label(label: str, fallback: str) -> str:
    """Keep a readable compound label only while it stays short.

    Synthesized towers of products would otherwise grow labels geometrically,
    which dominates memory long before the tables do.
    """
    return label if len(label) <= LABEL_LIMIT else fallback


def pair_labels(pairs, prefix: str) -> list:
    """The label "(l,r)" of each label pair (l, r), in order, clamped: one
    longer than LABEL_LIMIT is prefix and its position, formatted only then."""
    labels = list(map("(%s,%s)".__mod__, pairs))
    for k in list(compress(count(), map(LABEL_LIMIT.__lt__, map(len, labels)))):
        labels[k] = "%s%d" % (prefix, k)
    return labels


def _integer(x, name: str) -> int:
    """x by operator.index; a value such as 2.7 or '2' raises InvalidInputError."""
    try:
        return index(x)
    except TypeError:
        raise InvalidInputError("%s %r is not an integer" % (name, x)) from None


def _integers(xs, name: str) -> tuple:
    """The entries of xs as a tuple of ints: operator.index over all of them
    in one map, which costs less than a call per entry, and _integer to name
    the first entry that is not an integer."""
    xs = tuple(xs)
    try:
        return tuple(map(index, xs))
    except TypeError:
        for x in xs:
            _integer(x, name)
        raise


class Transformation:
    """Total self-map of {0..n-1}; composition is diagrammatic, (fg)(x) = g(f(x))."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(_integer(x, "image point") for x in image)
        n = len(image)
        if n == 0:
            raise InvalidInputError("transformation needs at least one point")
        if not (0 <= min(image) and max(image) < n):
            x = next(x for x in image if not 0 <= x < n)
            raise InvalidInputError("image point %d out of range for domain size %d" % (x, n))
        self.image = image

    @property
    def domain_size(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(range(n))

    def __call__(self, point: int) -> int:
        return self.image[point]

    def compose(self, other: "Transformation") -> "Transformation":
        """self followed by other."""
        if other.domain_size != self.domain_size:
            raise InvalidInputError("cannot compose transformations of different domain sizes")
        return Transformation(map(other.image.__getitem__, self.image))

    def is_permutation(self) -> bool:
        return len(set(self.image)) == self.domain_size

    def is_reset(self) -> bool:
        return len(set(self.image)) == 1

    def is_identity(self) -> bool:
        return all(y == i for i, y in enumerate(self.image))

    def inverse(self) -> "Transformation":
        if not self.is_permutation():
            raise InvalidInputError("only permutations have inverses")
        inv = [0] * self.domain_size
        for i, y in enumerate(self.image):
            inv[y] = i
        return Transformation(inv)

    def __eq__(self, other):
        return isinstance(other, Transformation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return "Transformation(%r)" % (list(self.image),)


def is_associative(table: Sequence[Sequence[int]]) -> bool:
    """Exhaustive triple check of a square multiplication table."""
    n = len(table)
    for row in table:
        if len(row) != n:
            raise InvalidInputError("multiplication table must be square")
        for x in row:
            if not 0 <= x < n:
                raise InvalidInputError("table entry %r out of range" % (x,))
    for i in range(n):
        for j in range(n):
            ij = table[i][j]
            row_j = table[j]
            for k in range(n):
                if table[ij][k] != table[i][row_j[k]]:
                    return False
    return True


def find_identity(table: Sequence[Sequence[int]]) -> Optional[int]:
    """Index of the two-sided identity, or None. Unique when it exists."""
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[j][e] == j for j in range(n)):
            return e
    return None


class FiniteMonoid:
    """Square multiplication table with an identity; elements are 0-based indices.

    Generated monoids additionally carry their transformations and shortlex
    witness words over the generator indices.
    """

    def __init__(self, labels, table, identity, transformations=None, witnesses=None, check=True):
        self.labels = tuple(str(x) for x in labels)
        self.table = tuple(_integers(row, "table entry") for row in table)
        self.identity = _integer(identity, "identity")
        self.transformations = None if transformations is None else tuple(transformations)
        self.witnesses = None if witnesses is None else tuple(tuple(w) for w in witnesses)
        n = len(self.table)
        if len(self.labels) != n:
            raise InvalidInputError("need one label per element")
        if not 0 <= self.identity < n:
            raise InvalidInputError("identity index out of range")
        if check:
            if not is_associative(self.table):
                raise InvalidInputError("multiplication table is not associative")
            if find_identity(self.table) != self.identity:
                raise InvalidInputError("claimed identity is not a two-sided identity")

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def is_commutative(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))

    def __repr__(self):
        return "FiniteMonoid(order=%d, identity=%r)" % (self.order, self.labels[self.identity])


def render_word(word: Sequence[int], symbol_labels: Sequence[str]) -> str:
    """Human form of a generator word; the empty word renders as the Greek epsilon."""
    if not word:
        return "ε"
    parts = [symbol_labels[i] for i in word]
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return "·".join(parts)


def closure_generate(generators, *, domain_size=None, cap=CLOSURE_CAP, symbol_labels=None):
    """Smallest transformation monoid containing the generators.

    Breadth-first over shortlex generator words, so every element's witness word
    is shortlex-minimal and the element order is deterministic. The identity is
    always element 0 with the empty witness.
    """
    gens = [g if isinstance(g, Transformation) else Transformation(g) for g in generators]
    if gens:
        n = gens[0].domain_size
        for g in gens[1:]:
            if g.domain_size != n:
                raise InvalidInputError("generators must share one domain size")
        if domain_size is not None and _integer(domain_size, "domain size") != n:
            raise InvalidInputError("domain_size disagrees with the given generators")
    else:
        n = 1 if domain_size is None else _integer(domain_size, "domain size")
        if n < 1:
            raise InvalidInputError("domain size must be positive")
    if symbol_labels is None:
        symbol_labels = ["g%d" % i for i in range(len(gens))]
    elif len(symbol_labels) != len(gens):
        raise InvalidInputError("need one symbol label per generator")

    elems, words, index = _closure(gens, n, cap)
    table = _cayley_table(elems, index)
    labels = _word_labels(words, symbol_labels)
    return FiniteMonoid(labels, table, 0, transformations=elems, witnesses=words, check=False)


def _closure(gens, n: int, cap: int):
    """(elements, words, index) of the monoid that the Transformations gens
    of n points generate: its elements in closure_generate's order, their
    shortlex witness words, and each element's position by its image.

    Raises ResourceCapError when there are more than cap elements.
    """
    ident = Transformation.identity(n)
    elems = [ident]
    words = [()]
    index = {ident.image: 0}
    i = 0
    while i < len(elems):
        base = elems[i].image
        for gi, g in enumerate(gens):
            img = tuple(map(g.image.__getitem__, base))
            if img not in index:
                if len(elems) >= cap:
                    raise ResourceCapError(
                        "closure exceeded the cap of %d elements" % cap
                    )
                index[img] = len(elems)
                elems.append(Transformation(img))
                words.append(words[i] + (gi,))
        i += 1
    return elems, words, index


def _cayley_table(elems, index):
    """The table of the Transformations elems, (a, b) -> a followed by b, as
    positions by index, which maps an image to its position in elems."""
    return [[index[tuple(map(b.image.__getitem__, a.image))] for b in elems] for a in elems]


def _word_labels(words, symbol_labels):
    """The element labels of closure_generate: each witness word rendered
    over the generators' symbol labels, clamped."""
    return [
        clamp_label(render_word(w, symbol_labels), "w%d" % i)
        for i, w in enumerate(words)
    ]


def evaluate_word(word, generators, domain_size):
    """Compose a generator word left to right; the empty word is the identity."""
    t = Transformation.identity(domain_size)
    for gi in word:
        t = t.compose(generators[gi])
    return t


class Congruence:
    """Partition of a monoid's elements compatible with the operation."""

    def __init__(self, monoid: FiniteMonoid, class_of, check=True):
        self.monoid = monoid
        self.class_of = _integers(class_of, "class index")
        n = monoid.order
        if len(self.class_of) != n:
            raise InvalidInputError("need one class per element")
        k = len(set(self.class_of))
        if set(self.class_of) != set(range(k)):
            raise InvalidInputError("class indices must be dense 0..k-1")
        self.class_count = k
        if check:
            bad = self.violating_quadruple()
            if bad is not None:
                x, x2, y, y2 = bad
                labels = monoid.labels
                raise InvalidCongruenceError(
                    "partition is not a congruence: %s~%s and %s~%s but the products differ"
                    % (labels[x], labels[x2], labels[y], labels[y2]),
                    quadruple=bad,
                )

    def violating_quadruple(self):
        """A quadruple (x, x', y, y') breaking compatibility, or None."""
        cls = self.class_of
        table = self.monoid.table
        n = self.monoid.order
        for x in range(n):
            for x2 in range(n):
                if cls[x] != cls[x2]:
                    continue
                for y in range(n):
                    if cls[table[x][y]] != cls[table[x2][y]]:
                        return (x, x2, y, y)
                    if cls[table[y][x]] != cls[table[y][x2]]:
                        return (y, y, x, x2)
        return None


class MonoidHom:
    """Map between monoids commuting with the operations and preserving identities."""

    def __init__(self, source: FiniteMonoid, target: FiniteMonoid, map, check=True):
        self.source = source
        self.target = target
        self.map = _integers(map, "hom image")
        if len(self.map) != source.order:
            raise InvalidInputError("need one image per source element")
        for x in self.map:
            if not 0 <= x < target.order:
                raise InvalidInputError("hom image %d out of range" % x)
        if check:
            if self.map[source.identity] != target.identity:
                raise InvalidInputError("hom does not preserve the identity")
            for a in range(source.order):
                for b in range(source.order):
                    if self.map[source.table[a][b]] != target.table[self.map[a]][self.map[b]]:
                        raise InvalidInputError(
                            "hom law fails on the pair (%s, %s)"
                            % (source.labels[a], source.labels[b])
                        )

    def __call__(self, x: int) -> int:
        return self.map[x]

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.order


def right_regular_representation(M: FiniteMonoid):
    """The transformation monoid of right multiplications r_x(y) = y*x.

    Returns (N, iso) where N carries the r_x as its transformations in M's
    element order and iso: M -> N is the bijective hom x -> r_x.
    """
    n = M.order
    trans = [Transformation(tuple(M.table[y][x] for y in range(n))) for x in range(n)]
    if len({t.image for t in trans}) != n:
        # cannot happen: r_x = r_y forces x = e*x = e*y = y
        raise InvalidInputError("right regular representation is not faithful")
    labels = ["r_%s" % lab for lab in M.labels]
    N = FiniteMonoid(labels, M.table, M.identity, transformations=trans, check=False)
    iso = MonoidHom(M, N, range(n), check=False)
    return N, iso


def quotient_monoid(M: FiniteMonoid, c: Congruence):
    """Monoid of congruence classes under [x][y] = [xy], plus the projection hom."""
    if c.monoid is not M:
        raise InvalidInputError("congruence does not belong to this monoid")
    k = c.class_count
    reps = [None] * k
    for x in range(M.order):
        if reps[c.class_of[x]] is None:
            reps[c.class_of[x]] = x
    table = [[c.class_of[M.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    labels = [clamp_label("[%s]" % M.labels[reps[i]], "[%d]" % i) for i in range(k)]
    Q = FiniteMonoid(labels, table, c.class_of[M.identity], check=False)
    pi = MonoidHom(M, Q, c.class_of, check=False)
    return Q, pi


def kernel_congruence(h: MonoidHom) -> Congruence:
    """Classes are the fibers of h, indexed by ascending target element."""
    values = sorted(set(h.map))
    rank = {v: i for i, v in enumerate(values)}
    return Congruence(h.source, [rank[v] for v in h.map], check=False)


def hom_factorize(h: MonoidHom):
    """Factor h as projection-then-monomorphism: pi followed by psi equals h."""
    ker = kernel_congruence(h)
    Q, pi = quotient_monoid(h.source, ker)
    psi_map = [0] * Q.order
    for x in range(h.source.order):
        psi_map[pi(x)] = h.map[x]
    psi = MonoidHom(Q, h.target, psi_map)
    if not psi.is_injective():
        raise InvalidInputError("factorization produced a non-injective second factor")
    return pi, psi


def direct_product_monoid(M: FiniteMonoid, M2: FiniteMonoid) -> FiniteMonoid:
    """Componentwise product; element (i, j) is flattened as i*|M2| + j."""
    n2 = M2.order
    labels = pair_labels([(a, b) for a in M.labels for b in M2.labels], "e")
    table = [
        [M.table[i][k] * n2 + M2.table[j][l] for k in range(M.order) for l in range(n2)]
        for i in range(M.order)
        for j in range(n2)
    ]
    identity = M.identity * n2 + M2.identity
    return FiniteMonoid(labels, table, identity, check=False)
