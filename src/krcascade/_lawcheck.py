"""The symbol passes of the covering-law check, taken through the factors
that a product records where phi is kept as its composition.

A state of a product A∘B is u·|B| + v, and symbol x sends it to
A_x(u)·|B| + B_k(v), k = connection[x][u]. So the law's comparisons over
phi's block of |B| states at u, under x and lower symbol a, read the block
at A_x(u) through B's column k, and depend only on the triple (k, block at
u, block at A_x(u)), where k counts only by its column class in B: each
distinct triple is checked once, k named by the first input of its class.
That is exact at every level, not only at the top, whose law pairs are
classes already: B's classes are how _product keys B's columns, so where B
is a recorded product C∘D, the inputs of a class have equal columns in C
and equal classes in D along their connection rows, and split into the
same tasks one level down. descend carries the tasks down the upper's
record while phi is a Composed, the record of how a tree node's phi was
composed, split as the upper's record is. Down a Composed, every block of
a level is a row map over the same inner phi, so a block's contents are
told apart by its row map at the values of that inner phi, and no entry
of phi is read. Where the descent stops, the distinct blocks are expanded
and passes checks them cell by cell on that level's own table; a flat phi
is one block on its upper's table, the flat pass over the whole of phi,
once per law pair. So every phi over every upper gets an exact verdict.

A descent depends only on the upper, phi and the law pairs, so a witness
makes it on its first check and keeps it until one of its parts is set, and
every check in between runs only passes over it. Nothing else in a check
needs to read phi: values reads the states a Composed covers off its
record. After a failure, first_failure scans the domain state by state to
name the first failing site. Nothing here imports the rest of the package: an automaton's record
is read off its _factors attribute, (A, B, connection) or None.
"""

from itertools import chain, compress, repeat
from operator import is_not


class Composed:
    """phi over a product U∘V as the record of its composition: the entry
    at state u·|V| + v is rows[keys[u]][p], p the entry of inner at v, and
    None where keys[u], p or that row's entry is. keys has one entry per
    state of U, rows one row map (a tuple of lower states and None) per key,
    and inner is the phi of a witness over V: a Composed or a flat sequence.

    expand builds the flat tuple on its first call, a block at a time with
    no block kept, then keeps it; descend and values read the record and
    never build it. A Composed is not changed after it is made: a changed
    phi is a new Composed."""

    __slots__ = ("keys", "rows", "inner", "_inner_values", "_flat")

    def __init__(self, keys, rows, inner):
        self.keys, self.rows, self.inner = keys, rows, inner
        self._inner_values = self._flat = None

    def expand(self) -> tuple:
        flat = self._flat
        if flat is None:
            inner, rows = self.inner, self.rows
            if isinstance(inner, Composed):
                inner = inner.expand()
            self._flat = flat = tuple(chain.from_iterable(
                _through(rows[k], inner) for k in self.keys))
        return flat

    def __len__(self) -> int:
        return len(self.keys) * len(self.inner)

    def inner_values(self) -> list:
        """The entries of inner but None, sorted: computed once, then kept."""
        found = self._inner_values
        if found is None:
            self._inner_values = found = sorted(values(self.inner))
        return found


def values(phi) -> set:
    """The entries of phi but None. A Composed is not expanded: its values
    are its rows' entries at the values of its inner phi."""
    if isinstance(phi, Composed):
        found, inner = set(), phi.inner_values()
        for k in set(phi.keys):
            found.update(map(phi.rows[k].__getitem__, inner))
    else:
        found = set(phi)
    found.discard(None)
    return found


def _through(row, entries):
    """The entries mapped by the row map row, None to None, as an iterator;
    row None gives the entries back as they are."""
    if row is None:
        return entries
    image = dict(enumerate(row))
    image[None] = None
    return map(image.__getitem__, entries)


def descend(X, phi, pairs):
    """The law check's tasks on phi for the law pairs, carried down the
    records of X: (Y, tasks, blocks), Y the automaton of the level where the
    descent stops, whose table passes reads.

    A task (x, src, dst, a) asks the law of the blocks src and dst of phi at
    the current level, src read at the states of its domain and dst at
    their images under x. x is the first input of its column class at every
    level: a task starts as one per law pair on the whole of phi, and each
    level of records splits it into the tasks of its blocks, each keyed by
    the class of its connection symbol, so that tasks merge per class all
    the way down.

    The blocks of a level are row maps over the level's phi, the whole of
    phi being the identity map (None) over phi itself. The descent goes down
    a level while that phi is a Composed and X records factors (A, B,
    connection) with |A| = len(keys) and |B| = len(inner), and goes on with
    B and inner. Where it stops, the level's phi and the blocks over it are
    expanded."""
    tasks, blocks = {(x, 0, 0, a) for x, a in pairs}, [None]
    while isinstance(phi, Composed) and X._factors is not None:
        A, B, connection = X._factors
        if A._n != len(phi.keys) or B._n != len(phi.inner):
            break
        tasks, blocks = _split(A, B, connection, tasks, blocks, phi)
        X, phi = B, phi.inner
    if isinstance(phi, Composed):
        phi = phi.expand()
    return X, tasks, [tuple(_through(r, phi)) for r in blocks]


def _split(A, B, connection, tasks, blocks, inner):
    """The tasks and blocks of a product A∘B one level down, the blocks row
    maps over inner, a Composed over A∘B: each block cut into its |A|
    pieces of |B| entries, and a task on them for each state u of A, whose
    symbol is the first input of the column class in B of connection[x][u],
    B's _classes. Tasks on a piece outside the domain of phi are dropped,
    since they compare nothing.

    The piece at u of block r is r after inner's row at key u: a row map
    over inner's own inner phi, as every piece of the level is, so its
    entries at the values of that phi are its contents, and those number
    it. Pieces at equal keys are equal."""
    na, table, classes = A._n, A._table, B._classes
    keys, rows, at = inner.keys, inner.rows, inner.inner_values()
    # the distinct keys in order of first appearance, as pieces are numbered
    distinct = list(dict.fromkeys(keys))
    pieces, ids, parts = [], {}, {}

    def cut(r):
        number = {}
        for k in distinct:
            row, n = tuple(_through(r, rows[k])), len(pieces)
            number[k] = i = ids.setdefault(tuple(map(row.__getitem__, at)), n)
            if i == n:
                pieces.append(row)
        return list(map(number.__getitem__, keys))
    for _, src, dst, _ in tasks:
        for b in (src, dst):
            if b not in parts:
                parts[b] = cut(blocks[b])
    out = set()
    for x, src, dst, a in tasks:
        targets = map(parts[dst].__getitem__, table[x * na:(x + 1) * na])
        symbols = map(classes.__getitem__, connection[x])
        out.update(zip(symbols, parts[src], targets, repeat(a)))
    # the all-None piece, if a block holds it
    empty = ids.get((None,) * len(at))
    if empty is not None:
        out = {task for task in out if task[1] != empty}
    return out, pieces


def passes(lower, descent):
    """Whether every task of the descent holds on the automaton X where it
    stopped, against the lower automaton: one pass per task over X's column
    x, read at the domain states of src. A pass compares one cell per entry
    of src that is not None. X's table is read, so a product that records
    its factors builds it here."""
    X, tasks, blocks = descent
    table, n = X._table, X._n
    images, nl = lower._table, lower._n
    domains, columns = {}, {}
    for x, src, dst, a in tasks:
        domain = domains.get(src)
        if domain is None:
            block = blocks[src]
            inside = list(map(is_not, block, repeat(None)))
            domains[src] = domain = inside, list(compress(block, inside))
        inside, low = domain
        image = columns.get(a)
        if image is None:
            columns[a] = image = images[a * nl:(a + 1) * nl].tolist()
        target = blocks[dst]
        for t, v in zip(compress(table[x * n:(x + 1) * n], inside), low):
            if target[t] != image[v]:
                return False
    return True


def first_failure(w):
    """The first (s, a), domain states in order and then lower symbols, where
    the law fails on the witness w, or None: a scan of the domain states in
    order, each over all lower symbols."""
    phi, xi, upper, lower = w._phi, w.xi, w.upper, w.lower
    phi = phi.expand() if isinstance(phi, Composed) else phi
    cells, nu, images, nl = upper._table, upper._n, lower._table, lower._n
    # s is counted by hand: most calls are on witnesses of two to four
    # states, where enumerate's pair per state costs a tenth of the scan
    s = -1
    for v in phi:
        s += 1
        if v is not None:
            # v runs over the cells (a, phi(s)) of the lower table, a = 0, 1, ...
            for x in xi:
                if phi[cells[x * nu + s]] != images[v]:
                    return s, (v - phi[s]) // nl
                v += nl
    return None
