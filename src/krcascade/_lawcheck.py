"""The symbol passes of the covering-law check, taken through the factors
that a product records.

A state of a product A∘B is u·|B| + v, and symbol x sends it to
A_x(u)·|B| + B_k(v), k = connection[x][u]. So the law's comparisons over
phi's block of |B| states at u, under x and lower symbol a, read the block
at A_x(u) through B's column k, and depend only on the triple (k, block at
u, block at A_x(u)): each distinct triple is checked once, with blocks told
apart by their contents. The same holds one level down while B records its
factors. descend carries the tasks down the records, and passes checks what
is left: a pass over the column of the automaton without a record, cell by
cell, per task. On an upper with no record, that is the flat pass over the
whole of phi, once per law pair.

phi is a flat sequence, or a Composed: the phi of a tree node's witness,
kept as the record of how it was composed, which splits where the upper's
record does. Down a Composed, every block of a level is a row map over the
same inner phi, so a block's contents are told apart by its row map at the
values of that inner phi, and no entry of phi is read; only the deepest
distinct blocks, which passes and covered read, are expanded. A flat phi is
cut into pieces by contents, which reads every entry of phi once.

Nothing else in a check needs to read phi: covered reads the states phi
covers off the source blocks the descent ends with, so that verify_covering
tests surjectivity on the same descent that the passes check; a check makes
at most one descent. After a failure, first_failure scans the domain state
by state to name the first failing site. Nothing here imports the rest of
the package: an automaton's record is read off its _factors attribute,
(A, B, connection) or None.
"""

from itertools import chain, compress, repeat
from operator import is_not

# Pieces of _WIDE entries or more of a flat phi are numbered by a sample of
# about _SAMPLE of their entries (_cut). On the random-6 seed-0 root, hashing
# whole pieces of 9,216 and 46,080 entries took about a quarter of cutting them.
_WIDE = 1024
_SAMPLE = 64


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
    row None maps every entry to itself."""
    if row is None:
        return iter(entries)
    image = dict(enumerate(row))
    image[None] = None
    return map(image.__getitem__, entries)


def descend(X, phi, pairs):
    """The law check's tasks on phi for the law pairs, carried down the
    records of X: (Y, tasks, blocks), Y the first automaton of the descent
    that records no factors.

    A task (x, src, dst, a) asks the law of the blocks src and dst of phi at
    the current level, src read at the states of its domain and dst at
    their images under x. It starts as one task per pair on the whole of
    phi, and each level of records splits it into the tasks of its blocks.

    Down a Composed phi, the blocks of a level are row maps over the level's
    inner phi, the whole of phi being the identity map (None) over phi
    itself. Where the inner phi is flat and records go on, or where they
    end, the blocks are expanded, and cut by contents from there."""
    blocks, inner = [phi], None
    if isinstance(phi, Composed):
        blocks, inner = [None], phi
    tasks = {(x, 0, 0, a) for x, a in pairs}
    while X._factors is not None:
        A, X, connection = X._factors
        if inner is not None and not isinstance(inner, Composed):
            blocks, inner = [tuple(_through(r, inner)) for r in blocks], None
        tasks, blocks = _split(A, X._n, connection, tasks, blocks, inner)
        if inner is not None:
            inner = inner.inner
    if inner is not None:
        # a Composed splits where its upper's record does, so inner is flat
        blocks = [tuple(_through(r, inner)) for r in blocks]
    return X, tasks, blocks


def covered(descent):
    """The entries of the source blocks of the descent's tasks. Each piece of
    a source block is a source one level down unless all its entries are
    None, so while there is a law pair, these are the entries of phi but
    None, and None if a source block holds it."""
    _, tasks, blocks = descent
    return set().union(*map(blocks.__getitem__, {task[1] for task in tasks}))


def _split(A, nb, connection, tasks, blocks, inner):
    """The tasks and blocks of a product A∘B, nb = |B|, one level down:
    each block cut into |A| pieces of nb entries, numbered by contents, and
    a task on them for each state u of A. Tasks on a piece outside the
    domain of phi are dropped, since they compare nothing.

    With inner None the blocks are flat and cut by _cut. Otherwise they are
    row maps over inner, a Composed, and the piece at u of block r is r
    after inner's row at key u: a row map over inner's own inner phi, as
    every piece of the level is, so its entries at the values of that phi
    are its contents, and those number it. Pieces at equal keys are equal."""
    na, table = A._n, A._table
    pieces, ids, parts = [], {}, {}
    if inner is None:
        def cut(block):
            return _cut(block, na, nb, pieces, ids)
    else:
        keys, rows, at = inner.keys, inner.rows, inner.inner_values()
        # the distinct keys in order of first appearance, as pieces are numbered
        distinct = list(dict.fromkeys(keys))

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
        out.update(zip(connection[x], parts[src], targets, repeat(a)))
    # the number of the all-None piece, which is new if no block holds it
    n = len(pieces)
    if inner is None:
        empty = _cut((None,) * nb, 1, nb, pieces, ids)[0]
    else:
        empty = ids.get((None,) * len(at), n)
    if empty < n:
        out = {task for task in out if task[1] != empty}
    del pieces[n:]
    return out, pieces


def _cut(block, na, nb, pieces, ids):
    """The numbers of the na pieces of nb entries of block, each new content
    appended to pieces; ids numbers the contents seen.

    A piece of _WIDE entries or more is numbered by a sample of about
    _SAMPLE of its entries at a stride, confirmed by comparing whole
    pieces, since hashing every entry is what numbering by contents costs;
    ids then numbers each sample seen and, once two contents share a
    sample, each of those contents, told apart from samples by length."""
    step = nb // _SAMPLE | 1 if nb >= _WIDE else 0
    parts = []
    for i in range(0, na * nb, nb):
        piece, n = block[i:i + nb], len(pieces)
        if step:
            k = ids.setdefault(block[i:i + nb:step], n)
            if k != n and pieces[k] != piece:
                ids.setdefault(pieces[k], k)
                k = ids.setdefault(piece, n)
        else:
            k = ids.setdefault(piece, n)
        if k == n:
            pieces.append(piece)
        parts.append(k)
    return parts


def passes(lower, descent):
    """Whether every task of the descent holds on its last automaton X, which
    records no factors, against the lower automaton: one pass per task over
    X's column x, read at the domain states of src. A pass compares one cell
    per entry of src that is not None."""
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
    phi, xi, upper, lower = w.phi, w.xi, w.upper, w.lower
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
