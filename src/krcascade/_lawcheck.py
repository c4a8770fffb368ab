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

The descent reads every entry of phi once, and nothing else in a check
needs to: covered reads the states phi covers off the source blocks the
descent ends with, so that verify_covering tests surjectivity on the same
descent that the passes check; a check makes at most one descent. After a
failure, first_failure scans the domain state by state to name the first
failing site. Nothing here imports the rest of the package: an automaton's
record is read off its _factors attribute, (A, B, connection) or None.
"""

from itertools import compress, repeat
from operator import is_not

# Pieces of _WIDE entries or more are numbered by a sample of about _SAMPLE
# of their entries (_cut). On the random-6 seed-0 root, hashing whole
# pieces of 9,216 and 46,080 entries took about a quarter of cutting them.
_WIDE = 1024
_SAMPLE = 64


def descend(X, phi, pairs):
    """The law check's tasks on phi for the law pairs, carried down the
    records of X: (Y, tasks, blocks), Y the first automaton of the descent
    that records no factors.

    A task (x, src, dst, a) asks the law of the blocks src and dst of phi at
    the current level, src read at the states of its domain and dst at
    their images under x. It starts as one task per pair on the whole of
    phi, and each level of records splits it into the tasks of its blocks."""
    blocks = [phi]
    tasks = {(x, 0, 0, a) for x, a in pairs}
    while X._factors is not None:
        A, X, connection = X._factors
        tasks, blocks = _split(A, X._n, connection, tasks, blocks)
    return X, tasks, blocks


def covered(descent):
    """The entries of the source blocks of the descent's tasks. Each piece of
    a source block is a source one level down unless all its entries are
    None, so while there is a law pair, these are the entries of phi but
    None, and None if a source block holds it."""
    _, tasks, blocks = descent
    return set().union(*map(blocks.__getitem__, {task[1] for task in tasks}))


def _split(A, nb, connection, tasks, blocks):
    """The tasks and blocks of a product A∘B, nb = |B|, one level down:
    each block cut into |A| pieces of nb entries, numbered by contents, and
    a task on them for each state u of A. Tasks on a piece outside the
    domain of phi are dropped, since they compare nothing."""
    na, table = A._n, A._table
    pieces, ids, parts = [], {}, {}
    for _, src, dst, _ in tasks:
        for b in (src, dst):
            if b not in parts:
                parts[b] = _cut(blocks[b], na, nb, pieces, ids)
    out = set()
    for x, src, dst, a in tasks:
        targets = map(parts[dst].__getitem__, table[x * na:(x + 1) * na])
        out.update(zip(connection[x], parts[src], targets, repeat(a)))
    # the number of the all-None piece, which is new if no block holds it
    n = len(pieces)
    empty = _cut((None,) * nb, 1, nb, pieces, ids)[0]
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
