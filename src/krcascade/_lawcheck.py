"""The symbol passes of the covering-law check, taken through the factors
that a product records.

A state of a product A∘B is u·|B| + v, and symbol x sends it to
A_x(u)·|B| + B_k(v), k = connection[x][u]. So the law's comparisons over
phi's block of |B| states at u, under x and lower symbol a, read the block
at A_x(u) through B's column k, and depend only on the triple (k, block at
u, block at A_x(u)): each distinct triple is checked once, with blocks told
apart by their contents. The same holds one level down while B records its
factors. Where no record is left, a pass over the automaton's column checks
each task, cell by cell: on an upper with no record, that is the flat pass
over the whole of phi, once per law pair.

After a failure, first_failure scans the domain state by state to name
the first failing site. Nothing here imports the rest of the package: an
automaton's record is read off its _factors attribute, (A, B, connection)
or None.
"""

from itertools import compress, repeat
from operator import is_not


class LawCheck:
    """One law check against a lower automaton: its table and state count,
    and the number of cells the passes have compared so far."""

    __slots__ = ("images", "nl", "cells")

    def __init__(self, lower):
        self.images, self.nl = lower._table, lower._n
        self.cells = 0


def holds(check, X, phi, pairs):
    """Whether phi(X_x(s)) = a(phi(s)) in check's lower automaton, for every s
    in the domain of phi (leaving it counts as a failure) and every (x, a)
    in pairs.

    A task (x, src, dst, a) asks this of the blocks src and dst of phi at
    the current level, src read at the states of its domain and dst at
    their images under x. It starts as one task per pair on the whole of
    phi, and each level of records splits it into the tasks of its blocks."""
    blocks = [phi]
    tasks = {(x, 0, 0, a) for x, a in pairs}
    while X._factors is not None:
        A, X, connection = X._factors
        tasks, blocks = _split(A, X._n, connection, tasks, blocks)
    return _passes(check, X, tasks, blocks)


def _split(A, nb, connection, tasks, blocks):
    """The tasks and blocks of a product A∘B, nb = |B|, one level down:
    each block cut into |A| pieces of nb entries, numbered by contents, and
    a task on them for each state u of A. Tasks on a piece outside the
    domain of phi are dropped, since they compare nothing."""
    na, table = A._n, A._table
    ids, parts = {}, {}
    for _, src, dst, _ in tasks:
        for b in (src, dst):
            if b not in parts:
                block = blocks[b]
                parts[b] = [ids.setdefault(block[i:i + nb], len(ids))
                            for i in range(0, na * nb, nb)]
    out = set()
    for x, src, dst, a in tasks:
        targets = map(parts[dst].__getitem__, table[x * na:(x + 1) * na])
        out.update(zip(connection[x], parts[src], targets, repeat(a)))
    empty = ids.get((None,) * nb)
    if empty is not None:
        out = {task for task in out if task[1] != empty}
    return out, list(ids)


def _passes(check, X, tasks, blocks):
    """Whether every task holds on X, which records no factors: one pass per
    task over X's column x, read at the domain states of src."""
    table, n = X._table, X._n
    images, nl = check.images, check.nl
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
        check.cells += len(low)
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
