"""Reference checker for decomposition trees, written apart from krcascade.

It reads the tables, witnesses and connections that a tree carries and
re-derives every property from them with its own loops. It calls no
krcascade verification function: the benchmark times those, so they cannot
also be the judge of their own output.
"""

from krcascade.pipeline import LEAF_GROUPLIKE, LEAF_RAW, LEAF_RESET, CascadeNode, Leaf

# check_tree replays this many seeded random words, each of 1 to MAX_WORD_LEN
# symbols, through the root.
N_WORDS = 64
MAX_WORD_LEN = 12


class CheckFailure(Exception):
    """A tree property that the reference checker found broken."""


class WitnessVerdict:
    """How a (phi, xi) pair relates an upper table to a lower table.

    law_holds: the domain of phi is closed under the xi-image of every lower
    symbol and phi(s·xi(a)) = phi(s)·a at every domain state; this is what a
    word simulation can observe. is_covering: law_holds, and phi is a
    well-formed partial map onto every lower state with a nonempty domain.
    """

    def __init__(self, is_covering, law_holds, reason=None):
        self.is_covering = is_covering
        self.law_holds = law_holds
        self.reason = reason


def witness_verdict(upper, lower, phi, xi):
    """Judge phi (upper state -> lower state or None) and xi (lower symbol ->
    upper symbol) against two delta tables, delta[state][symbol]."""
    nu, nl = len(upper), len(lower)
    mu, ml = len(upper[0]), len(lower[0])
    if len(phi) != nu or len(xi) != ml:
        return WitnessVerdict(False, False, "phi or xi has the wrong length")
    if any(v is not None and not 0 <= v < nl for v in phi):
        return WitnessVerdict(False, False, "phi leaves the lower states")
    if any(not 0 <= x < mu for x in xi):
        return WitnessVerdict(False, False, "xi leaves the upper alphabet")
    dom = [s for s in range(nu) if phi[s] is not None]
    for s in dom:
        row, low = upper[s], lower[phi[s]]
        for a in range(ml):
            image = phi[row[xi[a]]]
            if image is None:
                return WitnessVerdict(
                    False, False, "domain not closed at upper state %d, symbol %d" % (s, a)
                )
            if image != low[a]:
                return WitnessVerdict(
                    False, False, "covering law fails at upper state %d, symbol %d" % (s, a)
                )
    if not dom:
        return WitnessVerdict(False, True, "phi has an empty domain")
    if len({phi[s] for s in dom}) != nl:
        return WitnessVerdict(False, True, "phi is not onto the lower states")
    return WitnessVerdict(True, True)


def replay_violates(upper, lower, phi, xi, s, word):
    """Whether reading word from upper state s breaks phi(s·xi(w)) = phi(s)·w
    at the end of the word; leaving the domain of phi counts as breaking it."""
    if phi[s] is None:
        return True
    u, low = s, phi[s]
    for a in word:
        u = upper[u][xi[a]]
        if phi[u] is None:
            return True
        low = lower[low][a]
    return phi[u] != low


def _check_table(delta, n_symbols, where):
    n = len(delta)
    for row in delta:
        if len(row) != n_symbols or any(not 0 <= t < n for t in row):
            raise CheckFailure("%s: malformed transition table" % where)


def check_product(node, where="node"):
    """The node's table must be its children's product: the left child's table
    read through that child's witness xi, driving the right child through
    omega (cascade) or through the same symbol (direct)."""
    left, right = node.left.automaton, node.right.automaton
    xi = node.left.witness.xi
    delta = node.automaton.delta
    m, nr = node.automaton.n_symbols, right.n_states
    if len(delta) != left.n_states * nr:
        raise CheckFailure("%s: state count is not the product of the children" % where)
    if len(xi) != m:
        raise CheckFailure("%s: left witness alphabet differs from the node's" % where)
    if isinstance(node, CascadeNode):
        omega = node.omega
        if len(omega) != left.n_states or any(
            len(r) != m or any(not 0 <= x < right.n_symbols for x in r) for r in omega
        ):
            raise CheckFailure("%s: malformed connection" % where)
    else:
        if right.n_symbols != m:
            raise CheckFailure("%s: direct product over different alphabets" % where)
        omega = [list(range(m))] * left.n_states
    for u in range(left.n_states):
        lrow = left.delta[u]
        base = [lrow[xi[a]] * nr for a in range(m)]
        conn = omega[u]
        for c in range(nr):
            rrow = right.delta[c]
            expect = tuple(base[a] + rrow[conn[a]] for a in range(m))
            if tuple(delta[u * nr + c]) != expect:
                raise CheckFailure(
                    "%s: product table differs at state %d" % (where, u * nr + c)
                )


def _normal_closure(table, e, g):
    """Smallest normal subgroup containing g, by closing its conjugates."""
    n = len(table)
    inv = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    gens = {table[table[inv[h]][g]][h] for h in range(n)}
    have = {e} | gens
    frontier = list(have)
    while frontier:
        nxt = []
        for x in frontier:
            for y in gens:
                z = table[x][y]
                if z not in have:
                    have.add(z)
                    nxt.append(z)
        frontier = nxt
    return have


def check_simple_group_table(table):
    """Raise unless table[x][g] = x*g is the Cayley table of a simple group."""
    n = len(table)
    if any(len(row) != n for row in table):
        raise CheckFailure("grouplike table is not square")
    idents = [
        e for e in range(n)
        if all(table[e][x] == x and table[x][e] == x for x in range(n))
    ]
    if not idents:
        raise CheckFailure("grouplike table has no identity")
    e = idents[0]
    for x in range(n):
        if sorted(table[x]) != list(range(n)):
            raise CheckFailure("grouplike table has an element without inverse")
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for z in range(n):
                if table[xy][z] != table[x][table[y][z]]:
                    raise CheckFailure("grouplike table is not associative")
    for g in range(n):
        if g != e and len(_normal_closure(table, e, g)) != n:
            raise CheckFailure("group of order %d is not simple" % n)


def check_reset_table(delta):
    """Raise unless delta has two states and every input is identity or constant."""
    if len(delta) != 2:
        raise CheckFailure("reset leaf has %d states, not 2" % len(delta))
    for a in range(len(delta[0])):
        col = (delta[0][a], delta[1][a])
        if col != (0, 1) and col[0] != col[1]:
            raise CheckFailure("reset leaf input %d is neither identity nor constant" % a)


def _walk(node, path, stats):
    where = "node %s" % (path or "root")
    A, w = node.automaton, node.witness
    _check_table(A.delta, A.n_symbols, where)
    if w.upper.delta != A.delta:
        raise CheckFailure("%s: witness does not start at the node's table" % where)
    lower = w.lower
    _check_table(lower.delta, lower.n_symbols, where + " (covered)")
    verdict = witness_verdict(A.delta, lower.delta, w.phi, w.xi)
    if not verdict.is_covering:
        raise CheckFailure("%s: witness rejected: %s" % (where, verdict.reason))
    stats["nodes"] += 1
    stats["cells"] += A.n_states * A.n_symbols
    if isinstance(node, Leaf):
        if node.kind == LEAF_RESET:
            check_reset_table(A.delta)
        elif node.kind == LEAF_GROUPLIKE:
            check_simple_group_table(A.delta)
        elif node.kind == LEAF_RAW:
            stats["raw"] += 1
        else:
            raise CheckFailure("%s: unknown leaf kind %r" % (where, node.kind))
        stats["leaves"].append((node.kind, A.n_states))
        return
    check_product(node, where)
    _walk(node.left, path + "L", stats)
    _walk(node.right, path + "R", stats)


def check_tree(tree, source, rng):
    """Check a decomposition tree of the plain automaton source.

    Returns a summary dict (nodes, cells, raw leaf count, leaves as
    (kind, states) pairs, root states); raises CheckFailure on the first
    broken property.
    """
    stats = {"nodes": 0, "cells": 0, "raw": 0, "leaves": []}
    _walk(tree, "", stats)
    w = tree.witness
    if [list(r) for r in w.lower.delta] != source.delta:
        raise CheckFailure("root witness does not cover the generated input")
    upper = tree.automaton.delta
    dom = [s for s, v in enumerate(w.phi) if v is not None]
    m = len(source.symbols)
    for _ in range(N_WORDS):
        s = rng.choice(dom)
        word = [rng.randrange(m) for _ in range(rng.randint(1, MAX_WORD_LEN))]
        if replay_violates(upper, source.delta, w.phi, w.xi, s, word):
            raise CheckFailure("root replay fails from state %d on %r" % (s, word))
    stats["root_states"] = len(upper)
    return stats
