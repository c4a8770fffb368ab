"""Admissible partitions and decompositions, factors, the complementary-partition
cascade theorem, and Yoeli's auxiliary construction."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import add, index
from typing import Optional

from .algebra import _integer, clamp_label, pair_labels
from .automata import CoveringWitness, Semiautomaton, _unique_labels, cascade_product
from .errors import InvalidInputError


class Decomposition:
    """Nonempty blocks of states covering the state set; overlap is allowed.
    States are integers (operator.index), and a block is read as a set."""

    def __init__(self, n_states: int, blocks):
        self.n_states = _integer(n_states, "state count")
        self.blocks = tuple(tuple(sorted({_integer(s, "state") for s in b})) for b in blocks)
        for b in self.blocks:
            if not b:
                raise InvalidInputError("empty block")
            for s in b:
                if not 0 <= s < self.n_states:
                    raise InvalidInputError("state %d out of range" % s)
        if set(chain.from_iterable(self.blocks)) != set(range(self.n_states)):
            raise InvalidInputError("blocks do not cover the state set")

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def max_block_size(self) -> int:
        return max(len(b) for b in self.blocks)

    def is_partition(self) -> bool:
        return sum(len(b) for b in self.blocks) == self.n_states

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, list(map(list, self.blocks)))


class Partition(Decomposition):
    """A decomposition whose blocks are disjoint, in given block order;
    block_of[s] is the block of state s."""

    def __init__(self, n_states: int, blocks):
        super().__init__(n_states, blocks)
        block_of = [None] * self.n_states
        for i, b in enumerate(self.blocks):
            for s in b:
                if block_of[s] is not None:
                    raise InvalidInputError("state %d appears in two blocks" % s)
                block_of[s] = i
        self.block_of = tuple(block_of)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks


@dataclass(frozen=True)
class FactorChoice:
    """Resolved block targets of a factor, with the cells that were arbitrary."""

    target_block: tuple
    dont_care: frozenset


def _image_of_block(column, block):
    """The images of the block's states, read off one symbol's column."""
    return set(map(column.__getitem__, block))


def is_admissible_partition(A: Semiautomaton, P: Partition) -> bool:
    if P.n_states != A.n_states:
        raise InvalidInputError("partition is over a different state count")
    return is_admissible_decomposition(A, P)


def _containment(A: Semiautomaton, D: Decomposition):
    """Per column class of A, keyed by its first input, the blocks of D that
    hold each block's image, in block order: D is admissible when none of
    these lists is empty."""
    if D.n_states != A.n_states:
        raise InvalidInputError("decomposition is over a different state count")
    sets = [set(b) for b in D.blocks]
    contain = {}
    for c in A._firsts:
        images = map(_image_of_block, repeat(A.column(c)), D.blocks)
        contain[c] = [[j for j, b in enumerate(sets) if img <= b] for img in images]
    return contain


def is_admissible_decomposition(A: Semiautomaton, D: Decomposition) -> bool:
    return all(map(all, _containment(A, D).values()))


def _block_labels(labels, blocks) -> tuple:
    """The state labels of a factor on blocks of states labelled by labels:
    each block's members' labels in braces, clamped to B<position>, renamed."""
    return _unique_labels(
        clamp_label("{%s}" % ",".join(map(labels.__getitem__, b)), "B%d" % i)
        for i, b in enumerate(blocks)
    )


def p_factor(A: Semiautomaton, P: Partition):
    """The quotient B = A/P plus the witness that A covers it (phi = block
    map), built unchecked; verify it before relying on it."""
    if not is_admissible_partition(A, P):
        raise InvalidInputError("partition is not admissible")
    B = _quotient(A, P)
    witness = CoveringWitness._from_parts(A, B, P.block_of, tuple(range(A.n_symbols)))
    return B, witness


def _quotient(A: Semiautomaton, P: Partition) -> Semiautomaton:
    """A/P, for a partition P known to be admissible."""
    heads = [block[0] for block in P.blocks]
    columns = {c: [P.block_of[t] for t in map(A.column(c).__getitem__, heads)] for c in A._firsts}
    labels = _block_labels(A.state_labels, P.blocks)
    return Semiautomaton._from_keys(labels, A.symbol_labels, columns, A._classes)


def d_factor(A: Semiautomaton, D: Decomposition, choice=None):
    """The quotient B = A/D; arbitrary cells go to the lowest admissible block.

    A caller may pass its own choice table [block][symbol] -> block, |D|
    rows of |alphabet| block indices; every entry is still validated
    against the containment condition (_containment, which
    is_admissible_decomposition reads too). B's column a depends only on
    A's column class of a and the choice table's column a, so B is built,
    and the choice validated, once per distinct pair of them. The chain
    builds its factors without a table (pipeline._proof_columns).
    """
    contain = _containment(A, D)
    if not all(map(all, contain.values())):
        raise InvalidInputError("decomposition is not admissible")
    # per column class, the blocks whose image lies in more than one block
    several = {c: [i for i, js in enumerate(bs) if len(js) > 1] for c, bs in contain.items()}
    if choice is None:
        keys = A._classes
        columns = {c: [js[0] for js in blocks] for c, blocks in contain.items()}
    else:
        keys, columns = _chosen_columns(A, D.count, choice, contain)
    B = Semiautomaton._from_keys(_block_labels(A.state_labels, D.blocks), A.symbol_labels, columns, keys)
    # (block, input) for every block of several under the input's class
    dont_care = frozenset(chain.from_iterable(
        map(product, map(several.__getitem__, A._classes), zip(range(A.n_symbols)))
    ))
    n, table = B.n_states, B._table
    return B, FactorChoice(tuple(tuple(table[i::n]) for i in range(n)), dont_care)


def _chosen_columns(A: Semiautomaton, count: int, choice, contain):
    """d_factor's keys, (A's class of a, the choice table's column a) for
    every input a, and the column of B for each key, once choice is count
    rows of |alphabet| block indices, each within containment."""
    m = A.n_symbols
    shape = InvalidInputError(
        "choice table must be %d x %d: one block index per block and symbol" % (count, m)
    )
    try:
        rows = tuple(map(tuple, choice))
    except TypeError:
        raise shape from None
    if len(rows) != count or set(map(len, rows)) - {m}:
        raise shape
    keys = list(zip(A._classes, zip(*rows)))
    columns = {}
    for key in dict.fromkeys(keys):
        try:
            columns[key] = list(map(index, key[1]))
        except TypeError:
            raise shape from None
    outside = [
        key for key, targets in columns.items()
        if not all(map(list.__contains__, contain[key[0]], targets))
    ]
    if outside:
        # the first fault in block order, then input order
        i, a = min(
            (i, keys.index(key))
            for key in outside
            for i, (j, js) in enumerate(zip(columns[key], contain[key[0]]))
            if j not in js
        )
        raise InvalidInputError(
            "choice table sends block %d under symbol %s outside containment"
            % (i, A.symbol_labels[a])
        )
    return keys, columns


def complementary_partition(n_states: int, P: Partition) -> Partition:
    """Q with m(P) blocks meeting every P-block at most once.

    Q_j collects the j-th element (ascending) of every P-block large enough to
    have one, so P meet Q is the finest partition.
    """
    if P.n_states != n_states:
        raise InvalidInputError("partition is over a different state count")
    m = P.max_block_size
    blocks = []
    for j in range(m):
        q = [b[j] for b in P.blocks if len(b) > j]
        blocks.append(q)
    return Partition(n_states, blocks)


def _check_complementary(P: Partition, Q: Partition):
    if Q.n_states != P.n_states:
        raise InvalidInputError("partition is over a different state count")
    if any(len({Q.block_of[s] for s in pb}) < len(pb) for pb in P.blocks):
        raise InvalidInputError("given complement meets a partition block more than once")


@dataclass
class CascadeCover:
    b: Semiautomaton
    c: Semiautomaton
    omega: tuple
    product: Semiautomaton
    witness: CoveringWitness
    dont_care: frozenset
    partition: Partition
    complement: Partition


def cascade_cover_from_partition(A: Semiautomaton, P: Partition, q: Optional[Partition] = None) -> CascadeCover:
    """The two-factor cascade B∘C >= A built from an admissible partition.

    B = A/P tracks the block; C tracks the position inside the block via a
    complementary partition Q (any partition meeting each P-block at most once
    may be passed in as q). C's inputs are the pairs (B-state, symbol); its
    unconstrained cells go to block 0 and are reported as dont_care pairs
    (C-state, C-symbol index). The witness is built unchecked; verify it
    before relying on it.
    """
    B, _ = p_factor(A, P)
    Q = complementary_partition(A.n_states, P) if q is None else q
    _check_complementary(P, Q)
    C, omega, meets = _partition_cover(A, P, Q, B)
    m = A.n_symbols
    missing = [(i, j) for i, states in enumerate(meets) for j, s in enumerate(states) if s is None]
    dont_care = frozenset((j, i * m + a) for i, j in missing for a in range(m))
    product = cascade_product(B, C, omega)
    phi = tuple(chain.from_iterable(meets))
    witness = CoveringWitness._from_parts(product, A, phi, tuple(range(m)))
    return CascadeCover(B, C, omega, product, witness, dont_care, P, Q)


def _partition_cover(A: Semiautomaton, P: Partition, Q: Partition, B: Semiautomaton):
    """(C, omega, meets) of cascade_cover_from_partition, for B = A/P,
    without the product B∘C: meets[i][j] is the unique state in P_i ∩ Q_j,
    or None when they miss, so the cover's phi is meets read row by row."""
    nsym = A.n_symbols
    c_symbols = _unique_labels(pair_labels(product(B.state_labels, A.symbol_labels), "x"))
    meets = []
    for pb in P.blocks:
        pset = set(pb)
        meets.append([next(iter(pset.intersection(qb)), None) for qb in Q.blocks])
    # cell (j, (i,a)): the state meets[i][j] moved by a, read off in Q, once
    # per column class of A: C's input (i, a) is i·|alphabet| + a, keyed by
    # i·|alphabet| + the class of a
    classes = A._classes
    a_columns = [(c, A.column(c)) for c in A._firsts]
    columns_c, keys = {}, []
    for i, states in enumerate(meets):
        for c, col in a_columns:
            columns_c[i * nsym + c] = [0 if s is None else Q.block_of[col[s]] for s in states]
        keys += map(add, classes, repeat(i * nsym))
    C = Semiautomaton._from_keys(_block_labels(A.state_labels, Q.blocks), c_symbols, columns_c, keys)
    omega = tuple(tuple(range(i * nsym, (i + 1) * nsym)) for i in range(B.n_states))
    return C, omega, meets


@dataclass
class YoeliAuxiliary:
    a_star: Semiautomaton
    d_star: Partition
    witness: CoveringWitness
    b_star: Semiautomaton
    states: tuple


def yoeli_auxiliary(A: Semiautomaton, D: Decomposition, factor=None) -> YoeliAuxiliary:
    """State splitting: A* lives on pairs (s, block) with s in the block.

    The second component follows the D-factor B, so the partition D* by second
    component is admissible and B* = A*/D* is B on D*'s block labels; phi
    forgetting the block component makes A* cover A. A given factor is
    (B, choice) as d_factor returns it, or (B, None), and B is checked
    against containment. The witness is built unchecked; verify it first.
    """
    if D.n_states != A.n_states:
        raise InvalidInputError("decomposition is over a different state count")
    B, _ = d_factor(A, D) if factor is None else factor
    if B.n_states != D.count or B.symbol_labels != A.symbol_labels:
        raise InvalidInputError("factor automaton does not match the decomposition")
    sets = [set(b) for b in D.blocks]
    # everything below depends on a symbol's columns in A and B only, so it
    # runs once per pair of column classes
    pairs = list(zip(A._classes, B._classes))
    columns = {pair: (A.column(pair[0]), B.column(pair[1])) for pair in dict.fromkeys(pairs)}
    for i, block in enumerate(D.blocks):
        for pair, (col, b_col) in columns.items():
            if not _image_of_block(col, block) <= sets[b_col[i]]:
                raise InvalidInputError(
                    "factor automaton violates containment at block %d, symbol %s"
                    % (i, A.symbol_labels[pairs.index(pair)])
                )

    states = tuple((s, i) for i, b in enumerate(D.blocks) for s in b)
    index = {pair: k for k, pair in enumerate(states)}
    a_labels, b_labels = A.state_labels, B.state_labels
    labels = _unique_labels(pair_labels(((a_labels[s], b_labels[i]) for s, i in states), "q"))
    star = {
        pair: [index[(col[s], b_col[i])] for s, i in states]
        for pair, (col, b_col) in columns.items()
    }
    a_star = Semiautomaton._from_keys(labels, A.symbol_labels, star, pairs)

    d_star = Partition(
        len(states),
        [[k for k, (s, i) in enumerate(states) if i == j] for j in range(D.count)],
    )
    witness = CoveringWitness._from_parts(
        a_star, A, tuple(s for s, i in states), tuple(range(A.n_symbols))
    )
    labels = _block_labels(labels, d_star.blocks)
    b_columns = {c: B.column(c) for c in B._firsts}
    b_star = Semiautomaton._from_keys(labels, A.symbol_labels, b_columns, B._classes)
    return YoeliAuxiliary(a_star, d_star, witness, b_star, states)


@dataclass
class DecompositionCover:
    b_star: Semiautomaton
    c: Semiautomaton
    omega: tuple
    product: Semiautomaton
    witness: CoveringWitness
    yoeli: YoeliAuxiliary
    factor_choice: FactorChoice


def cascade_cover_from_decomposition(A: Semiautomaton, D: Decomposition, choice=None) -> DecompositionCover:
    """B*∘C >= A for an admissible decomposition, via the auxiliary automaton.

    The witness is built unchecked; verify it before relying on it.
    """
    factor = d_factor(A, D, choice)
    aux = yoeli_auxiliary(A, D, factor)
    # the partition cover of A* by D*, on the auxiliary's own B* = A*/D*,
    # with phi read on through A* >= A, which forgets the block
    Q = complementary_partition(aux.a_star.n_states, aux.d_star)
    C, omega, meets = _partition_cover(aux.a_star, aux.d_star, Q, aux.b_star)
    forget = aux.witness.phi
    phi = tuple(None if k is None else forget[k] for k in chain.from_iterable(meets))
    product = cascade_product(aux.b_star, C, omega)
    witness = CoveringWitness._from_parts(product, A, phi, tuple(range(A.n_symbols)))
    return DecompositionCover(aux.b_star, C, omega, product, witness, aux, factor[1])
