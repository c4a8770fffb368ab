"""Permutation-reset chains, grouplike machinery, and the full Krohn-Rhodes
decomposition tree.

Every constructed covering is kept as an explicit witness; the tree's root
witness proves that the assembled cascade covers the original automaton. Each
node's witness is verified once, by _node where the node is made, and no
other witness is: the ones composed into it along the way are not checked on
their own. split_permutation_reset, cover_permutation_by_grouplike and
grouplike_cascade_split verify the witness each of them returns; the tree is
built through their unchecked bodies, _split, _group_cover and
_coset_split, which build no product: a cascade step's outer cover reaches
_substitute as its parts, phi and xi, so the tree builds only its nodes. A
refined factor's group is closed once, when it is planned
(_permutation_group), and _group_cover builds it, its cover and the split's
Pi from that: Pi is grouplike(K) read through the cover's xi.

A cascade node's witness is made by _substitute from the inner witnesses and
the outer cover, and keeps phi as that composition where the node's product
records its factors; input kinds are read off the flat table
(Semiautomaton._kinds). Work that depends only on an input's
column runs once per column class (Semiautomaton._classes): the kinds, each
chain step's D-factor (_proof_factor), the columns of a split's Pi and R,
and the generators of every group closure.

The chain is planned before any step of it is built. Everything the plan
reads (whether the chain goes on, each factor's states, kinds and group,
the predicted sizes) depends only on each step's distinct columns, so
_class_chain walks the chain with one input per column class, and
_plan_chain plans the tree on those small automata. Only the steps above
the plan's base are then built at full alphabet (_chain_steps, one
_decomposition_cover each), and each kept factor takes its group's closure
from its plan. A chain that ends in a raw leaf builds no step below it;
pr_chain, which returns the whole chain, builds every step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, product
from typing import Optional, Union

from . import automata
from .algebra import CLOSURE_CAP, FiniteMonoid, _cayley_table, _closure, _integer, _word_labels, pair_labels
from .automata import (
    _CONSTANT,
    _IDENTITY,
    _OTHER,
    _PERMUTATION,
    CoveringWitness,
    Semiautomaton,
    _composed_witness,
    _nonnegative,
    _substitute,
    _unique_labels,
    cascade_product,
    direct_product,
    identity_witness,
    verify_covering,
)
from .errors import (
    InvalidInputError,
    NotPermutationResetError,
    ResourceCapError,
    WitnessError,
)
from .groups import (
    SUBGROUP_CAP,
    CosetPartition,
    FiniteGroup,
    _maximal_normal_subgroup,
    coset_partition,
    factor_group,
    subgroup_as_group,
)
from .partitions import (
    Decomposition,
    Partition,
    _block_labels,
    _decomposition_cover,
    _quotient,
    complementary_partition,
)


@dataclass(frozen=True)
class Caps:
    """Resource guards; breaches become raw leaves, not crashes.

    krohn_rhodes_decompose checks them on planned sizes before construction,
    so a breach builds nothing. Each cap is converted by _integer, and one
    that is not an integer or is negative raises InvalidInputError.
    """

    group_order: int = SUBGROUP_CAP
    product_states: int = 500_000

    def __post_init__(self):
        for name, cap in vars(self).items():
            cap = _integer(cap, "cap %s" % name)
            if cap < 0:
                raise InvalidInputError("cap %s of %d is negative" % (name, cap))
            object.__setattr__(self, name, cap)


class InputClass(enum.Enum):
    PERMUTATION = "permutation"
    RESET = "reset"
    OTHER = "other"


_PERMUTATIONS = frozenset((_IDENTITY, _PERMUTATION))
_CLASS_OF_KIND = {
    _IDENTITY: InputClass.PERMUTATION,
    _PERMUTATION: InputClass.PERMUTATION,
    _CONSTANT: InputClass.RESET,
    _OTHER: InputClass.OTHER,
}


def classify_inputs(A: Semiautomaton):
    """Per-symbol class; a permutation (including the identity) wins over reset."""
    return dict(zip(A.symbol_labels, map(_CLASS_OF_KIND.__getitem__, A._kinds)))


def is_permutation(A: Semiautomaton) -> bool:
    return _PERMUTATIONS.issuperset(A._kinds)


def is_reset(A: Semiautomaton) -> bool:
    """Every input is the identity or a constant map."""
    return {_IDENTITY, _CONSTANT}.issuperset(A._kinds)


def is_permutation_reset(A: Semiautomaton) -> bool:
    return _OTHER not in A._kinds


LEAF_GROUPLIKE = "simple-grouplike"
LEAF_RESET = "two-state-reset"
LEAF_RAW = "raw"


@dataclass(frozen=True)
class Leaf:
    kind: str
    automaton: Semiautomaton
    witness: CoveringWitness
    group: Optional[FiniteGroup] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class CascadeNode:
    left: "Node"
    right: "Node"
    omega: tuple
    automaton: Semiautomaton
    witness: CoveringWitness


@dataclass(frozen=True)
class DirectNode:
    left: "Node"
    right: "Node"
    automaton: Semiautomaton
    witness: CoveringWitness


Node = Union[Leaf, CascadeNode, DirectNode]


def leaves(node):
    if isinstance(node, Leaf):
        yield node
    else:
        yield from leaves(node.left)
        yield from leaves(node.right)


def iter_nodes(node):
    yield node
    if not isinstance(node, Leaf):
        yield from iter_nodes(node.left)
        yield from iter_nodes(node.right)


def is_complete(node) -> bool:
    return all(leaf.kind != LEAF_RAW for leaf in leaves(node))


def _require(result, context):
    if not result:
        raise WitnessError("%s: %s" % (context, result.reason))


def _node(context, make, *args, **kwargs) -> Node:
    """make(*args, **kwargs), a Leaf, CascadeNode or DirectNode, once its
    witness verifies: the one place where the pipeline checks a witness."""
    node = make(*args, **kwargs)
    _require(verify_covering(node.witness), context)
    return node


def _raw_leaf(A: Semiautomaton, reason: str) -> Leaf:
    return _node("raw leaf", Leaf, LEAF_RAW, A, identity_witness(A), reason=reason)


def grouplike_of(G: FiniteGroup) -> Semiautomaton:
    """States and inputs are the group; transitions are right multiplications."""
    labels = _unique_labels(G.labels)
    # input g's column is right multiplication by g
    return Semiautomaton._from_keys(labels, labels, dict(enumerate(zip(*G.table))), range(G.order))


def cover_permutation_by_grouplike(pi: Semiautomaton):
    """The grouplike cover of a permutation semiautomaton in regular form.

    Expects the states to be the elements of the automaton's own transition
    group in closure order (as split_permutation_reset produces); phi is then
    the identity and each input maps to the group element acting like it.
    """
    if not is_permutation(pi):
        raise InvalidInputError("not a permutation semiautomaton")
    group = _permutation_group(pi, Caps(group_order=CLOSURE_CAP))
    if len(group[2]) != pi.n_states:
        raise InvalidInputError(
            "states do not form the transition group: %d states, group order %d"
            % (pi.n_states, len(group[2]))
        )
    G, w = _group_cover(pi, *group)
    witness = CoveringWitness._from_parts(w.upper, pi, w.phi, w.xi)
    _require(verify_covering(witness), "grouplike cover of the permutation automaton")
    return G, witness


def _group_cover(A: Semiautomaton, const, perms, elements, index, words):
    """(K, the unchecked cover grouplike(K) >= Pi) from _permutation_group
    on A: K's table is read off the closure's elements and its labels are
    their words, rendered over A's labels of the generators (perms' keys);
    xi sends an input of A to its class's permutation as an element of K,
    a reset to the identity, and Pi, the permutation factor of A's split,
    is grouplike(K) read through xi on A's inputs, so phi is the
    identity."""
    labels = _word_labels(words, [A.symbol_labels[c] for c in perms])
    G = FiniteGroup(FiniteMonoid(labels, _cayley_table(elements, index), 0, check=False))
    glike = grouplike_of(G)
    xi = {c: index[perms[c].image] if to is None else 0 for c, to in const.items()}
    columns = {c: glike.column(x) for c, x in xi.items()}
    pi = Semiautomaton._from_keys(glike.state_labels, A.symbol_labels, columns, A._classes)
    xi = tuple(map(xi.__getitem__, A._classes))
    return G, CoveringWitness._from_parts(glike, pi, tuple(range(G.order)), xi)


@dataclass
class PRSplit:
    pi: Semiautomaton
    r: Semiautomaton
    omega: tuple
    product: Semiautomaton
    witness: CoveringWitness


def _permutation_group(A: Semiautomaton, caps: Caps):
    """(const, perms, elements, index, words) of a permutation-reset
    automaton: the reset target of every column class (None for a
    permutation), the Transformation of every permutation class, each keyed
    by the class's first input, and the elements of the group K that they
    generate, in closure order, with their positions by image and their
    witness words over perms, in key order.

    Raises ResourceCapError when K outgrows the closure or group-order cap,
    before anything but its elements is built: K, its labels and its table
    are built from them by _group_cover, and only for a factor that gets
    refined. Nothing here reads a label, so a closure planned on A's column
    classes (_class_chain) serves the automaton at full alphabet once its
    keys are carried over (_refine_factor).
    """
    kinds = A._kinds
    if _OTHER in kinds:
        raise NotPermutationResetError(
            "input %s is neither a permutation nor a reset"
            % A.symbol_labels[kinds.index(_OTHER)]
        )
    n, table, firsts = A.n_states, A._table, A._firsts
    const = {c: table[c * n] if kinds[c] == _CONSTANT else None for c in firsts}
    # the classes' first inputs generate K, as all of them do (transition_monoid)
    perms = {c: A.symbol_transformation(c) for c in firsts if const[c] is None}
    elements, words, index = _closure(list(perms.values()), n, CLOSURE_CAP)
    if len(elements) > caps.group_order:
        raise ResourceCapError(
            "permutation group of order %d exceeds the cap of %d"
            % (len(elements), caps.group_order)
        )
    return const, perms, elements, index, words


def split_permutation_reset(A: Semiautomaton, caps: Caps = Caps()) -> PRSplit:
    """Factor a permutation-reset automaton as Pi∘R >= A.

    Pi is the group generated by the permutation inputs acting on itself by
    right multiplication; reset inputs leave it in place. R remembers the
    actual state as seen from Pi's frame: a reset to c lands R in c shifted
    back by the inverse of the accumulated permutation, and phi replays the
    permutation on top of R's state.
    """
    const, _, elements, _, _ = group = _permutation_group(A, caps)
    pi = _group_cover(A, *group)[1].lower
    r, omega, phi = _split(A, pi, const, elements)
    product = cascade_product(pi, r, omega)
    witness = CoveringWitness._from_parts(product, A, phi, tuple(range(A.n_symbols)))
    _require(verify_covering(witness), "permutation-reset split")
    return PRSplit(pi, r, omega, product, witness)


def _split(A: Semiautomaton, pi: Semiautomaton, const, elements):
    """(R, omega, phi) of split_permutation_reset, without the product
    Pi∘R, for Pi made by _group_cover from _permutation_group(A)'s const
    and elements."""
    n, m = A.n_states, A.n_symbols
    nk = len(elements)

    # every block of R's columns is computed once per column class of A and
    # shared by the inputs of the class
    classes = A._classes
    r_symbols = _unique_labels(pair_labels(product(pi.state_labels, A.symbol_labels), "x"))
    # R's symbol (x, a) keeps a permutation input's state and sends a reset
    # to c to c shifted back by the inverse of x: its key is None or that
    # state
    keys = []
    for t in elements:
        inverse = t.inverse().image
        target = {c: None if to is None else inverse[to] for c, to in const.items()}
        keys += map(target.__getitem__, classes)
    columns_r = {to: range(n) if to is None else [to] * n for to in set(keys)}
    r = Semiautomaton._from_keys(A.state_labels, r_symbols, columns_r, keys)

    omega = tuple(tuple(range(x * m, (x + 1) * m)) for x in range(nk))
    phi = tuple(chain.from_iterable(t.image for t in elements))
    return r, omega, phi


@dataclass
class ResetFactorization:
    factors: list
    tree: Node

    @property
    def product(self) -> Semiautomaton:
        return self.tree.automaton

    @property
    def witness(self) -> CoveringWitness:
        return self.tree.witness


def _two_state_identity_cover(A: Semiautomaton) -> Leaf:
    two = Semiautomaton._from_keys(("r0", "r1"), A.symbol_labels, {0: (0, 1)}, [0] * A.n_symbols)
    witness = CoveringWitness._from_parts(two, A, (0, 0), tuple(range(A.n_symbols)))
    return _node("two-state cover of a one-state automaton", Leaf, LEAF_RESET, two, witness)


def reset_to_two_state(R: Semiautomaton) -> ResetFactorization:
    """Cover a reset automaton by a direct product of two-state reset automata.

    Splits the states X into two balanced blocks P_0, P_1; the block quotient
    B = X/P is one factor and the quotient by the complementary partition Q
    carries the rest, halving the state count each round. Every partition of
    a reset automaton is admissible, so both quotients always exist, and are
    taken with no admissibility check (partitions._quotient). Each
    level is the one product B × V, where V covers X/Q with phi_V, and
    phi(i, v) is the point where P_i meets Q_phi_V(v): the phi_V(v)-th state
    of P_i, or None when P_i is too short or phi_V(v) is None. That is P_i,
    as a row map over X/Q's states, after phi_V, and the level's witness
    keeps it so, as _substitute's do (automata._composed_witness).
    """
    if not is_reset(R):
        raise InvalidInputError("not a reset semiautomaton")

    def build(X: Semiautomaton) -> Node:
        nx = X.n_states
        if nx == 1:
            return _two_state_identity_cover(X)
        if nx == 2:
            return _node("two-state reset leaf", Leaf, LEAF_RESET, X, identity_witness(X))
        half = (nx + 1) // 2
        P = Partition(nx, [range(half), range(half, nx)])
        B = _quotient(X, P)
        rest = _quotient(X, complementary_partition(nx, P))
        sub = build(rest)
        product = direct_product(B, sub.automaton)
        # Q's block j < half holds the j-th state of each P-block long enough to have one
        rows = [tuple(pb[v] if v < len(pb) else None for v in range(half)) for pb in P.blocks]
        xi = tuple(range(X.n_symbols))
        witness = _composed_witness(product, X, range(2), rows, sub.witness, xi)
        left = _node("two-state reset leaf", Leaf, LEAF_RESET, B, identity_witness(B))
        return _node("two-state reset factorization", DirectNode, left, sub, product, witness)

    tree = build(R)
    return ResetFactorization([leaf.automaton for leaf in leaves(tree)], tree)


@dataclass
class ChainStep:
    source: Semiautomaton
    b: Semiautomaton
    c: Semiautomaton
    omega: tuple
    phi: tuple


@dataclass
class PRChain:
    factors: list
    steps: list
    cascade: Semiautomaton
    witness: CoveringWitness


def _proof_columns(X: Semiautomaton) -> dict:
    """The D-factor's column of each column class of X, keyed by its first
    input, for D the (n-1)-subsets of X's states, block i leaving out state
    i: a permutation permutes the blocks along itself; anything else resets
    every block to the lowest block containing the whole image."""
    n, table, kinds = X.n_states, X._table, X._kinds
    columns = {}
    for c in X._firsts:
        image = table[c * n:(c + 1) * n]
        if kinds[c] not in _PERMUTATIONS:
            image = [min(set(range(n)).difference(image))] * n
        columns[c] = image
    return columns


def _proof_factor(X: Semiautomaton, D: Decomposition) -> Semiautomaton:
    """The D-factor of the chain theorem's proof (_proof_columns), each
    column made once per class, on D's block labels."""
    labels = _block_labels(X, D.blocks)
    return Semiautomaton._from_keys(labels, X.symbol_labels, _proof_columns(X), X._classes)


def _chain_steps(A: Semiautomaton, count: Optional[int] = None):
    """The first count steps of pr_chain (all of them by default) and the
    continuation after them, without the assembled cascade. Every factor is
    permutation-reset with no test: each B* is a _proof_factor, and the loop
    stops at a permutation-reset continuation."""
    if A.n_states < 2:
        raise InvalidInputError("chain needs at least two states")
    steps = []
    X = A
    while len(steps) != count and not is_permutation_reset(X):
        n = X.n_states
        D = Decomposition(n, [sorted(set(range(n)) - {i}) for i in range(n)])
        aux, C, omega, phi = _decomposition_cover(X, D, (_proof_factor(X, D), None))
        steps.append(ChainStep(X, aux.b_star, C, omega, phi))
        X = C
    return steps, X


def _class_chain(A: Semiautomaton):
    """(factors, last) of the chain on column classes: _chain_steps' sources
    X and factors B, as (X, B) pairs, and its last continuation. The first
    source is A itself, and every automaton after it has one input per
    column class of the automaton _chain_steps builds, in the order of its
    _firsts, so that _plan_chain plans the same tree on them.

    The work is per class, never per input. C's state j is the j-th state
    (j + (j >= i), i) of each block i of the step's auxiliary automaton
    (partitions.yoeli_auxiliary), and C's input (i, a) moves it to (t, k),
    with t the image of j + (j >= i) under a and k = B(i, a): the
    (t - (t > k))-th state of block k. So the column of (i, a) depends on
    a's class only, and C's classes in first-occurrence order over the
    inputs (i, a) are the distinct columns over the pairs (i, class of a)
    in that order."""
    n = A.n_states
    columns = [A._table[c * n:(c + 1) * n] for c in A._firsts]
    X = A
    factors = []
    while not is_permutation_reset(X):
        b_columns = _proof_columns(X)
        B = Semiautomaton._from_keys(range(n), X.symbol_labels, b_columns, X._classes)
        factors.append((X, B))
        # t - (t > k) for every state t, per block k
        shifts = [tuple(t - (t > k) for t in range(n)) for k in range(n)]
        following = {}
        for i in range(n):
            for col, b_col in zip(columns, b_columns.values()):
                kept = col[:i] + col[i + 1:]
                following.setdefault(tuple(map(shifts[b_col[i]].__getitem__, kept)))
        columns, n = list(following), n - 1
        # one input per distinct column, labelled by position: only the
        # plan reads it
        keys = range(len(columns))
        X = Semiautomaton._from_keys(range(n), keys, columns, keys)
    return factors, X


def pr_chain(A: Semiautomaton) -> PRChain:
    """Iterated cascade of permutation-reset factors covering A.

    Repeatedly applies the decomposition into all (n-1)-element state subsets
    until the continuation is itself permutation-reset; with the proof's block
    choice every factor comes out permutation-reset, and each step shrinks the
    continuation by one state, so at most n-1 factors appear. The cascade is
    assembled as krohn_rhodes_decompose assembles its chain, each factor
    covered by itself, and its witness is verified once.
    """
    steps, X = _chain_steps(A)
    witness = identity_witness(X)
    for st in reversed(steps):
        witness = _chain_cascade(st, identity_witness(st.b), witness).witness
    _require(verify_covering(witness), "permutation-reset chain")
    return PRChain([st.b for st in steps] + [X], steps, witness.upper, witness)


def _chain_cascade(st: ChainStep, w_b: CoveringWitness, w_c: CoveringWitness):
    """The Substitution that covers chain step st's source by the cascade of
    w_b's upper over w_c's, where w_b covers the step's B and w_c its C."""
    X = st.source
    return _substitute(st.b, st.c, st.omega, w_b, w_c, st.phi, range(X.n_symbols), X)


@dataclass
class GrouplikeSplit:
    b: Semiautomaton
    c_prime: Semiautomaton
    h_group: FiniteGroup
    omega: tuple
    product: Semiautomaton
    witness: CoveringWitness
    cosets: CosetPartition


def grouplike_cascade_split(G: FiniteGroup, H) -> GrouplikeSplit:
    """Cover grouplike(G) by B∘C' with B the right-coset factor and C' = grouplike(H).

    The complementary partition consists of the sets hT over the transversal T,
    so coset i, H·t_i, meets the block hT in the single point h·t_i, and
    phi(i, h) = h·t_i. B in coset i under g moves C' by the H-part of t_i·g,
    which identifies the partition cascade's second factor with grouplike(H)
    driven through that connection.
    """
    glike = grouplike_of(G)
    b, c_prime, omega, phi, h_group, cp = _coset_split(glike, G, H)
    product = cascade_product(b, c_prime, omega)
    witness = CoveringWitness._from_parts(product, glike, phi, tuple(range(G.order)))
    _require(verify_covering(witness), "coset split of the grouplike automaton")
    return GrouplikeSplit(b, c_prime, h_group, omega, product, witness, cp)


def _coset_split(glike: Semiautomaton, G: FiniteGroup, H):
    """(B, C', omega, phi, H as a group, cosets) of grouplike_cascade_split,
    with glike = grouplike(G), without the product B∘C'."""
    cp = coset_partition(G, H)
    h_group, h_elems = subgroup_as_group(G, H)
    # the right cosets of a subgroup are an admissible partition of
    # grouplike(G), so B is their quotient with no admissibility check
    b = _quotient(glike, Partition(G.order, [cp.block(i) for i in range(cp.count)]))

    c_prime = grouplike_of(h_group)
    h_index = {h: j for j, h in enumerate(h_elems)}
    omega = []
    for i in range(cp.count):
        row = []
        for g in range(G.order):
            x = G.mul(cp.transversal[i], g)
            rep = cp.transversal[cp.cosets[x]]
            row.append(h_index[G.mul(x, G.inv(rep))])
        omega.append(row)
    omega = tuple(tuple(r) for r in omega)
    phi = tuple(G.mul(h, t) for t in cp.transversal for h in h_elems)
    return b, c_prime, omega, phi, h_group, cp


def grouplike_to_simple_cascade(
    G: FiniteGroup, caps: Caps = Caps(), cover: Optional[CoveringWitness] = None
) -> Node:
    """Cascade of simple grouplike leaves covering grouplike(G), one leaf per
    composition factor. Given cover, a witness grouplike(G) >= X, the root
    covers X through it; the default is the identity cover of grouplike(G).
    G is simple when its largest proper normal subgroup H is None or trivial,
    and otherwise H is maximal normal, so G/H is simple with no test."""
    if G.order > caps.group_order:
        raise ResourceCapError(
            "group of order %d exceeds the cap of %d" % (G.order, caps.group_order)
        )
    if cover is None:
        cover = identity_witness(grouplike_of(G))
    elif tuple(cover.upper.table) != tuple(chain.from_iterable(zip(*G.table))):
        raise InvalidInputError("cover does not start at the grouplike automaton of G")
    glike = cover.upper
    H = _maximal_normal_subgroup(G, range(G.order), caps.group_order)
    if H is None or len(H) == 1:
        return _node("simple grouplike leaf", Leaf, LEAF_GROUPLIKE, glike, cover, group=G)

    quotient = factor_group(G, H)
    b, c_prime, omega, phi, h_group, cp = _coset_split(glike, G, H)
    glq = grouplike_of(quotient)
    w_leaf = CoveringWitness._from_parts(glq, b, tuple(range(quotient.order)), cp.cosets)
    leaf = _node("grouplike quotient leaf", Leaf, LEAF_GROUPLIKE, glq, w_leaf, group=quotient)

    inner = grouplike_to_simple_cascade(h_group, caps, identity_witness(c_prime))
    # the split's xi is the identity, so the root's xi is the cover's
    phi = tuple(map(cover.phi.__getitem__, phi))
    sub = _substitute(b, c_prime, omega, w_leaf, inner.witness, phi, cover.xi, cover.lower)
    return _node("coset cascade", CascadeNode, leaf, inner, sub.omega, sub.product, sub.witness)


def _reset_states(n: int) -> int:
    """States of reset_to_two_state's cover of an n-state reset automaton."""
    return 2 if n <= 2 else 2 * _reset_states((n + 1) // 2)


@dataclass(frozen=True)
class _Plan:
    """A node of the tree before it is built: the automaton it covers, or
    one with that automaton's column classes (_class_chain), its
    predicted state count, the breached cap if it stays a raw leaf, and, for
    a factor that gets split, its group's closure (_permutation_group), from
    which _refine_factor builds the group and its cover (_group_cover)."""

    automaton: Semiautomaton
    states: int
    reason: Optional[str] = None
    group: Optional[tuple] = None


def _plan_factor(B: Semiautomaton, caps: Caps) -> _Plan:
    """The plan of _refine_factor on B, or a raw leaf: a reset factor gives
    R(n) states, any other one |K|·R(n), where K is the group its permutation
    inputs generate and R(n) the size of the two-state reset cover."""
    if is_reset(B):
        return _Plan(B, _reset_states(B.n_states))
    try:
        group = _permutation_group(B, caps)
    except ResourceCapError as exc:
        return _Plan(B, B.n_states, str(exc))
    states = len(group[2]) * _reset_states(B.n_states)
    reason = _breach("split", states, caps)
    return _Plan(B, B.n_states, reason) if reason else _Plan(B, states, group=group)


def _breach(kind: str, states: int, caps: Caps) -> Optional[str]:
    """Why a planned product (kind "split" or "chain") of this many states is
    not built, or None: it exceeds the cap, or the most states a table holds
    (automata._STATE_LIMIT, read at each call as _product reads it)."""
    if states > caps.product_states:
        return "%s product of %d states exceeds the cap of %d" % (kind, states, caps.product_states)
    if states > automata._STATE_LIMIT:
        return "%s product of %d states exceeds the table limit of %d states" % (
            kind, states, automata._STATE_LIMIT)
    return None


def _plan_chain(factors, last: Semiautomaton, caps: Caps):
    """The chain's cap rules, bottom up, on predicted sizes, for factors the
    (source, B) pair of every chain step and last the chain's last
    continuation, at full alphabet or on column classes (_class_chain).

    Returns (base, above): base plans the innermost node to build, which is
    the refined last factor or the raw leaf of the outermost step that breaches
    the chain cap; above lists (plan of its refined factor, predicted node
    size) for each chain step over it, innermost first. Those are the chain's
    first len(above) steps, so base covers the source of the next one, or
    last.
    """
    base = _plan_factor(last, caps)
    states = base.states
    above = []
    for source, b in reversed(factors):
        left = None
        product = b.n_states * states
        if _breach("chain", product, caps) is None:
            left = _plan_factor(b, caps)
            product = left.states * states
        reason = _breach("chain", product, caps)
        if reason is not None:
            base = _Plan(source, source.n_states, reason)
            states = base.states
            above = []
        else:
            above.append((left, product))
            states = product
    return base, above


def _as_planned(node: Node, states: int) -> Node:
    if node.automaton.n_states != states:
        raise RuntimeError(
            "built a %d-state node where the plan predicted %d states"
            % (node.automaton.n_states, states)
        )
    return node


def _build(plan: _Plan, X: Semiautomaton, caps: Caps) -> Node:
    """The node plan makes of X, the automaton plan.automaton stands for:
    X itself, or X at full alphabet where the plan was made on X's column
    classes."""
    if plan.reason is not None:
        return _raw_leaf(X, plan.reason)
    return _as_planned(_refine_factor(plan, X, caps), plan.states)


def _refine_factor(plan: _Plan, B: Semiautomaton, caps: Caps) -> Node:
    """Tree covering the permutation-reset factor B: a reset automaton,
    planned with no group, goes straight to two-state factors, everything
    else through the Pi∘R split on the group the plan generated, its keys
    carried from the planned automaton's classes to B's, whose distinct
    columns come in the same order. The caps were checked by _plan_factor."""
    if plan.group is None:
        return reset_to_two_state(B).tree
    key = dict(zip(plan.automaton._firsts, B._firsts, strict=True))
    const, perms, elements, index, words = plan.group
    const = {key[c]: to for c, to in const.items()}
    perms = {key[c]: t for c, t in perms.items()}
    G, w_g = _group_cover(B, const, perms, elements, index, words)
    pi = w_g.lower
    r, omega, phi = _split(B, pi, const, elements)
    g_tree = grouplike_to_simple_cascade(G, caps, w_g)
    r_tree = reset_to_two_state(r).tree
    sub = _substitute(pi, r, omega, g_tree.witness, r_tree.witness, phi, range(B.n_symbols), B)
    return _node(
        "permutation-reset factor", CascadeNode, g_tree, r_tree, sub.omega, sub.product, sub.witness
    )


def krohn_rhodes_decompose(A: Semiautomaton, caps: Caps = Caps()) -> Node:
    """Decomposition tree whose leaves are simple grouplike or two-state reset
    semiautomata (or raw components naming the breached cap), with a root
    witness covering A.

    The chain is planned on its column classes (_class_chain), where every
    cap is checked on predicted sizes (_plan_chain). Only then are the steps
    the plan keeps built at full alphabet (_chain_steps), each factor's group
    taken from its plan, so only the tree nodes the caps allow are built,
    and no chain step below a raw leaf.
    """
    if A.n_states == 1:
        return _two_state_identity_cover(A)
    base, above = _plan_chain(*_class_chain(A), caps)
    steps, X = _chain_steps(A, len(above))
    node = _build(base, X, caps)
    for st, (plan, states) in zip(reversed(steps), above):
        left = _build(plan, st.b, caps)
        sub = _chain_cascade(st, left.witness, node.witness)
        node = _node("chain step", CascadeNode, left, node, sub.omega, sub.product, sub.witness)
        node = _as_planned(node, states)
    return node


def verify_tree(tree: Node, sim_len: int = 6):
    """Verify every node witness, which includes the root's word simulation
    to length sim_len. Returns (ok, list of (node, result)): one entry per
    node in iter_nodes order.

    The simulation verdict is read from the root's law check, not
    recomputed: simulation_counterexample is the one-symbol law check that
    verify_covering runs on the root witness, so once that verifies no word
    of any length breaks it, and sim_len changes nothing here but a negative
    sim_len, which raises InvalidInputError. Node automata
    are products, whose cells are states by construction (Semiautomaton), so
    no table is scanned again before the law check reads it.

    krohn_rhodes_decompose has already verified each node witness once, where
    the node was made; verify_tree replays those checks on a tree from
    anywhere, and io.tree_report builds its report from this one call. A
    replayed check reuses the descent its witness kept from the first
    (automata._law_violation), and compares every cell again.
    """
    _nonnegative("sim_len", sim_len)
    results = [(node, verify_covering(node.witness)) for node in iter_nodes(tree)]
    return all(res for _, res in results), results


def canonical_group_key(G: FiniteGroup):
    """(order, abelian, canonical table) for cyclic groups; the table slot falls
    back to the element-order multiset otherwise. A cyclic group of order n
    is Z_n, whose table, in the powers of any generator, is (i + j) % n."""
    n = G.order
    if any(G.element_order(g) == n for g in range(n)):
        return (n, True, tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))
    orders = tuple(sorted(G.element_order(x) for x in range(n)))
    return (n, G.is_abelian(), orders)


def leaf_description(leaf: Leaf) -> str:
    if leaf.kind == LEAF_GROUPLIKE:
        flavor = "abelian" if leaf.group.is_abelian() else "nonabelian"
        return "simple grouplike: order %d, %s" % (leaf.group.order, flavor)
    if leaf.kind == LEAF_RESET:
        return "two-state reset"
    return "raw component: %s" % (leaf.reason or "unrefined")


def summarize_leaves(tree: Node):
    """Leaf descriptions with counts; isomorphic grouplike leaves are merged."""
    counts = {}
    order = []
    for leaf in leaves(tree):
        if leaf.kind == LEAF_GROUPLIKE:
            key = (LEAF_GROUPLIKE, canonical_group_key(leaf.group))
        elif leaf.kind == LEAF_RESET:
            key = (LEAF_RESET,)
        else:
            key = (LEAF_RAW, leaf.reason)
        if key not in counts:
            counts[key] = [leaf_description(leaf), 0]
            order.append(key)
        counts[key][1] += 1
    return [(counts[k][0], counts[k][1]) for k in order]
