"""The decomposition pipeline end to end, from input classes to the full tree."""

import dataclasses
import json
import os
import pickle
import random
import sys
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krcascade import _lawcheck, automata, groups, partitions, pipeline
from krcascade import (
    Caps,
    CoveringWitness,
    FiniteGroup,
    InputClass,
    InvalidInputError,
    LEAF_GROUPLIKE,
    LEAF_RAW,
    LEAF_RESET,
    Leaf,
    NotPermutationResetError,
    Partition,
    ResourceCapError,
    Semiautomaton,
    Transformation,
    WitnessError,
    canonical_group_key,
    cascade_cover_from_partition,
    cascade_product,
    classify_inputs,
    closure_generate,
    complementary_partition,
    compose_coverings,
    coset_partition,
    cover_permutation_by_grouplike,
    direct_product,
    enumerate_subgroups,
    grouplike_cascade_split,
    grouplike_of,
    grouplike_to_simple_cascade,
    group_from_table,
    is_complete,
    is_permutation,
    is_permutation_reset,
    is_reset,
    is_simple,
    identity_witness,
    iter_nodes,
    krohn_rhodes_decompose,
    leaf_description,
    leaves,
    p_factor,
    pr_chain,
    render_tree_text,
    reset_to_two_state,
    simulation_counterexample,
    split_permutation_reset,
    subgroup_as_group,
    substitute,
    summarize_leaves,
    tree_report,
    verify_covering,
    verify_tree,
)
from conftest import product_state_labels
from test_tree_digest import _expected, _load_script


def cyclic(n):
    return group_from_table([[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric_3():
    m = closure_generate(
        [Transformation([1, 0, 2]), Transformation([1, 2, 0])], domain_size=3
    )
    return FiniteGroup(m)


def test_classify_inputs(five_state, five_pr, sa3):
    assert classify_inputs(five_state) == {
        "a": InputClass.PERMUTATION,
        "b": InputClass.OTHER,
    }
    assert classify_inputs(five_pr) == {
        "a": InputClass.PERMUTATION,
        "b": InputClass.RESET,
    }
    assert classify_inputs(sa3) == {"a": InputClass.RESET, "b": InputClass.OTHER}


def test_input_predicates(five_state, five_pr, sa3):
    assert is_permutation_reset(five_pr)
    assert not is_permutation(five_pr)
    assert not is_reset(five_pr)
    assert not is_permutation_reset(five_state)
    assert not is_permutation_reset(sa3)
    # the identity input counts as a reset-automaton input
    idle = Semiautomaton(["1", "2"], ["i", "r"], [[0, 0], [1, 0]])
    assert is_reset(idle)
    assert is_permutation(grouplike_of(cyclic(3)))


def test_pr_chain(five_state):
    chain = pr_chain(five_state)
    assert [b.n_states for b in chain.factors] == [5, 4, 3, 2]
    for b in chain.factors:
        assert is_permutation_reset(b)
    first = chain.factors[0]
    assert [first.delta[i][0] for i in range(5)] == [1, 2, 3, 4, 0]
    assert [first.delta[i][1] for i in range(5)] == [0, 0, 0, 0, 0]

    shapes = []
    for st in chain.steps:
        # each step's phi covers its source by the step's own B∘C
        product = cascade_product(st.b, st.c, st.omega)
        xi = range(st.source.n_symbols)
        assert verify_covering(CoveringWitness(product, st.source, st.phi, xi))
        shapes.append(
            (st.source.n_states, st.source.n_symbols, st.c.n_states, st.c.n_symbols, product.n_states)
        )
    assert shapes == [(5, 2, 4, 10, 20), (4, 10, 3, 40, 12), (3, 40, 2, 120, 6)]

    assert chain.cascade.n_states == 120
    assert chain.witness.upper is chain.cascade
    assert chain.witness.lower is five_state
    assert chain.witness.xi == (0, 1)
    assert verify_covering(chain.witness)
    assert simulation_counterexample(chain.witness, 4) is None


def test_pr_chain_trivial_cases(five_pr):
    chain = pr_chain(five_pr)
    assert chain.factors == [five_pr]
    assert chain.steps == []
    assert chain.cascade is five_pr
    with pytest.raises(InvalidInputError):
        pr_chain(Semiautomaton(["1"], ["a"], [[0]]))


def test_split_permutation_reset(five_pr):
    split = split_permutation_reset(five_pr)
    assert split.pi.state_labels == ("ε", "a", "aa", "aaa", "aaaa")
    assert [split.pi.delta[x][0] for x in range(5)] == [1, 2, 3, 4, 0]
    assert [split.pi.delta[x][1] for x in range(5)] == [0, 1, 2, 3, 4]

    assert split.r.n_symbols == 10
    assert split.r.symbol_labels[:4] == ("(ε,a)", "(ε,b)", "(a,a)", "(a,b)")
    for x in range(5):
        perm_col = [split.r.delta[s][x * 2] for s in range(5)]
        assert perm_col == [0, 1, 2, 3, 4]
    reset_to = [split.r.delta[0][x * 2 + 1] for x in range(5)]
    assert reset_to == [0, 4, 3, 2, 1]
    for x, c in enumerate(reset_to):
        assert [split.r.delta[s][x * 2 + 1] for s in range(5)] == [c] * 5

    assert split.product.n_states == 25
    assert verify_covering(split.witness)
    assert simulation_counterexample(split.witness, 5) is None


def test_split_rejects_other_inputs(five_state):
    with pytest.raises(NotPermutationResetError):
        split_permutation_reset(five_state)


def test_split_group_cap():
    # a transposition and a 5-cycle generate all 120 permutations
    big = Semiautomaton.from_columns(
        [str(i) for i in range(5)],
        ["t", "c"],
        [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],
    )
    with pytest.raises(ResourceCapError):
        split_permutation_reset(big)
    split = split_permutation_reset(big, Caps(group_order=120))
    assert split.pi.n_states == 120


def test_grouplike_of(klein):
    g = grouplike_of(klein)
    assert g.n_states == 4
    assert g.state_labels == ("e", "a", "b", "c")
    assert g.symbol_labels == ("e", "a", "b", "c")
    assert [list(r) for r in g.delta] == [list(r) for r in klein.table]


def test_cover_permutation_by_grouplike(five_pr):
    split = split_permutation_reset(five_pr)
    G, w = cover_permutation_by_grouplike(split.pi)
    assert G.order == 5
    assert is_simple(G)
    assert w.xi == (1, 0)
    assert w.phi == (0, 1, 2, 3, 4)
    assert verify_covering(w)


def test_cover_permutation_rejections(sa3):
    with pytest.raises(InvalidInputError):
        cover_permutation_by_grouplike(sa3)
    # two states but only the identity acts: monoid order 1, not 2
    idle = Semiautomaton(["1", "2"], ["i"], [[0], [1]])
    with pytest.raises(InvalidInputError):
        cover_permutation_by_grouplike(idle)


def test_reset_to_two_state(five_pr):
    r = split_permutation_reset(five_pr).r
    fact = reset_to_two_state(r)
    assert len(fact.factors) == 3
    for f in fact.factors:
        assert f.n_states == 2
        assert is_reset(f)
    assert fact.product.n_states == 8
    for leaf in leaves(fact.tree):
        assert leaf.kind == LEAF_RESET
    assert verify_covering(fact.witness)
    assert simulation_counterexample(fact.witness, 4) is None


def test_reset_to_two_state_small():
    two = Semiautomaton(["1", "2"], ["r"], [[1], [1]])
    fact = reset_to_two_state(two)
    assert fact.factors == [two]
    one = Semiautomaton(["1"], ["r"], [[0]])
    fact = reset_to_two_state(one)
    assert fact.product.n_states == 2
    assert verify_covering(fact.witness)


def test_reset_to_two_state_rejects(sa3):
    with pytest.raises(InvalidInputError):
        reset_to_two_state(sa3)


def _two_product_reset_cover(X):
    """(automaton, witness) of every node of reset_to_two_state's tree on X,
    in preorder, built as in Ginzburg's proof with two products a level: X is
    covered by B × X/Q, with P the two halves of the states and Q its
    complement, and B × X/Q by B × V, where V covers X/Q."""
    n, m = X.n_states, X.n_symbols
    if n == 1:
        two = Semiautomaton(["r0", "r1"], X.symbol_labels, [[0] * m, [1] * m])
        return [(two, CoveringWitness(two, X, [0, 0], range(m)))]
    if n == 2:
        return [(X, identity_witness(X))]
    half = (n + 1) // 2
    P = Partition(n, [range(half), range(half, n)])
    Q = complementary_partition(n, P)
    B, _ = p_factor(X, P)
    rest, _ = p_factor(X, Q)
    prod = direct_product(B, rest)
    meets = [next(iter(set(pb) & set(qb)), None) for pb in P.blocks for qb in Q.blocks]
    w0 = CoveringWitness(prod, X, meets, range(m))
    sub = _two_product_reset_cover(rest)
    V, w_v = sub[0]
    prod_bv = direct_product(B, V)
    phi = [
        None if v is None else i * rest.n_states + v for i in range(2) for v in w_v.phi
    ]
    w_sub = CoveringWitness(prod_bv, prod, phi, range(m))
    return [(prod_bv, compose_coverings(w_sub, w0)), (B, identity_witness(B))] + sub


def _reset_automata():
    """Reset automata of 1-9 states: one constant, one identity, and
    alphabets of 2-6 symbols mixing constants and identities."""
    rng = random.Random(9)
    specs = [["c"], ["id"], ["c", "id"], ["c", "c", "c"], ["id", "c", "c", "id", "c", "c"]]
    for n in range(1, 10):
        for spec in specs:
            columns = [
                list(range(n)) if kind == "id" else [rng.randrange(n)] * n for kind in spec
            ]
            yield Semiautomaton.from_columns(
                ["s%d" % i for i in range(n)], "abcdef"[: len(spec)], columns
            )


def test_reset_to_two_state_matches_two_product_construction():
    count = 0
    for X in _reset_automata():
        assert is_reset(X)
        nodes = list(iter_nodes(reset_to_two_state(X).tree))
        want = _two_product_reset_cover(X)
        assert len(nodes) == len(want)
        for node, (automaton, w) in zip(nodes, want):
            # the table, the state labels and the symbol labels
            assert node.automaton == automaton
            assert node.witness.phi == w.phi
            assert node.witness.xi == w.xi
            assert node.witness.lower == w.lower
        assert nodes[0].witness.lower is X
        count += 1
    assert count == 45


def test_grouplike_cascade_split_klein(klein):
    split = grouplike_cascade_split(klein, [0, 1])
    assert split.cosets.transversal == (0, 2)
    assert split.h_group.order == 2
    expect_b = {0: [0, 1], 1: [0, 1], 2: [1, 0], 3: [1, 0]}
    for sym, col in expect_b.items():
        assert [split.b.delta[i][sym] for i in range(2)] == col
    assert split.c_prime.n_states == 2
    assert split.omega == ((0, 1, 0, 1), (0, 1, 0, 1))
    assert split.product.n_states == 4
    assert verify_covering(split.witness)
    assert simulation_counterexample(split.witness, 6) is None


def test_grouplike_cascade_split_non_normal():
    s3 = symmetric_3()
    flip = next(
        h
        for h in ([0, g] for g in range(1, 6))
        if s3.mul(h[1], h[1]) == 0 and len({s3.mul(h[1], x) for x in h}) == 2
    )
    split = grouplike_cascade_split(s3, flip)
    assert split.b.n_states == 3
    assert verify_covering(split.witness)
    assert simulation_counterexample(split.witness, 4) is None


def _permutation_group(*images):
    return FiniteGroup(closure_generate([Transformation(list(t)) for t in images]))


def _coset_oracle_groups():
    # Q8 acts on its elements 1, i, j, k, -1, -i, -j, -k by left
    # multiplication, generated by i and j
    return {
        "klein": group_from_table([[x ^ y for y in range(4)] for x in range(4)]),
        "S3": symmetric_3(),
        "C4": cyclic(4),
        "C6": cyclic(6),
        "D4": _permutation_group([1, 2, 3, 0], [0, 3, 2, 1]),
        "Q8": _permutation_group([1, 4, 3, 6, 5, 0, 7, 2], [2, 7, 4, 1, 6, 3, 0, 5]),
        "A4": _permutation_group([1, 2, 0, 3], [1, 0, 3, 2]),
        "S4": _permutation_group([1, 2, 3, 0], [1, 0, 2, 3]),
    }


@pytest.mark.parametrize("name", ["klein", "S3", "C4", "C6", "D4", "Q8", "A4", "S4"])
def test_grouplike_cascade_split_matches_partition_cover(name):
    # the coset split is the partition cascade of grouplike(G) by the cosets
    # and the blocks hT, with C identified with grouplike(H)
    G = _coset_oracle_groups()[name]
    glike = grouplike_of(G)
    subgroups = enumerate_subgroups(G)
    for H in subgroups:
        split = grouplike_cascade_split(G, H)
        cp = coset_partition(G, H)
        _, h_elems = subgroup_as_group(G, H)
        P = Partition(G.order, [cp.block(i) for i in range(cp.count)])
        Q = Partition(G.order, [[G.mul(h, t) for t in cp.transversal] for h in h_elems])
        cover = cascade_cover_from_partition(glike, P, q=Q)
        assert cover.dont_care == frozenset()
        assert split.b == cover.b
        assert split.product.table == cover.product.table
        assert split.witness.phi == cover.witness.phi
        assert split.witness.xi == cover.witness.xi
        assert split.witness.lower == glike
    orders = {"klein": 4, "S3": 6, "C4": 4, "C6": 6, "D4": 8, "Q8": 8, "A4": 12, "S4": 24}
    assert G.order == orders[name]
    if name == "Q8":
        assert sorted(G.element_order(x) for x in range(8)) == [1, 2] + [4] * 6
    if name == "S3":
        # a normal subgroup and a non-normal flip are among the subgroups
        assert any(len(H) == 3 for H in subgroups) and any(len(H) == 2 for H in subgroups)


def test_grouplike_to_simple_cascade(klein):
    node = grouplike_to_simple_cascade(klein)
    assert is_complete(node)
    orders = [leaf.group.order for leaf in leaves(node)]
    assert orders == [2, 2]
    for leaf in leaves(node):
        assert leaf.kind == LEAF_GROUPLIKE
        assert is_simple(leaf.group)
    ok, _ = verify_tree(node, sim_len=6)
    assert ok

    c4 = grouplike_to_simple_cascade(cyclic(4))
    assert [leaf.group.order for leaf in leaves(c4)] == [2, 2]
    c5 = grouplike_to_simple_cascade(cyclic(5))
    assert isinstance(c5, Leaf) and c5.group.order == 5

    s3 = grouplike_to_simple_cascade(symmetric_3())
    assert [leaf.group.order for leaf in leaves(s3)] == [2, 3]
    ok, _ = verify_tree(s3, sim_len=4)
    assert ok

    with pytest.raises(ResourceCapError):
        grouplike_to_simple_cascade(klein, Caps(group_order=2))


@pytest.mark.parametrize("order", [4, 5, 6])
def test_grouplike_tree_covers_through_its_root_cover(order):
    # given a cover grouplike(G) >= X, the root covers X with the tree of
    # the default identity cover and the cover's phi and xi composed in
    pi = Semiautomaton.from_columns(
        [str(i) for i in range(order)], ["a", "b"], [[(i + 1) % order for i in range(order)]] * 2
    )
    G, w = cover_permutation_by_grouplike(pi)
    plain = grouplike_to_simple_cascade(G)
    tree = grouplike_to_simple_cascade(G, Caps(), w)
    assert tree.witness.lower is pi
    assert tree.automaton == plain.automaton
    assert tree.witness.phi == tuple(None if v is None else w.phi[v] for v in plain.witness.phi)
    assert tree.witness.xi == tuple(plain.witness.xi[x] for x in w.xi)
    assert verify_tree(tree, sim_len=4)[0]
    with pytest.raises(InvalidInputError, match="grouplike automaton"):
        grouplike_to_simple_cascade(G, Caps(), identity_witness(pi))


def test_decompose_one_state():
    one = Semiautomaton(["only"], ["a", "b"], [[0, 0]])
    tree = krohn_rhodes_decompose(one)
    assert isinstance(tree, Leaf) and tree.kind == LEAF_RESET
    assert tree.automaton.n_states == 2
    assert tree.witness.lower is one
    assert verify_covering(tree.witness)


def test_decompose_small(sa3):
    tree = krohn_rhodes_decompose(sa3)
    assert is_complete(tree)
    ok, results = verify_tree(tree, sim_len=6)
    assert ok
    for leaf in leaves(tree):
        assert leaf.kind in (LEAF_GROUPLIKE, LEAF_RESET)


def test_decompose_flagship(five_state):
    tree = krohn_rhodes_decompose(five_state)
    assert is_complete(tree)
    assert tree.witness.lower is five_state
    assert summarize_leaves(tree) == [
        ("simple grouplike: order 5, abelian", 1),
        ("two-state reset", 8),
        ("simple grouplike: order 2, abelian", 5),
        ("simple grouplike: order 3, abelian", 2),
    ]
    assert sum(1 for _ in iter_nodes(tree)) == 31
    ok, results = verify_tree(tree, sim_len=6)
    assert ok
    assert all(res for _, res in results)


def test_decompose_cap_produces_raw_leaf(five_state):
    tree = krohn_rhodes_decompose(five_state, Caps(product_states=200))
    assert not is_complete(tree)
    raws = [leaf for leaf in leaves(tree) if leaf.kind == LEAF_RAW]
    assert raws
    assert any("exceeds the cap of 200" in leaf.reason for leaf in raws)
    # witnesses still verify; the raw leaf just covers itself
    ok, _ = verify_tree(tree, sim_len=4)
    assert ok
    assert tree.witness.lower is five_state


def test_verify_tree_flags_broken_witness(sa3):
    tree = krohn_rhodes_decompose(sa3)
    w = tree.witness
    broken = CoveringWitness(
        w.upper, w.lower, w.phi, [(x + 1) % w.upper.n_symbols for x in w.xi], check=False
    )
    bad_tree = dataclasses.replace(tree, witness=broken)
    ok, results = verify_tree(bad_tree, sim_len=4)
    assert not ok
    assert any(not res for _, res in results)


def test_canonical_group_key(klein):
    assert canonical_group_key(cyclic(4)) != canonical_group_key(klein)
    assert canonical_group_key(cyclic(2)) == canonical_group_key(
        FiniteGroup(closure_generate([Transformation([1, 0])], domain_size=2))
    )
    n, abelian, orders = canonical_group_key(symmetric_3())
    assert (n, abelian) == (6, False)
    assert orders == (1, 2, 2, 2, 3, 3)


def test_canonical_group_key_of_a_cyclic_group_on_other_generators():
    # Z_6 closed from the square and the cube of a 6-cycle: its element 1,
    # the square, has order 3, and the key is still Z_6's addition table
    square, cube = (Transformation([(i + k) % 6 for i in range(6)]) for k in (2, 3))
    G = FiniteGroup(closure_generate([square, cube], domain_size=6))
    assert G.order == 6 and G.element_order(1) == 3
    z6 = tuple(tuple((i + j) % 6 for j in range(6)) for i in range(6))
    assert canonical_group_key(G) == (6, True, z6) == canonical_group_key(cyclic(6))


def test_leaf_description(five_state):
    raw = Leaf(LEAF_RAW, five_state, None, reason="cap hit")
    assert leaf_description(raw) == "raw component: cap hit"


def random_n(n, seed):
    """The "random n" recipe: n states, 2 symbols, targets drawn state-major."""
    rng = random.Random(1000 * n + seed)
    delta = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
    return Semiautomaton(["s%d" % i for i in range(n)], ["a", "b"], delta)


def random6(seed):
    return random_n(6, seed)


CHAIN_CAP = "chain product of %d states exceeds the cap of 500000"


@pytest.mark.parametrize(
    "seed, root_states, raw_states, reason",
    [
        (2, 6, 6, CHAIN_CAP % 2211840),
        (3, 6, 6, CHAIN_CAP % 589824),
        (4, 6, 6, CHAIN_CAP % 589824),
        (5, 6, 6, CHAIN_CAP % 589824),
        (6, 120, 5, CHAIN_CAP % 1769472),
        (7, 6, 6, CHAIN_CAP % 2211840),
        (8, 6, 6, CHAIN_CAP % 589824),
        (9, 6, 6, CHAIN_CAP % 589824),
    ],
)
def test_random6_cap_outcomes(seed, root_states, raw_states, reason):
    A = random6(seed)
    tree = krohn_rhodes_decompose(A)
    assert tree.automaton.n_states == root_states
    raws = [leaf for leaf in leaves(tree) if leaf.kind == LEAF_RAW]
    assert [(leaf.automaton.n_states, leaf.reason) for leaf in raws] == [
        (raw_states, reason)
    ]
    assert tree.witness.lower is A
    ok, _ = verify_tree(tree, sim_len=6)
    assert ok


TABLE_LIMIT = "%s product of %d states exceeds the table limit of %d states"


@pytest.mark.parametrize(
    "n, seed, limit, caps, reason",
    [
        (8, 0, None, Caps(group_order=120, product_states=10**11),
         TABLE_LIMIT % ("chain", 4529848320, 2**31)),
        (5, 0, 10_000, Caps(), TABLE_LIMIT % ("chain", 46080, 10_000)),
        (5, 0, 10_000, Caps(product_states=20_000),
         "chain product of 46080 states exceeds the cap of 20000"),
        (4, 0, 6, Caps(), TABLE_LIMIT % ("split", 8, 6)),
    ],
)
def test_plan_keeps_products_within_the_table_limit(monkeypatch, n, seed, limit, caps, reason):
    # a product over the most states a table holds (automata._STATE_LIMIT,
    # 2**31, or set lower) is planned as a raw leaf that names that limit,
    # where the cap alone would let it through and _product refuse it; a cap
    # below the limit is named as before. Each tree verifies
    if limit is not None:
        monkeypatch.setattr(automata, "_STATE_LIMIT", limit)
    tree = krohn_rhodes_decompose(random_n(n, seed), caps)
    assert [leaf.reason for leaf in leaves(tree) if leaf.kind == LEAF_RAW] == [reason]
    assert verify_tree(tree)[0]


def _record_products(monkeypatch):
    """Route automata._product through a recorder; returns the list of
    products it builds, in order."""
    built = []
    build = automata._product

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(automata, "_product", recording)
    return built


def test_cap_hit_builds_no_big_product(monkeypatch):
    # seed 4 breaches the chain cap with a predicted 589,824-state product;
    # the plan finds that before any product is built, and the chain steps
    # build none of their own
    built = _record_products(monkeypatch)
    tree = krohn_rhodes_decompose(random6(4))
    assert tree.automaton.n_states == 6
    assert built == []
    # the recorder sees the products of a tree that has cascade nodes
    tree = krohn_rhodes_decompose(random6(6))
    assert tree.automaton.n_states == 120
    assert any(X is tree.automaton for X in built)


@pytest.mark.parametrize("seed, kept", [(4, 0), (6, 1), (0, None)])
def test_decompose_builds_only_the_chain_steps_its_plan_keeps(monkeypatch, seed, kept):
    # the chain is planned on its column classes, and only the steps above
    # the plan's base are expanded to full alphabet, one ChainStep each:
    # none on seed 4, whose base is the raw leaf of A itself, one on seed 6,
    # and on seed 0, whose whole chain is kept, every step of the walk
    A = random6(seed)
    if kept is None:
        kept = len(pipeline._class_chain(A)[0])
        assert kept > 1
    built = []
    step = pipeline.ChainStep

    def counted(X, *args):
        built.append(X)
        return step(X, *args)

    monkeypatch.setattr(pipeline, "ChainStep", counted)
    tree = krohn_rhodes_decompose(A)
    assert len(built) == kept
    assert built[:1] == ([A] if kept else [])
    assert verify_tree(tree)[0]


def test_random11_decomposes_within_512_mb():
    # random_n(11, 0): C's alphabet at step k of its chain has 2·11!/(11-k)!
    # symbols, 39,916,800 at the last of its 9 steps, so the chain is planned
    # on its column classes and only the steps the plan keeps are built. In
    # a child process whose address space alone is limited to 512 MB, the
    # decomposition ends in a tree that verifies
    import resource
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    code = "\n".join([
        "import random",
        "from krcascade import Semiautomaton, krohn_rhodes_decompose, leaves, verify_tree",
        "rng = random.Random(11000)",
        "delta = [[rng.randrange(11) for _ in range(2)] for _ in range(11)]",
        "A = Semiautomaton(['s%d' % i for i in range(11)], ['a', 'b'], delta)",
        "tree = krohn_rhodes_decompose(A)",
        "print(tree.automaton.n_states, verify_tree(tree)[0])",
        "print([leaf.reason for leaf in leaves(tree) if leaf.kind == 'raw'])",
    ])
    limit = 512 * 2 ** 20
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "229376 True", "['chain product of 1935360 states exceeds the cap of 500000']"
    ]


def test_cascade_nodes_build_one_product_each(monkeypatch):
    # each cascade node builds one product; substituting its two factors one
    # at a time would also build an intermediate product (354,268 cells here).
    # Each reset level and coset split builds only the product the tree keeps;
    # a second product to compose through or compare against would add 8
    # products (2,712 cells here). The chain steps, the permutation-reset
    # splits and the coset splits take their outer cover as phi and xi, with
    # no product of their own; building those would add 10 products (3,332
    # cells here).
    built = _record_products(monkeypatch)
    tree = krohn_rhodes_decompose(random_n(5, 0))
    assert tree.automaton.n_states == 73728
    cells = [X.n_states * X.n_symbols for X in built]
    assert (len(cells), sum(cells)) == (14, 248_572)


# five_pr is the README example
NAMED = ["five_pr", "five_state"] + ["random5-%d" % seed for seed in range(10)]


def _named(request, name):
    if name.startswith("random5-"):
        return random_n(5, int(name.partition("-")[2]))
    if name.startswith("random6-"):
        return random6(int(name.partition("-")[2]))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", NAMED + ["random6-0", "random6-4", "random6-6"])
def test_decompose_builds_only_node_automata(monkeypatch, request, name):
    A = _named(request, name)
    built = _record_products(monkeypatch)
    tree = krohn_rhodes_decompose(A)
    kept = {id(node.automaton) for node in iter_nodes(tree)}
    assert [X for X in built if id(X) not in kept] == []


def test_plan_disagreeing_with_build_raises(monkeypatch, five_state):
    monkeypatch.setattr(pipeline, "_reset_states", lambda n: n)
    with pytest.raises(RuntimeError, match="plan predicted"):
        krohn_rhodes_decompose(five_state)


def _record_verify_covering(monkeypatch):
    """Route verify_covering through a recorder in every krcascade module that
    holds it; returns the list of witnesses it is called on, in call order."""
    checked = []
    original = automata.verify_covering

    def recording(w):
        checked.append(w)
        return original(w)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "krcascade":
            if getattr(module, "verify_covering", None) is original:
                monkeypatch.setattr(module, "verify_covering", recording)
    return checked


@pytest.mark.parametrize("name", NAMED)
def test_decompose_verifies_each_witness_once(monkeypatch, request, name):
    A = _named(request, name)
    checked = _record_verify_covering(monkeypatch)
    tree = krohn_rhodes_decompose(A)
    times = Counter(map(id, checked))
    assert [w for w in checked if times[id(w)] > 1] == []
    node_witnesses = [n.witness for n in iter_nodes(tree)]
    assert [w for w in node_witnesses if times[id(w)] != 1] == []
    # no witness outside a node is verified
    assert len(checked) == len(node_witnesses)


@pytest.mark.parametrize("name", NAMED)
def test_fused_substitution_matches_substitute_then_compose(monkeypatch, request, name):
    # each node's fused substitution equals substitute on the built product
    # A∘C, followed by composition with the outer cover (phi, xi), on the
    # product table, phi and xi
    A = _named(request, name)
    calls = []
    fused = automata._substitute

    def recording(*args):
        calls.append((args, fused(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "_substitute", recording)
    krohn_rhodes_decompose(A)
    assert calls
    for args, out in calls:
        A, C, omega, w_u, w_v, phi, xi, X = args
        sub = substitute(cascade_product(A, C, omega), A, C, omega, w_u, w_v)
        assert out.product.table == sub.product.table
        assert out.omega == sub.omega
        assert out.witness.phi == tuple(None if p is None else phi[p] for p in sub.witness.phi)
        assert out.witness.xi == tuple(sub.witness.xi[x] for x in xi)
        assert out.witness.upper is out.product and out.witness.lower is X


def test_input_kinds_build_no_transformations(monkeypatch):
    # inputs are classified off the table; a Transformation is built only for
    # a generator of a group: each distinct permutation column of a factor
    # that gets split. The group's table and the cover of the split's
    # permutation automaton come from that one closure, so no column of the
    # permutation automaton is turned into one. Building one per input to
    # classify it would make 19,937 calls here, and one per permutation
    # input of a split factor 3,321.
    calls = []
    build = Semiautomaton.symbol_transformation

    def counted(self, a):
        calls.append(a)
        return build(self, a)

    monkeypatch.setattr(Semiautomaton, "symbol_transformation", counted)
    for seed in (0, 4, 6):
        krohn_rhodes_decompose(random6(seed))
    assert len(calls) == 45


def test_decomposition_checks_only_the_input_labels(monkeypatch):
    # labels are checked where they enter the library: every automaton the
    # decomposition derives keeps the labels it is built with, unchecked
    calls = []
    check = automata._checked_labels

    def counted(state_labels, symbol_labels):
        calls.append(tuple(state_labels))
        return check(state_labels, symbol_labels)

    monkeypatch.setattr(automata, "_checked_labels", counted)
    A = random6(0)
    tree = krohn_rhodes_decompose(A)
    assert calls == [A.state_labels]
    assert sum(1 for _ in iter_nodes(tree)) > 1


def _moved(phi, n):
    """phi with its first entry in the domain sent to the next of the n
    lower states."""
    phi = list(phi)
    s = next(s for s, v in enumerate(phi) if v is not None)
    phi[s] = (phi[s] + 1) % n
    return tuple(phi)


def _corrupting(build):
    """build, with one phi entry of the cover it returns sent to another
    lower state: the witness of a Substitution or of _group_cover's
    (G, witness), or the phi of _split's (R, omega, phi) or _coset_split's
    (B, C', omega, phi, ...) parts, which is onto the lower states."""

    def corrupted(*args, **kwargs):
        out = build(*args, **kwargs)
        if isinstance(out, automata.Substitution):
            w = out.witness
        elif isinstance(out[1], CoveringWitness):
            w = out[1]
        else:
            k = 2 if len(out) == 3 else 3
            phi = out[k]
            return out[:k] + (_moved(phi, max(v for v in phi if v is not None) + 1),) + out[k + 1:]
        bad = CoveringWitness(w.upper, w.lower, _moved(w.phi, w.lower.n_states), w.xi, check=False)
        if isinstance(out, automata.Substitution):
            return dataclasses.replace(out, witness=bad)
        return out[0], bad

    return corrupted


CYCLE4 = Semiautomaton(["0", "1", "2", "3"], ["a"], [[1], [2], [3], [0]])


@pytest.mark.parametrize(
    "target, name, context",
    [
        ("_substitute", "sa3", "chain step"),
        ("_substitute", "five_pr", "permutation-reset factor"),
        ("_split", "five_pr", "permutation-reset factor"),
        ("_coset_split", "cycle4", "coset cascade"),
        ("_group_cover", "five_pr", "simple grouplike leaf"),
    ],
)
def test_corrupted_inner_witness_fails_its_node(monkeypatch, request, target, name, context):
    A = CYCLE4 if name == "cycle4" else request.getfixturevalue(name)
    monkeypatch.setattr(pipeline, target, _corrupting(getattr(pipeline, target)))
    with pytest.raises(WitnessError, match="^%s: " % context):
        krohn_rhodes_decompose(A)
    # the corruption is real: without the checks the tree comes out, and
    # replaying it rejects it
    monkeypatch.setattr(pipeline, "_require", lambda result, context: None)
    ok, _ = verify_tree(krohn_rhodes_decompose(A), sim_len=0)
    assert not ok


def _assert_cells_are_states(X):
    cells = X.table.tolist()
    assert len(cells) == X.n_states * X.n_symbols
    assert 0 <= min(cells) and max(cells) < X.n_states


@pytest.mark.parametrize("n", [4, 5])
def test_products_are_in_range_without_a_scan(n):
    # products keep their tables without the range scan that user tables
    # get; each cell must still be a state of the product
    autos = [random_n(n, seed) for seed in range(10)]
    rng = random.Random(n)
    for A, B in zip(autos, autos[1:] + autos[:1]):
        omega = [[rng.randrange(B.n_symbols) for _ in range(2)] for _ in range(n)]
        cascade = cascade_product(A, B, omega)
        direct = direct_product(A, B)
        omega2 = [[rng.randrange(A.n_symbols) for _ in range(2)] for _ in range(n * n)]
        for X in (cascade, direct, direct_product(direct, A), cascade_product(cascade, A, omega2)):
            _assert_cells_are_states(X)
    for node in iter_nodes(krohn_rhodes_decompose(autos[0])):
        _assert_cells_are_states(node.automaton)


def _one_entry_corruptions(w, rng):
    """Copies of w with one phi entry sent to another lower state, one phi
    entry sent out of the domain, and one xi entry changed."""
    s = rng.randrange(len(w.phi))
    other = [v for v in range(w.lower.n_states) if v != w.phi[s]]
    out = []
    if other:
        phi = list(w.phi)
        phi[s] = rng.choice(other)
        out.append(CoveringWitness(w.upper, w.lower, phi, w.xi, check=False))
    phi = list(w.phi)
    phi[s] = None
    out.append(CoveringWitness(w.upper, w.lower, phi, w.xi, check=False))
    if w.upper.n_symbols > 1:
        xi = list(w.xi)
        a = rng.randrange(len(xi))
        xi[a] = (xi[a] + 1) % w.upper.n_symbols
        out.append(CoveringWitness(w.upper, w.lower, w.phi, xi, check=False))
    return out


def test_failing_state_is_named_without_rendering_every_label():
    # verify_covering names a failing state of a product by rendering the
    # labels up to it only, and keeps none of them; the reason is the one
    # that full rendering gives
    w = krohn_rhodes_decompose(random_n(5, 0)).witness
    upper = w.upper
    phi = list(w.phi)
    s = next(s for s in range(len(phi) // 2, len(phi)) if phi[s] is not None)
    phi[s] = (phi[s] + 1) % w.lower.n_states
    bad = CoveringWitness(upper, w.lower, phi, w.xi, check=False)
    result = verify_covering(bad)
    assert result.reason.startswith("covering law fails at state ")
    assert result.site[0] > 0
    assert vars(upper)["_state_labels"] is None
    assert len(upper.state_labels) == 73728
    assert verify_covering(bad).reason == result.reason


def test_witness_domains_are_built_on_first_read():
    tree = krohn_rhodes_decompose(random_n(5, 0))
    ok, _ = verify_tree(tree, sim_len=6)
    assert ok
    tree_report(tree, sim_len=6)
    witnesses = [node.witness for node in iter_nodes(tree)]
    assert [w for w in witnesses if vars(w)["_dom"] is not None] == []
    # repr reads no entry of phi, so a composed phi stays unbuilt
    composed = [w._phi for w in witnesses if isinstance(w._phi, _lawcheck.Composed)]
    assert composed
    list(map(repr, witnesses))
    assert [phi for phi in composed if phi._flat is not None] == []
    rng = random.Random(5000)
    for w in witnesses:
        for c in [w] + _one_entry_corruptions(w, rng):
            dom = tuple(s for s, v in enumerate(c.phi) if v is not None)
            shown = "CoveringWitness(%d upper states onto %d lower states)" % (
                c.upper.n_states,
                c.lower.n_states,
            )
            assert repr(c) == shown
            verify_covering(c)
            assert vars(c)["_dom"] is None
            assert c.dom == dom
            assert vars(c)["_dom"] is c.dom
            assert repr(c) == shown


@pytest.mark.parametrize(
    "name, call",
    [
        ("sim_len", lambda tree, n: verify_tree(tree, sim_len=n)),
        ("sim_len", lambda tree, n: tree_report(tree, sim_len=n)),
        ("max_len", lambda tree, n: simulation_counterexample(tree.witness, n)),
    ],
    ids=["verify_tree", "tree_report", "simulation_counterexample"],
)
def test_a_negative_length_is_refused(five_pr, name, call):
    # worded as the command line words a negative --len; a length of 0 is valid
    tree = krohn_rhodes_decompose(five_pr)
    with pytest.raises(InvalidInputError, match="^%s of -4 is negative$" % name):
        call(tree, -4)
    call(tree, 0)


@pytest.mark.parametrize(
    "names",
    [
        "_containment",
        "_check_omega",
        "is_simple",
        "yoeli_auxiliary cascade_cover_from_decomposition complementary_partition",
    ],
)
def test_decomposing_runs_no_containment_pass(monkeypatch, names):
    # what the construction guarantees is not checked again while
    # decomposing or building pr_chain, and the trees are the pinned ones:
    # the chain's D-factors and the coset partitions are admissible, so no
    # containment pass runs; each chain step is expanded from the
    # column-class walk, so no Yoeli auxiliary, decomposition cover or
    # complementary partition is built; a tree node's connection is
    # composed from maps in hand, so none is checked; and a group is simple
    # when its largest proper normal subgroup is trivial, so no simplicity
    # test runs
    def refuse(*args):
        raise AssertionError("%s ran while decomposing" % names)

    for name in names.split():
        for module in (automata, groups, partitions, pipeline):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    td, expected = _load_script(), _expected()
    for n, seed in [(5, seed) for seed in range(10)] + [(6, seed) for seed in range(10)]:
        A = random_n(n, seed)
        tree = krohn_rhodes_decompose(A)
        assert td.tree_digest(tree) == expected["random%d-%d" % (n, seed)]
        assert pr_chain(A).witness.lower is A


def _verify_tree_with_simulation(tree, sim_len):
    """verify_tree by its definition: every node check, then the root's word
    simulation once they all pass."""
    results = [(node, verify_covering(node.witness)) for node in iter_nodes(tree)]
    ok = all(res for _, res in results)
    if ok and sim_len > 0:
        bad = simulation_counterexample(tree.witness, sim_len)
        if bad is not None:
            ok = False
            results.append(
                (tree, automata.VerificationResult(False, "simulation fails on a word", bad))
            )
    return ok, results


def _with_first_leaf_witness(node, w):
    """node with the witness of its first leaf replaced by w."""
    if isinstance(node, Leaf):
        return dataclasses.replace(node, witness=w)
    return dataclasses.replace(node, left=_with_first_leaf_witness(node.left, w))


@pytest.mark.parametrize("name", ["five_pr", "five_state"])
def test_verify_tree_runs_one_law_pass_per_node(monkeypatch, request, name):
    # five_pr is the README example
    tree = krohn_rhodes_decompose(request.getfixturevalue(name))
    checked = []
    law = automata._law_violation

    def counted(w):
        checked.append(w)
        return law(w)

    monkeypatch.setattr(automata, "_law_violation", counted)
    ok, _ = verify_tree(tree, sim_len=6)
    assert ok
    nodes = list(iter_nodes(tree))
    assert len(checked) == len(nodes)
    assert Counter(map(id, checked)) == Counter(id(node.witness) for node in nodes)

    rng = random.Random(len(nodes))
    trees = [tree]
    for w in _one_entry_corruptions(tree.witness, rng):
        trees.append(dataclasses.replace(tree, witness=w))
    leaf = next(leaves(tree))
    for w in _one_entry_corruptions(leaf.witness, rng):
        trees.append(_with_first_leaf_witness(tree, w))
    verdicts = []
    for t in trees:
        ok, results = verify_tree(t, sim_len=6)
        want_ok, want = _verify_tree_with_simulation(t, sim_len=6)
        assert ok == want_ok
        assert [(id(n), r) for n, r in results] == [(id(n), r) for n, r in want]
        verdicts.append(ok)
    assert verdicts[0] and False in verdicts[1:]


def _law_violation_per_symbol(w):
    """The law check with one symbol pass per lower symbol, repeated columns
    included, at every witness size: the check as it was before column
    classes, sharing no size switch with the library. It reads phi itself."""
    phi = w.phi
    inside = [v is not None for v in phi]
    low = [v for v in phi if v is not None]
    upper, nu = w.upper.table, w.upper.n_states
    lower, nl = w.lower.table, w.lower.n_states
    for a, x in enumerate(w.xi):
        image = lower[a * nl:(a + 1) * nl].tolist()
        column = upper[x * nu:(x + 1) * nu].tolist()
        for t, v in zip((t for t, keep in zip(column, inside) if keep), low):
            if phi[t] != image[v]:
                return _lawcheck.first_failure(w)
    return None


def _verdicts(w):
    """verify_covering's (ok, reason, site) on w, and the same with the law
    checked one symbol at a time."""
    got = verify_covering(w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_law_violation", _law_violation_per_symbol)
        want = verify_covering(w)
    return (got.ok, got.reason, got.site), (want.ok, want.reason, want.site)


def _twin_column_corruptions(w, rng):
    """Copies of w with one cell changed in a column of the upper or of the
    lower automaton that has the same contents as another column, on a state
    the law check reads. The upper one is made only below 100,000 states,
    since the copy renders and keeps every upper state label."""
    out = []
    for side in ("upper", "lower"):
        X = getattr(w, side)
        n = X.n_states
        twins = [a for a, c in enumerate(X._classes) if c != a]
        if n < 2 or not twins or (side == "upper" and n > 100_000):
            continue
        a = rng.choice(twins)
        if side == "upper":
            s = rng.choice(w.dom)
        else:
            s = rng.choice([v for v in set(w.phi) if v is not None])
        table = array("i", X.table)
        table[a * n + s] = (table[a * n + s] + 1) % n
        Y = Semiautomaton.from_columns(
            X.state_labels, X.symbol_labels, [table[k:k + n] for k in range(0, len(table), n)]
        )
        upper, lower = (Y, w.lower) if side == "upper" else (w.upper, Y)
        out.append(CoveringWitness(upper, lower, w.phi, w.xi, check=False))
    return out


@pytest.mark.parametrize("n, seeds", [(5, range(10)), (6, (0, 4, 6))])
def test_law_check_by_column_class_matches_per_symbol_check(n, seeds):
    # one symbol pass per distinct pair of column classes gives the verdict,
    # reason and site of one pass per symbol, on every node witness and on
    # copies with a cell changed in a column that had a twin
    rng = random.Random(n)
    skipped = failed = 0
    for seed in seeds:
        tree = krohn_rhodes_decompose(random_n(n, seed))
        for node in iter_nodes(tree):
            w = node.witness
            got, want = _verdicts(w)
            assert got == want and got[0]
            skipped += len(w.xi) - len(automata._law_pairs(w))
            for c in _twin_column_corruptions(w, rng):
                got, want = _verdicts(c)
                assert got == want
                failed += not got[0]
    assert skipped > 0 and failed > 0


def test_law_check_passes_once_per_distinct_column_pair(monkeypatch):
    # decomposing random-6 seed 0 makes 107 symbol passes where one per
    # lower symbol would make 12,434: the passes also check the 12 wide
    # witnesses of 2 to 24 states over 60 to 1,440 symbols, which have
    # 256 cells or more
    passes = []
    pairs = automata._law_pairs

    def counted(w):
        out = pairs(w)
        passes.append((len(out), len(w.xi)))
        return out

    monkeypatch.setattr(automata, "_law_pairs", counted)
    krohn_rhodes_decompose(random6(0))
    assert (sum(p for p, _ in passes), sum(m for _, m in passes)) == (107, 12_434)


def _witness_with_repeated_columns(rng, n, m):
    """A covering witness of n upper states over m lower symbols that
    verifies, with few distinct columns on either side: phi sends the first
    d upper states onto the lower states and leaves the rest outside its
    domain, each upper column is one of one or two lifts of one of up to
    three lower columns, and xi draws from up to twelve upper symbols."""
    d = rng.randint(1, n)
    nl = rng.randint(1, d)
    q = list(range(nl)) + [rng.randrange(nl) for _ in range(d - nl)]
    rng.shuffle(q)
    fibres = [[s for s in range(d) if q[s] == v] for v in range(nl)]
    pool = [[rng.randrange(nl) for _ in range(nl)] for _ in range(rng.randint(1, 3))]
    lifts = []
    for col in pool:
        for _ in range(rng.randint(1, 2)):
            up = [rng.choice(fibres[col[q[s]]]) for s in range(d)]
            lifts.append((col, up + [rng.randrange(n) for _ in range(d, n)]))
    ups = [rng.choice(lifts) for _ in range(rng.randint(1, 2 * len(lifts)))]
    xi = [rng.randrange(len(ups)) for _ in range(m)]
    U = Semiautomaton.from_columns(
        ["u%d" % s for s in range(n)], ["x%d" % x for x in range(len(ups))], [u for _, u in ups]
    )
    L = Semiautomaton.from_columns(
        ["l%d" % v for v in range(nl)], ["a%d" % a for a in range(m)], [ups[x][0] for x in xi]
    )
    return CoveringWitness(U, L, q + [None] * (n - d), xi, check=False)


def _with_one_change(w, rng, kind):
    """A copy of w with one cell of the upper or lower table, or one entry
    of phi, changed; w itself for kind None or a lower of one state."""
    phi = list(w.phi)
    if kind == "phi":
        s = rng.randrange(len(phi))
        phi[s] = rng.choice([v for v in [None, *range(w.lower.n_states)] if v != phi[s]])
        return CoveringWitness(w.upper, w.lower, phi, w.xi, check=False)
    if kind is None or getattr(w, kind).n_states < 2:
        return w
    X = getattr(w, kind)
    columns = [list(X.column(a)) for a in range(X.n_symbols)]
    col = rng.choice(columns)
    s = rng.randrange(X.n_states)
    col[s] = rng.choice([t for t in range(X.n_states) if t != col[s]])
    Y = Semiautomaton.from_columns(X.state_labels, X.symbol_labels, columns)
    upper, lower = (Y, w.lower) if kind == "upper" else (w.upper, Y)
    return CoveringWitness(upper, lower, phi, w.xi, check=False)


@settings(deadline=None)
@given(
    st.integers(1, 8),
    st.data(),
    st.sampled_from([None, "upper", "lower", "phi"]),
    st.randoms(use_true_random=False),
)
@pytest.mark.parametrize("path", ["scan", "passes"])
def test_law_check_matches_per_symbol_check_on_repeated_columns(path, n, data, kind, rng):
    # witnesses of 1-8 upper states over 1-300 lower symbols whose columns
    # repeat, on either side of the cells switch, with one cell or phi entry
    # changed: the verdict, reason and site of one pass per lower symbol
    if path == "scan":
        m = data.draw(st.integers(1, (automata._SYMBOL_PASS_CELLS - 1) // n))
    else:
        m = data.draw(st.integers(-(-automata._SYMBOL_PASS_CELLS // n), 300))
    w = _witness_with_repeated_columns(rng, n, m)
    assert verify_covering(w)
    got, want = _verdicts(_with_one_change(w, rng, kind))
    assert got == want


@pytest.fixture(scope="module")
def random6_root_witness():
    return krohn_rhodes_decompose(random6(0)).witness


def _cells_compared(w, upper=None):
    """The cells the law check's passes compare on w's composition of phi,
    or, if upper is given, on w's phi over upper in place of w's upper
    automaton: one per entry of a task's source block that is not None."""
    pairs = automata._law_pairs(w)
    if upper is None:
        descent = _lawcheck.descend(w.upper, w._phi, pairs)
    else:
        descent = _lawcheck.descend(upper, w.phi, pairs)
    assert _lawcheck.passes(w.lower, descent)
    _, tasks, blocks = descent
    return sum(len(blocks[src]) - blocks[src].count(None) for _, src, _, _ in tasks)


def _unrecorded(X):
    """X rebuilt from its columns: the same table, and no factor record."""
    return Semiautomaton.from_columns(
        X.state_labels, X.symbol_labels, [X.column(a) for a in range(X.n_symbols)]
    )


def test_factored_law_check_compares_one_block_per_distinct_triple(random6_root_witness):
    # on the random-6 seed-0 root, a product of products of products, the
    # check through the recorded factors compares each distinct block once
    # per distinct triple of connection class, block and successor block at
    # every level, 4,464 cells, where the flat pass compares every domain
    # state once per law pair
    w = random6_root_witness
    U = w.upper
    # an unrecorded copy whose labels stay unrendered, as the root's do:
    # _unrecorded would render all 368,640 of them
    A, B, _ = U._factors
    n = U.n_states
    columns = {c: U._table[c * n:(c + 1) * n] for c in U._firsts}
    flat = Semiautomaton._from_keys(automata._PairLabels(A, B), U.symbol_labels, columns, U._classes)
    assert flat._factors is None
    dom = len(w.phi) - w.phi.count(None)
    assert (U.n_states, dom, len(automata._law_pairs(w))) == (368_640, 207_360, 2)
    assert _cells_compared(w) == 4_464
    assert _cells_compared(w, flat) == 414_720


def _descent_levels(X, phi, pairs):
    """The law check's descent on phi over X for the law pairs, and the
    automaton and tasks of each of its levels, the top one first: each
    task's symbol reads a column of that automaton's first factor, or of
    the automaton itself where the descent stops."""
    levels, split = [(X, {(x, 0, 0, a) for x, a in pairs})], _lawcheck._split

    def recorded(A, B, connection, tasks, blocks, inner):
        out = split(A, B, connection, tasks, blocks, inner)
        levels.append((B, out[0]))
        return out
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lawcheck, "_split", recorded)
        return _lawcheck.descend(X, phi, pairs), levels


def test_every_task_symbol_is_the_first_input_of_its_class(random6_root_witness):
    # the descent on the random-6 seed-0 root goes three levels down, and at
    # each one every task's symbol is the first input of its column class in
    # that level's automaton: the law pairs' at the top, and below it the
    # class of each connection symbol, so tasks that differ only in a
    # symbol of the same class are one task: 12, 45 and 62 tasks below the
    # top, where keying by the raw connection symbol gives 12, 60 and 240
    w = random6_root_witness
    descent, levels = _descent_levels(w.upper, w._phi, automata._law_pairs(w))
    assert len(levels) == 4 and _lawcheck.passes(w.lower, descent)
    for Y, tasks in levels:
        assert {x for x, _, _, _ in tasks} <= set(Y._firsts)
    assert [len(tasks) for _, tasks in levels] == [2, 12, 45, 62]


def test_factored_law_check_finds_a_change_in_a_repeated_block(random6_root_witness):
    # the root's phi is composed three levels deep, and at the deepest level
    # 96 blocks share 4 row maps: one of those blocks given a row map of its
    # own with one entry changed, the check through the composition fails
    # with the per-symbol pass's reason and site
    w = random6_root_witness
    c0 = w._phi
    c1 = c0.inner
    c2 = c1.inner
    keys = list(c2.keys)
    assert (len(keys), len(set(keys))) == (96, 4) and not isinstance(c2.inner, _lawcheck.Composed)
    u = next(u for u, k in enumerate(keys) if k is not None and keys.index(k) < u)
    rows = dict(enumerate(c2.rows)) if isinstance(c2.rows, list) else dict(c2.rows)
    row = list(rows[keys[u]])
    p = next(p for p in c2.inner_values() if row[p] is not None)
    row[p] = (row[p] + 1) % len(c1.rows[c1.keys[0]])
    keys[u] = new = len(rows)
    rows[new] = tuple(row)
    inner = _lawcheck.Composed(c1.keys, c1.rows, _lawcheck.Composed(keys, rows, c2.inner))
    composed = _lawcheck.Composed(c0.keys, c0.rows, inner)
    bad = CoveringWitness._from_parts(w.upper, w.lower, composed, w.xi)
    got, want = _verdicts(bad)
    assert got == want and not got[0]
    assert got[1].startswith("covering law fails at state ")


def _unchecked(w):
    """A witness made from w's parts, phi as w keeps it, that keeps no check."""
    return CoveringWitness._from_parts(w.upper, w.lower, w._phi, w.xi)


def _checked_copy(w):
    """A copy of w with all it keeps, the record of its last check too."""
    kept = object.__new__(type(w))
    vars(kept).update(vars(w))
    return kept


def _counted_law_check(monkeypatch):
    """The descents the law check makes, as their uppers, and the cells
    each run of its passes compares, both in call order."""
    descents, cells = [], []
    descend, passes = _lawcheck.descend, _lawcheck.passes

    def counted_descend(X, phi, pairs):
        descents.append(X)
        return descend(X, phi, pairs)

    def counted_passes(lower, descent):
        _, tasks, blocks = descent
        cells.append(sum(len(blocks[src]) - blocks[src].count(None) for _, src, _, _ in tasks))
        return passes(lower, descent)

    monkeypatch.setattr(_lawcheck, "descend", counted_descend)
    monkeypatch.setattr(_lawcheck, "passes", counted_passes)
    return descents, cells


def test_verify_covering_descends_once(monkeypatch, random6_root_witness):
    # the first check of a recorded product's witness descends once and
    # keeps the descent with its law pairs; a check that follows descends
    # zero times and still runs the passes; xi, the upper, the lower or the
    # composition of phi replaced in place by an equal new object gets one
    # descent more
    root = random6_root_witness
    w = _unchecked(root)
    descents, cells = _counted_law_check(monkeypatch)
    assert verify_covering(w) and descents == [w.upper] and len(cells) == 1
    assert verify_covering(w) and len(descents) == 1 and len(cells) == 2
    c = root._phi
    parts = [
        ("xi", tuple(list(root.xi))),
        ("upper", automata._product(*root.upper._factors)),
        ("lower", pickle.loads(pickle.dumps(root.lower))),
        ("_phi", _lawcheck.Composed(c.keys, c.rows, c.inner)),
    ]
    for k, (name, value) in enumerate(parts, 2):
        assert value is not getattr(w, name)
        setattr(w, name, value)
        assert verify_covering(w) and len(descents) == k and descents[-1] is w.upper
        assert verify_covering(w) and len(descents) == k
    assert len(cells) == 2 + 2 * len(parts)


def test_repeat_check_compares_every_cell(monkeypatch, random6_root_witness):
    # a check that reuses the kept descent still compares each cell the
    # first check compared: 4,464 on the random-6 seed-0 root, both times
    w = _unchecked(random6_root_witness)
    descents, cells = _counted_law_check(monkeypatch)
    assert verify_covering(w) and verify_covering(w)
    assert len(descents) == 1 and cells == [4_464, 4_464]


def test_replacing_a_checked_part_gives_a_fresh_verdict():
    # xi, the upper, the lower or the composition of phi replaced in place
    # on a checked witness, each by a changed one: the check gets the
    # verdict, reason and site of a fresh witness made from the same parts,
    # and keeps the descent of the new parts, where the descent kept from
    # the old parts would miss the change
    w = krohn_rhodes_decompose(random_n(5, 1)).witness
    assert isinstance(w._phi, _lawcheck.Composed) and verify_covering(w)
    rng = random.Random(5)
    classes = w.upper._classes
    x = next(x for x in range(w.upper.n_symbols) if classes[x] != classes[w.xi[0]])
    A, B, connection = w.upper._factors

    def changed_upper(b, u):
        columns = [list(A.column(a)) for a in range(A.n_symbols)]
        columns[b][u] = (columns[b][u] + 1) % A.n_states
        Y = Semiautomaton.from_columns(A.state_labels, A.symbol_labels, columns)
        return automata._product(Y, B, connection)
    # the first cell of the upper's left factor whose change breaks the law
    upper = next(Y for Y in (changed_upper(b, u) for b in range(A.n_symbols)
                             for u in range(A.n_states))
                 if not verify_covering(CoveringWitness._from_parts(Y, w.lower, w._phi, w.xi)))
    L = w.lower
    columns = [list(L.column(b)) for b in range(L.n_symbols)]
    v = next(v for v in w.phi if v is not None)
    columns[0][v] = (columns[0][v] + 1) % L.n_states
    lower = Semiautomaton.from_columns(L.state_labels, L.symbol_labels, columns)
    c = w._phi
    rows = dict(enumerate(c.rows)) if isinstance(c.rows, list) else dict(c.rows)
    key = rng.choice(sorted(k for k in set(c.keys) if k is not None))
    row = list(rows[key])
    p = next(p for p, v in enumerate(row) if v is not None)
    row[p] = (row[p] + 1) % L.n_states
    rows[key] = tuple(row)
    parts = [("xi", (x,) + w.xi[1:]), ("upper", upper), ("lower", lower),
             ("_phi", _lawcheck.Composed(c.keys, rows, c.inner))]
    for name, value in parts:
        kept = _checked_copy(w)
        setattr(kept, name, value)
        got, want = verify_covering(kept), verify_covering(_unchecked(kept))
        assert not got.ok, name
        assert (got.reason, got.site) == (want.reason, want.site)
        assert kept._descent is not w._descent
        assert kept._descent == _lawcheck.descend(
            kept.upper, kept._phi, automata._law_pairs(kept))


def test_pickled_witness_keeps_no_check():
    # a checked witness pickles as its parts: a copy loads with no kept
    # descent or domain, so a pickle whose kept descent was forged to hold
    # no task gets the verdict, reason and site of a fresh copy, on a
    # witness with one phi entry changed
    root = krohn_rhodes_decompose(random_n(5, 1)).witness
    phi = list(root.phi)
    s = random.Random(1).choice([s for s, v in enumerate(phi) if v is not None])
    phi[s] = (phi[s] + 1) % root.lower.n_states
    w = CoveringWitness._from_parts(root.upper, root.lower, tuple(phi), root.xi)
    want = verify_covering(w)
    assert not want.ok and w._descent is not None and w.dom
    w._descent = w.upper, set(), [w.phi]
    assert verify_covering(w)
    back = pickle.loads(pickle.dumps(w))
    assert back._descent is None and back._dom is None
    got = verify_covering(back)
    assert (got.ok, got.reason, got.site) == (want.ok, want.reason, want.site)


def test_unrecorded_copies_take_the_flat_pass():
    # a product rebuilt from its columns, or through pickle, records no
    # factors, and a flat phi is not followed down a record: the law check
    # takes the flat pass on an unrecorded copy and on a flat copy of phi
    # over the original, with the verdict, reason and site of the check
    # through the original's factors
    w = krohn_rhodes_decompose(random_n(5, 1)).witness
    U = w.upper
    assert U.n_states == 6144 and U._factors is not None
    pairs = automata._law_pairs(w)
    flat = (len(w.phi) - w.phi.count(None)) * len(pairs)
    assert _cells_compared(w) < flat
    rng = random.Random(6144)
    witnesses = [w] + _one_entry_corruptions(w, rng) + _twin_column_corruptions(w, rng)
    verdicts = [verify_covering(c) for c in witnesses]
    assert verdicts[0] and not all(verdicts)
    X, tasks, blocks = _lawcheck.descend(U, w.phi, pairs)
    assert X is U and tasks == {(x, 0, 0, a) for x, a in pairs} and blocks == [w.phi]
    for V in (U, _unrecorded(U), pickle.loads(pickle.dumps(U))):
        assert V == U and (V is U or V._factors is None)
        assert _cells_compared(w, V) == flat
        for c, got in zip(witnesses, verdicts):
            copy = verify_covering(CoveringWitness(V, c.lower, c.phi, c.xi, check=False))
            assert (got.ok, got.reason, got.site) == (copy.ok, copy.reason, copy.site)


def test_pickled_composed_witness_is_flat_and_verifies():
    # a tree node's witness keeps phi composed over a product that records
    # its factors, and the product pickles with no record, so the witness
    # pickles flat, with phi expanded: the copy verifies, and with one phi
    # entry changed it gets the reason and site of the same change to a
    # flat copy over the original product
    w = krohn_rhodes_decompose(random_n(5, 1)).witness
    assert isinstance(w._phi, _lawcheck.Composed)
    back = pickle.loads(pickle.dumps(w))
    assert type(back) is CoveringWitness and type(back._phi) is tuple
    assert back.upper == w.upper and back.upper._factors is None
    assert (back.phi, back.xi) == (w.phi, w.xi)
    assert verify_covering(back)
    phi = list(w.phi)
    s = random.Random(1).choice([s for s, v in enumerate(phi) if v is not None])
    phi[s] = (phi[s] + 1) % w.lower.n_states
    got = verify_covering(CoveringWitness(back.upper, back.lower, phi, back.xi, check=False))
    want = verify_covering(CoveringWitness._from_parts(w.upper, w.lower, tuple(phi), w.xi))
    assert not got.ok and (got.reason, got.site) == (want.reason, want.site)


def test_pickled_tree_verifies_and_reports_the_same():
    # a whole tree round-trips through pickle: its automata come back from
    # their distinct columns with no record of factors, its witnesses flat,
    # and the copy verifies and renders the same report
    tree = krohn_rhodes_decompose(random_n(5, 0))
    copy = pickle.loads(pickle.dumps(tree))
    assert copy.automaton.n_states == 73728 and copy.automaton._factors is None
    assert verify_tree(copy)[0]
    assert render_tree_text(tree_report(copy)) == render_tree_text(tree_report(tree))


def test_kept_descent_follows_a_replaced_xi_or_lower():
    # a check keeps the descent on the witness; a copy given another xi, or
    # another lower automaton, after that check descends again from the new
    # law pairs and gets the verdict of a fresh witness with the same parts,
    # where the descent kept would miss the change
    def wide(w):
        twins = any(c != a for a, c in enumerate(w.lower._classes))
        cells = len(w.xi) * w.upper.n_states
        return twins and w.lower.n_states > 1 and cells >= automata._SYMBOL_PASS_CELLS

    tree = krohn_rhodes_decompose(random_n(5, 0))
    w = next(node.witness for node in iter_nodes(tree) if wide(node.witness))
    assert verify_covering(w)
    kept = w._descent
    assert kept is not None
    # xi sends a symbol to another upper column class
    classes = w.upper._classes
    x = next(x for x in range(w.upper.n_symbols) if classes[x] != classes[w.xi[0]])
    xi = (x,) + w.xi[1:]
    # a column of the lower that repeats another gets one cell changed
    L = w.lower
    a = next(a for a, c in enumerate(L._classes) if c != a)
    columns = [list(L.column(b)) for b in range(L.n_symbols)]
    v = next(v for v in w.phi if v is not None)
    columns[a][v] = (columns[a][v] + 1) % L.n_states
    lower = Semiautomaton.from_columns(L.state_labels, L.symbol_labels, columns)
    for name, value in (("xi", xi), ("lower", lower)):
        c = _checked_copy(w)
        setattr(c, name, value)
        got = verify_covering(c)
        fresh = CoveringWitness(c.upper, c.lower, c.phi, c.xi, check=False)
        want = verify_covering(fresh)
        assert not got.ok and (got.reason, got.site) == (want.reason, want.site)
        pairs = automata._law_pairs(fresh)
        assert pairs != automata._law_pairs(w)
        assert c._descent == _lawcheck.descend(c.upper, c._phi, pairs) != kept
        assert w._descent is kept


def test_composed_descent_stops_where_the_inner_phi_is_flat(monkeypatch):
    # a composed phi one level deep over U∘(V∘W), its inner phi flat over
    # V∘W, which records its factors too: the descent splits once and ends
    # on V∘W, and the check, on the phi of the identity cover and on copies
    # with one row entry changed, gives the verdict, reason and site of a
    # flat copy of phi
    monkeypatch.setattr(automata, "_FACTORED_STATES", 1)
    monkeypatch.setattr(automata, "_SYMBOL_PASS_CELLS", 1)
    U, V, W = (random_n(3, seed) for seed in range(3))
    VW = direct_product(V, W)
    X = direct_product(U, VW)
    assert VW._factors is not None and X._factors[1] is VW
    n = VW.n_states
    rows = [tuple(range(u * n, (u + 1) * n)) for u in range(U.n_states)]
    xi = tuple(range(X.n_symbols))
    cases = [rows]
    for s in (0, n - 1, 2 * n):
        bad = [list(r) for r in rows]
        bad[s // n][s % n] = (s + n + 1) % X.n_states
        cases.append([tuple(r) for r in bad])
    verdicts = []
    for case in cases:
        c = _lawcheck.Composed(tuple(range(U.n_states)), case, tuple(range(n)))
        Y, _, blocks = _lawcheck.descend(X, c, automata._law_pairs(identity_witness(X)))
        assert Y is VW and c._flat is None
        got = verify_covering(CoveringWitness._from_parts(X, X, c, xi))
        want = verify_covering(CoveringWitness._from_parts(X, X, c.expand(), xi))
        assert (got.ok, got.reason, got.site) == (want.ok, want.reason, want.site)
        verdicts.append(got.ok)
    assert verdicts[0] and not any(verdicts[1:])


def test_composed_phi_over_an_unrecorded_upper_checks_flat():
    # the random-5 seed-1 root keeps phi composed over its product's record;
    # with the upper replaced on the checked witness by its unpickled copy,
    # which records no factors, the descent stops at once and the check
    # expands phi: it verifies, and with one row-map entry changed it gets
    # the reason and site of the flat witness over that copy
    w = krohn_rhodes_decompose(random_n(5, 1)).witness
    c = w._phi
    assert isinstance(c, _lawcheck.Composed) and verify_covering(w)
    w.upper = pickle.loads(pickle.dumps(w.upper))
    assert w.upper._factors is None and verify_covering(w)
    assert _lawcheck.descend(w.upper, c, automata._law_pairs(w))[2] == [w.phi]
    rows = dict(enumerate(c.rows)) if isinstance(c.rows, list) else dict(c.rows)
    key = next(k for k in c.keys if k is not None)
    row = list(rows[key])
    p = next(p for p, v in enumerate(row) if v is not None)
    row[p] = (row[p] + 1) % w.lower.n_states
    rows[key] = tuple(row)
    bad = CoveringWitness._from_parts(w.upper, w.lower, _lawcheck.Composed(c.keys, rows, c.inner), w.xi)
    got = verify_covering(bad)
    want = verify_covering(CoveringWitness._from_parts(w.upper, w.lower, bad.phi, w.xi))
    assert not got.ok and (got.reason, got.site) == (want.reason, want.site)
    assert got.site is not None, got.reason


def test_composed_phi_split_otherwise_than_the_record_checks_flat(monkeypatch):
    # compositions of the identity cover of U∘(V∘W) (2, 2 and 3 states)
    # that split its 12 states otherwise than the record does: 3 blocks of
    # 4 at the top, or 2 of 6 over an inner composition of 3 blocks of 2.
    # The descent stops where the shapes first disagree, at the top or on
    # V∘W, and each check, and each with two entries of a row map swapped,
    # gets the verdict, reason and site of the flat witness
    monkeypatch.setattr(automata, "_FACTORED_STATES", 1)
    monkeypatch.setattr(automata, "_SYMBOL_PASS_CELLS", 1)
    U, V = (Semiautomaton(["p", "q"], ["a", "b"], [[1, 0], [0, 0]]) for _ in range(2))
    W = Semiautomaton(["0", "1", "2"], ["a", "b"], [[1, 0], [2, 1], [0, 2]])
    X = direct_product(U, direct_product(V, W))
    pairs = automata._law_pairs(identity_witness(X))

    def blocks(n, width, inner):
        return _lawcheck.Composed(range(n), [tuple(range(k * width, (k + 1) * width))
                                             for k in range(n)], inner)
    cases = [(blocks(3, 4, tuple(range(4))), X),
             (blocks(2, 6, blocks(3, 2, (0, 1))), X._factors[1])]
    for c, stop in cases:
        assert _lawcheck.descend(X, c, pairs)[0] is stop
        for swapped in (None, 0, 1):
            phi = c
            if swapped is not None:
                rows = list(c.rows)
                row = list(rows[swapped])
                row[0], row[1] = row[1], row[0]
                rows[swapped] = tuple(row)
                phi = _lawcheck.Composed(c.keys, rows, c.inner)
            got = verify_covering(CoveringWitness._from_parts(X, X, phi, (0, 1)))
            want = verify_covering(CoveringWitness._from_parts(X, X, phi.expand(), (0, 1)))
            assert (got.ok, got.reason, got.site) == (want.ok, want.reason, want.site)
            assert got.ok == (swapped is None), got


def test_failing_root_state_renders_no_factor_label():
    # naming a failing state of the random-6 seed-0 root renders the labels
    # of the root's factors for that one call and keeps none of them; the
    # reason is the one that full rendering of the factor labels gives
    w = krohn_rhodes_decompose(random6(0)).witness
    upper = w.upper
    A, B, _ = upper._factors
    phi = list(w.phi)
    s = next(s for s in range(len(phi) // 2, len(phi)) if phi[s] is not None)
    phi[s] = (phi[s] + 1) % w.lower.n_states
    result = verify_covering(CoveringWitness(upper, w.lower, phi, w.xi, check=False))
    assert B.n_states == 46_080
    assert vars(upper)["_state_labels"] is None and vars(B)["_state_labels"] is None
    t = result.site[0]
    label = product_state_labels(A.state_labels, B.state_labels)[t]
    symbol = w.lower.symbol_labels[result.site[1]]
    assert result.reason == "covering law fails at state %s under symbol %s" % (label, symbol)


def _recorded_products(tree):
    """The products that record their factors among the tree's node
    automata and, down their records, among their factors."""
    found, stack = {}, [node.automaton for node in iter_nodes(tree)]
    while stack:
        X = stack.pop()
        if X._factors is not None and id(X) not in found:
            found[id(X)] = X
            stack.extend(X._factors[:2])
    return list(found.values())


def _table_built(X):
    """Whether X holds its table: a product that records its factors holds
    none until something reads it."""
    return "_table" in vars(X)


@pytest.mark.parametrize(
    "name", ["random5-%d" % seed for seed in range(10)] + ["random6-0", "random6-4", "random6-6"]
)
def test_public_path_builds_no_recorded_table(request, name):
    # decomposing, verifying, reporting and rendering read no table of a
    # product that records its factors: the law check reads the record down
    # to an automaton that records none, and the reports read counts
    tree = krohn_rhodes_decompose(_named(request, name))
    ok, _ = verify_tree(tree, sim_len=6)
    report = tree_report(tree, sim_len=6)
    render_tree_text(report)
    json.dumps(report, indent=2)
    assert ok and report["witnesses_verified"]
    recorded = _recorded_products(tree)
    # seeds 4 and 6 of random-6 end at the chain cap with no product that large
    assert recorded or name in ("random6-4", "random6-6")
    assert [X.n_states for X in recorded if _table_built(X)] == []


def _composed_phis(tree):
    """The compositions of phi that the tree's node witnesses keep and,
    down their inner phis, the ones those keep."""
    found, stack = {}, [node.witness._phi for node in iter_nodes(tree)]
    while stack:
        c = stack.pop()
        if isinstance(c, _lawcheck.Composed) and id(c) not in found:
            found[id(c)] = c
            stack.append(c.inner)
    return list(found.values())


@pytest.mark.parametrize(
    "name", ["random5-%d" % seed for seed in range(10)] + ["random6-0", "random6-4", "random6-6"]
)
def test_public_path_expands_no_composed_phi(request, name):
    # decomposing, verifying, reporting and rendering expand no phi that a
    # node witness keeps composed: the law check descends through the
    # composition and expands only its deepest distinct blocks, and the
    # reports read no phi; a later read of phi gives the tuples that the
    # tree's digest was pinned with
    tree = krohn_rhodes_decompose(_named(request, name))
    ok, _ = verify_tree(tree, sim_len=6)
    report = tree_report(tree, sim_len=6)
    render_tree_text(report)
    json.dumps(report, indent=2)
    assert ok and report["witnesses_verified"]
    composed = _composed_phis(tree)
    # seeds 4 and 6 of random-6 end at the chain cap with no product that large
    assert composed or name in ("random6-4", "random6-6")
    assert [len(c.keys) for c in composed if c._flat is not None] == []
    assert _load_script().tree_digest(tree) == _expected()[name]


@pytest.fixture(scope="module")
def recorded_factors():
    """The record of the 6,144-state root of random-5 seed 1."""
    root = krohn_rhodes_decompose(random_n(5, 1)).automaton
    assert root.n_states == 6144
    return root._factors


def _eager_product(factors):
    """The product of the record, its table built by _product itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automata, "_FACTORED_STATES", automata._STATE_LIMIT + 1)
        X = automata._product(*factors)
    assert X._factors is None and _table_built(X)
    return X


READERS = {
    "delta": lambda X: tuple(X.delta),
    "column": lambda X: [X.column(a).tolist() for a in range(X.n_symbols)],
    "step": lambda X: [X.step(s, a) for s in (0, 1, -1) for a in range(X.n_symbols)],
    "table": lambda X: X.table.tolist(),
    "kinds": lambda X: X._kinds,
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reading_a_recorded_product_builds_its_table(recorded_factors, reader):
    eager = _eager_product(recorded_factors)
    X = automata._product(*recorded_factors)
    assert X._factors == recorded_factors and not _table_built(X)
    assert READERS[reader](X) == READERS[reader](eager)
    assert _table_built(X) and X._table == eager._table
    # the built table is kept, and the table view is a view of it
    assert X.table.obj is X._table


def test_recorded_product_compares_and_pickles_as_built(recorded_factors):
    eager = _eager_product(recorded_factors)
    X = automata._product(*recorded_factors)
    # the classes come from the record, with no table built
    assert (X._classes, X._firsts) == (eager._classes, eager._firsts)
    assert not _table_built(X)
    assert X == eager and _table_built(X)
    X = automata._product(*recorded_factors)
    copy = pickle.loads(pickle.dumps(X))
    assert _table_built(X)
    assert type(copy) is Semiautomaton and copy._factors is None
    assert copy == eager and copy.state_labels == eager.state_labels
