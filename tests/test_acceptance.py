"""Acceptance gate: exact-table regression plus seeded property sweeps.

One test per criterion; each enforces its own runtime budget. All expected
tables are hand-computed in conftest.py or inline here, never read back from
the library.
"""

import itertools
import random
import time

from krcascade import (
    Congruence,
    InvalidInputError,
    LEAF_GROUPLIKE,
    LEAF_RESET,
    MonoidHom,
    Transformation,
    cascade_cover_from_decomposition,
    cascade_cover_from_partition,
    closure_generate,
    complementary_partition,
    cover_permutation_by_grouplike,
    d_factor,
    grouplike_cascade_split,
    grouplike_of,
    hom_factorize,
    is_admissible_decomposition,
    is_admissible_partition,
    is_complete,
    is_reset,
    is_simple,
    iter_nodes,
    krohn_rhodes_decompose,
    leaves,
    p_factor,
    pr_chain,
    quotient_monoid,
    right_regular_representation,
    simulation_counterexample,
    split_permutation_reset,
    transition_monoid,
    verify_covering,
    yoeli_auxiliary,
)

from conftest import make_random_automaton


def test_criterion_1_transition_monoid_oracle(sa3):
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        M = transition_monoid(sa3)
        best = min(best, time.perf_counter() - t0)
    assert M.order == 4
    assert {t.image for t in M.transformations} == {
        (0, 1, 2),  # identity
        (0, 0, 0),  # a
        (1, 1, 2),  # b
        (1, 1, 1),  # ab
    }
    assert best < 0.001


def test_criterion_2_partition_cascade_cover(seven_state, seven_p):
    t0 = time.perf_counter()
    assert is_admissible_partition(seven_state, seven_p)
    B, _ = p_factor(seven_state, seven_p)
    assert [B.delta[i][0] for i in range(3)] == [0, 1, 2]
    assert [B.delta[i][1] for i in range(3)] == [1, 0, 2]
    Q = complementary_partition(7, seven_p)
    assert Q.blocks == ((0, 3, 6), (1, 4), (2, 5))
    cov = cascade_cover_from_partition(seven_state, seven_p)
    printed_cols = {
        0: [1, 0, 2],
        1: [1, 2, 1],
        2: [1, 0, 1],
        3: [0, 1, 1],
        4: [0, 0, 0],
        5: [0, 0, 0],
    }
    for sym, col in printed_cols.items():
        for j in range(3):
            if (j, sym) in cov.dont_care:
                continue  # starred in the source table, value is arbitrary
            assert cov.c.delta[j][sym] == col[j]
    assert cov.dont_care == {(1, 4), (1, 5), (2, 4), (2, 5)}
    assert verify_covering(cov.witness)
    assert simulation_counterexample(cov.witness, 6) is None
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_decomposition_cascade_cover(six_state, six_d):
    t0 = time.perf_counter()
    assert is_admissible_decomposition(six_state, six_d)
    aux = yoeli_auxiliary(six_state, six_d)
    assert aux.a_star.n_states == 8
    assert [aux.a_star.delta[k][0] for k in range(8)] == [1, 0, 2, 2, 0, 2, 3, 5]
    assert [aux.a_star.delta[k][1] for k in range(8)] == [5, 4, 3, 2, 2, 2, 2, 2]
    assert is_admissible_partition(aux.a_star, aux.d_star)
    B, _ = d_factor(six_state, six_d)
    assert aux.b_star.delta == B.delta
    cov = cascade_cover_from_decomposition(six_state, six_d)
    assert cov.witness.lower is six_state
    assert verify_covering(cov.witness)
    assert simulation_counterexample(cov.witness, 6) is None
    assert time.perf_counter() - t0 < 1.0


def test_criterion_4_permutation_reset_split(five_state):
    t0 = time.perf_counter()
    chain = pr_chain(five_state)
    first = chain.factors[0]
    assert [first.delta[i][0] for i in range(5)] == [1, 2, 3, 4, 0]
    assert [first.delta[i][1] for i in range(5)] == [0, 0, 0, 0, 0]

    split = split_permutation_reset(first)
    assert split.pi.n_states == 5
    for x in range(5):
        assert [split.r.delta[s][x * 2] for s in range(5)] == [0, 1, 2, 3, 4]
    for x, c in enumerate([0, 4, 3, 2, 1]):
        assert [split.r.delta[s][x * 2 + 1] for s in range(5)] == [c] * 5
    assert verify_covering(split.witness)

    G, w = cover_permutation_by_grouplike(split.pi)
    assert G.order == 5
    assert is_simple(G)
    assert verify_covering(w)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_5_klein_coset_split(klein):
    split = grouplike_cascade_split(klein, [0, 1])
    printed_b = {0: [0, 1], 1: [0, 1], 2: [1, 0], 3: [1, 0]}
    for sym, col in printed_b.items():
        assert [split.b.delta[i][sym] for i in range(2)] == col
    expected_c = grouplike_of(split.h_group)
    assert split.c_prime.delta == expected_c.delta
    assert split.h_group.order == 2
    assert verify_covering(split.witness)
    assert simulation_counterexample(split.witness, 6) is None


def test_criterion_6_full_pipeline(five_state):
    t0 = time.perf_counter()
    tree = krohn_rhodes_decompose(five_state)
    assert is_complete(tree)
    orders = []
    for leaf in leaves(tree):
        assert leaf.kind in (LEAF_GROUPLIKE, LEAF_RESET)
        if leaf.kind == LEAF_GROUPLIKE:
            assert is_simple(leaf.group)
            orders.append(leaf.group.order)
        else:
            assert leaf.automaton.n_states == 2
            assert is_reset(leaf.automaton)
    assert 5 in orders
    assert tree.witness.lower is five_state
    assert verify_covering(tree.witness)
    assert simulation_counterexample(tree.witness, 6) is None
    assert time.perf_counter() - t0 < 10.0


def test_criterion_7_seeded_property_sweep():
    t0 = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        A = make_random_automaton(rng, max_states=3, max_symbols=2)
        tree = krohn_rhodes_decompose(A)
        for node in iter_nodes(tree):
            assert verify_covering(node.witness), seed
            assert simulation_counterexample(node.witness, 6) is None, seed
        assert is_complete(tree), seed
        for leaf in leaves(tree):
            if leaf.kind == LEAF_GROUPLIKE:
                assert is_simple(leaf.group), seed
                assert leaf.automaton.delta == grouplike_of(leaf.group).delta, seed
            else:
                assert leaf.kind == LEAF_RESET, seed
                assert leaf.automaton.n_states == 2, seed
                assert is_reset(leaf.automaton), seed
    assert time.perf_counter() - t0 < 60.0


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1 :]
        yield [[head]] + smaller


def test_criterion_8_algebra_oracle_suite():
    rng = random.Random(8)
    monoids = []
    while len(monoids) < 40:
        n = rng.randint(1, 3)
        gens = [
            Transformation([rng.randrange(n) for _ in range(n)])
            for _ in range(rng.randint(0, 2))
        ]
        M = closure_generate(gens, domain_size=n)
        if M.order <= 4:
            monoids.append((M, gens, n))

    for M, gens, n in monoids:
        imgs = {t.image for t in M.transformations}
        assert len(imgs) == M.order
        assert Transformation.identity(n).image in imgs
        for a in M.transformations:
            for b in M.transformations:
                assert a.compose(b).image in imgs
        k = M.order
        for i in range(k):
            for j in range(k):
                for l in range(k):
                    assert M.mul(M.mul(i, j), l) == M.mul(i, M.mul(j, l))
        assert all(M.mul(M.identity, x) == x == M.mul(x, M.identity) for x in range(k))

        N, iso = right_regular_representation(M)
        assert iso.is_injective()
        assert len({t.image for t in N.transformations}) == k

        # every congruence's quotient obeys the projection and factorization laws
        for blocks in _set_partitions(list(range(k))):
            class_of = [0] * k
            for ci, block in enumerate(blocks):
                for x in block:
                    class_of[x] = ci
            try:
                c = Congruence(M, class_of)
            except InvalidInputError:
                continue
            Q, pi = quotient_monoid(M, c)
            assert isinstance(pi, MonoidHom)
            for x in range(k):
                for y in range(k):
                    assert pi(M.mul(x, y)) == Q.mul(pi(x), pi(y))
            proj, mono = hom_factorize(pi)
            assert mono.is_injective()
            assert [mono(proj(x)) for x in range(k)] == list(pi.map)
