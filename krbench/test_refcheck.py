"""The reference checker must accept real trees and reject broken ones, so
that the benchmark's correctness gate cannot pass vacuously.

    python3 -m pytest krbench
"""

import dataclasses
import random

import pytest

import corpus
import refcheck
from krcascade import CascadeNode, CoveringWitness, Semiautomaton, iter_nodes, io, pipeline

KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
CYCLIC5 = [[(x + g) % 5 for g in range(5)] for x in range(5)]


def decompose(auto):
    return pipeline.krohn_rhodes_decompose(io.parse_automaton(auto.to_json()))


@pytest.fixture(scope="module")
def readme_tree():
    return decompose(corpus.readme_example())


def test_readme_example_known_answer(readme_tree):
    stats = refcheck.check_tree(readme_tree, corpus.readme_example(), random.Random(0))
    assert stats["root_states"] == corpus.README_ROOT_STATES
    kinds = {}
    for kind, n in stats["leaves"]:
        kinds.setdefault(kind, []).append(n)
    assert kinds == corpus.README_LEAVES


@pytest.mark.parametrize(
    "auto",
    [corpus.sweep3_automaton(s) for s in range(100)]
    + [corpus.random_n_automaton(4, s) for s in range(10)]
    + [corpus.random_n_automaton(5, s) for s in range(10)],
    ids=lambda a: a.name,
)
def test_accepts_every_tree_of_the_corpora(auto):
    stats = refcheck.check_tree(decompose(auto), auto, random.Random(1))
    assert stats["raw"] == 0


def test_rejects_corrupted_witness(readme_tree):
    w = readme_tree.witness
    s = w.dom[0]
    phi = list(w.phi)
    phi[s] = (phi[s] + 1) % w.lower.n_states
    verdict = refcheck.witness_verdict(w.upper.delta, w.lower.delta, phi, w.xi)
    assert not verdict.is_covering and not verdict.law_holds
    bad = CoveringWitness(w.upper, w.lower, phi, w.xi, check=False)
    with pytest.raises(refcheck.CheckFailure, match="witness rejected"):
        refcheck.check_tree(
            dataclasses.replace(readme_tree, witness=bad),
            corpus.readme_example(),
            random.Random(0),
        )


def test_rejects_witness_that_is_not_onto():
    A = Semiautomaton(["p", "q"], ["a"], [[0], [1]])
    verdict = refcheck.witness_verdict(A.delta, A.delta, [0, 0], [0])
    assert verdict.law_holds and not verdict.is_covering


def test_replay_finds_the_broken_word():
    upper = [[1], [0]]
    lower = [[0], [1]]
    assert refcheck.replay_violates(upper, lower, [0, 1], [0], 0, [0])
    assert not refcheck.replay_violates(lower, lower, [0, 1], [0], 0, [0, 0])


def test_rejects_product_table_with_one_wrong_cell(readme_tree):
    node = next(n for n in iter_nodes(readme_tree) if isinstance(n, CascadeNode))
    refcheck.check_product(node)
    A = node.automaton
    delta = [list(row) for row in A.delta]
    delta[3][1] = (delta[3][1] + 1) % A.n_states
    broken = Semiautomaton(A.state_labels, A.symbol_labels, delta)
    with pytest.raises(refcheck.CheckFailure, match="product table differs"):
        refcheck.check_product(dataclasses.replace(node, automaton=broken))


def test_group_tables():
    refcheck.check_simple_group_table(CYCLIC5)
    refcheck.check_simple_group_table([[0]])
    with pytest.raises(refcheck.CheckFailure, match="not simple"):
        refcheck.check_simple_group_table(KLEIN)
    with pytest.raises(refcheck.CheckFailure, match="not associative"):
        # a Latin square with identity 0 in which every element is its own
        # inverse: a loop of order 5, which no group of order 5 can be
        refcheck.check_simple_group_table(
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        )


def test_klein_leaf_is_rejected_in_a_tree():
    leaf = pipeline.Leaf(
        refcheck.LEAF_GROUPLIKE,
        Semiautomaton("eabc", "eabc", KLEIN),
        CoveringWitness(
            Semiautomaton("eabc", "eabc", KLEIN),
            Semiautomaton("eabc", "eabc", KLEIN),
            range(4),
            range(4),
        ),
    )
    source = corpus.Automaton("klein", "eabc", "eabc", KLEIN)
    with pytest.raises(refcheck.CheckFailure, match="not simple"):
        refcheck.check_tree(leaf, source, random.Random(0))


def test_reset_tables():
    refcheck.check_reset_table([[0, 1, 0], [1, 1, 1]])
    with pytest.raises(refcheck.CheckFailure, match="3 states"):
        refcheck.check_reset_table([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(refcheck.CheckFailure, match="neither identity nor constant"):
        refcheck.check_reset_table([[1], [0]])
