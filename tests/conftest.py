"""Shared fixtures: the worked examples with hand-computed expected values.

Transition tables are frozen here as independent oracles; the library is never
asked to confirm itself against values it produced.
"""

import random

import pytest

from krcascade import Decomposition, FiniteMonoid, Partition, Semiautomaton, group_from_table
from krcascade.automata import _unique_labels

KLEIN_TABLE = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]

# order-3 monoid whose identity is the LAST element; e is absorbing, not neutral
MEB_TABLE = [
    [2, 1, 0],
    [1, 1, 1],
    [0, 1, 2],
]


@pytest.fixture
def meb():
    return FiniteMonoid(["a", "e", "b"], MEB_TABLE, identity=2)


@pytest.fixture
def klein():
    return group_from_table(KLEIN_TABLE, labels=["e", "a", "b", "c"])


@pytest.fixture
def sa3():
    # a resets to state 1, b folds 2 onto itself and fixes 3
    return Semiautomaton(["1", "2", "3"], ["a", "b"], [[0, 1], [0, 1], [0, 2]])


@pytest.fixture
def sa2():
    return Semiautomaton(["1", "2"], ["a", "b"], [[0, 1], [0, 1]])


@pytest.fixture
def seven_state():
    return Semiautomaton.from_columns(
        [str(i) for i in range(1, 8)],
        ["a", "b"],
        [[1, 0, 2, 4, 3, 4, 6], [4, 5, 4, 0, 1, 1, 6]],
    )


@pytest.fixture
def seven_p():
    return Partition(7, [[0, 1, 2], [3, 4, 5], [6]])


@pytest.fixture
def six_state():
    return Semiautomaton.from_columns(
        [str(i) for i in range(1, 7)],
        ["a", "b"],
        [[1, 0, 2, 0, 2, 4], [4, 3, 2, 2, 2, 2]],
    )


@pytest.fixture
def six_d():
    return Decomposition(6, [[0, 1, 2], [2, 3, 4], [4, 5]])


@pytest.fixture
def five_state():
    # one cyclic input, one input that is neither a permutation nor a reset
    return Semiautomaton.from_columns(
        [str(i) for i in range(1, 6)],
        ["a", "b"],
        [[1, 2, 3, 4, 0], [1, 3, 4, 2, 1]],
    )


@pytest.fixture
def five_pr():
    # the first chain factor of five_state, already permutation-reset
    return Semiautomaton.from_columns(
        [str(i) for i in range(1, 6)],
        ["a", "b"],
        [[1, 2, 3, 4, 0], [0, 0, 0, 0, 0]],
    )


def make_random_automaton(rng: random.Random, max_states: int = 4, max_symbols: int = 3):
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_symbols)
    delta = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    return Semiautomaton(
        ["s%d" % i for i in range(n)],
        ["abcdefgh"[j] for j in range(m)],
        delta,
    )


@pytest.fixture
def random_automaton():
    return make_random_automaton


def product_state_labels(left, right):
    """The state labels of a product whose factors have the state labels
    left and right, formatted here: "(l,r)" for each pair, state-major, or
    "q" and the state's index where that is over 80 characters, with each
    repeat then renamed by _unique_labels."""
    labels = ["(%s,%s)" % (l, r) for l in left for r in right]
    return _unique_labels(
        lab if len(lab) <= 80 else "q%d" % k for k, lab in enumerate(labels)
    )
