"""Admissible partitions, decompositions, and the two cascade cover routes.

Expected tables were computed by hand from the transition columns in
conftest.py before the implementation existed.
"""

import re

import pytest

from krcascade import (
    Decomposition,
    InvalidInputError,
    Partition,
    Semiautomaton,
    cascade_cover_from_decomposition,
    cascade_cover_from_partition,
    cascade_product,
    complementary_partition,
    compose_coverings,
    d_factor,
    is_admissible_decomposition,
    is_admissible_partition,
    p_factor,
    simulation_counterexample,
    verify_covering,
    yoeli_auxiliary,
)


def test_partition_validation():
    p = Partition(4, [[2, 0], [1], [3]])
    assert p.blocks == ((0, 2), (1,), (3,))
    assert p.block_of == (0, 1, 0, 2)
    assert p.count == 3
    assert p.max_block_size == 2
    assert isinstance(p, Decomposition) and p.is_partition()
    assert repr(p) == "Partition([[0, 2], [1], [3]])"
    # a block is a set of states, as a decomposition's is
    assert Partition(3, [[0, 0, 1], [2]]) == Partition(3, [[1, 0], [2]])
    with pytest.raises(InvalidInputError, match="^empty block$"):
        Partition(3, [[0, 1], [], [2]])
    with pytest.raises(InvalidInputError, match="^state 3 out of range$"):
        Partition(3, [[0, 1], [3]])
    with pytest.raises(InvalidInputError, match="^state 1 appears in two blocks$"):
        Partition(3, [[0, 1], [1, 2]])
    with pytest.raises(InvalidInputError, match="^blocks do not cover the state set$"):
        Partition(3, [[0, 1]])


def test_decomposition_validation():
    d = Decomposition(4, [[0, 1, 2], [2, 3]])
    assert d.blocks == ((0, 1, 2), (2, 3))
    assert d.count == 2
    assert d.max_block_size == 3
    assert not d.is_partition()
    assert repr(d) == "Decomposition([[0, 1, 2], [2, 3]])"
    assert Decomposition(2, [[0], [1]]).is_partition()
    with pytest.raises(InvalidInputError, match="^empty block$"):
        Decomposition(3, [[0, 1], []])
    with pytest.raises(InvalidInputError, match="^state 5 out of range$"):
        Decomposition(3, [[0, 1], [5]])
    with pytest.raises(InvalidInputError, match="^blocks do not cover the state set$"):
        Decomposition(3, [[0, 1]])


@pytest.mark.parametrize("cls", [Partition, Decomposition])
@pytest.mark.parametrize(
    "n_states, blocks, message",
    [
        (3, [[0, 1], [2.7]], "state 2.7 is not an integer"),
        (3, [[0, 1.9], ["2"]], "state 1.9 is not an integer"),
        (3, [[0, 1], ["2"]], "state '2' is not an integer"),
        (3.0, [[0, 1], [2]], "state count 3.0 is not an integer"),
    ],
    ids=["float", "first-non-integer", "str", "float-count"],
)
def test_a_non_integer_state_is_named(cls, n_states, blocks, message):
    # refused as a transition target is, never truncated or parsed
    with pytest.raises(InvalidInputError, match="^%s$" % re.escape(message)):
        cls(n_states, blocks)


def test_integer_like_states_are_taken():
    # anything with __index__ is a state, as it is a transition target
    assert Partition(2, [[False], [True]]).blocks == ((0,), (1,))
    assert Decomposition(2, [[0, True], [1]]).blocks == ((0, 1), (1,))


def test_admissibility(seven_state, seven_p, six_state, six_d):
    assert is_admissible_partition(seven_state, seven_p)
    assert not is_admissible_partition(seven_state, Partition(7, [[0], [1, 2, 3, 4, 5, 6]]))
    with pytest.raises(InvalidInputError):
        is_admissible_partition(seven_state, Partition(3, [[0], [1, 2]]))

    assert is_admissible_decomposition(six_state, six_d)
    assert not is_admissible_decomposition(six_state, Decomposition(6, [[0, 1], [2, 3], [4, 5]]))
    with pytest.raises(InvalidInputError):
        is_admissible_decomposition(six_state, Decomposition(2, [[0], [1]]))


def test_p_factor(seven_state, seven_p):
    B, w = p_factor(seven_state, seven_p)
    assert B.state_labels == ("{1,2,3}", "{4,5,6}", "{7}")
    assert B.symbol_labels == seven_state.symbol_labels
    assert [B.delta[i][0] for i in range(3)] == [0, 1, 2]
    assert [B.delta[i][1] for i in range(3)] == [1, 0, 2]
    assert w.phi == (0, 0, 0, 1, 1, 1, 2)
    assert w.xi == (0, 1)
    assert verify_covering(w)
    assert simulation_counterexample(w, 6) is None


def test_p_factor_rejects_non_admissible(seven_state):
    with pytest.raises(InvalidInputError):
        p_factor(seven_state, Partition(7, [[0], [1, 2, 3, 4, 5, 6]]))


def test_d_factor(six_state, six_d):
    B, fc = d_factor(six_state, six_d)
    assert [B.delta[i][0] for i in range(3)] == [0, 0, 1]
    assert [B.delta[i][1] for i in range(3)] == [1, 0, 0]
    assert fc.target_block == ((0, 1), (0, 0), (1, 0))
    assert fc.dont_care == {(1, 1), (2, 1)}


def test_d_factor_choice_override(six_state, six_d):
    # both arbitrary cells may legally point at block 1 instead
    B, fc = d_factor(six_state, six_d, choice=[[0, 1], [0, 1], [1, 1]])
    assert B.delta[1][1] == 1
    assert B.delta[2][1] == 1
    assert fc.dont_care == {(1, 1), (2, 1)}
    # block 1 under b lands in {3}, never inside block 2
    with pytest.raises(InvalidInputError):
        d_factor(six_state, six_d, choice=[[0, 1], [0, 2], [1, 0]])


@pytest.mark.parametrize(
    "choice",
    [
        [[0, 1]],
        [[0], [0, 1], [1, 1]],
        [[0, 1, 9], [0, 1, 9], [1, 1, 9]],
        [[0, 1], [0, 1], [1, 1], [0, 0]],
        [[0, 1], ["x", 1], [1, 1]],
    ],
    ids=["one-row", "short-row", "long-rows", "fourth-row", "not-an-index"],
)
def test_choice_table_of_the_wrong_shape_is_named(six_state, six_d, choice):
    # a choice table is |D| x |alphabet| block indices, here 3 x 2, and the
    # valid [[0, 1], [0, 1], [1, 1]] of test_d_factor_choice_override cut
    # short, widened, lengthened or given a string is refused as such, also
    # through the cascade cover that passes it on
    for build in (d_factor, cascade_cover_from_decomposition):
        with pytest.raises(InvalidInputError, match="choice table must be 3 x 2"):
            build(six_state, six_d, choice)


def test_complementary_partition(seven_p):
    Q = complementary_partition(7, seven_p)
    assert Q.blocks == ((0, 3, 6), (1, 4), (2, 5))
    with pytest.raises(InvalidInputError):
        complementary_partition(9, seven_p)


def test_cascade_cover_from_partition(seven_state, seven_p):
    cov = cascade_cover_from_partition(seven_state, seven_p)
    assert cov.b.state_labels == ("{1,2,3}", "{4,5,6}", "{7}")
    assert cov.c.state_labels == ("{1,4,7}", "{2,5}", "{3,6}")
    assert cov.c.symbol_labels == (
        "({1,2,3},a)",
        "({1,2,3},b)",
        "({4,5,6},a)",
        "({4,5,6},b)",
        "({7},a)",
        "({7},b)",
    )
    expect_cols = {
        0: [1, 0, 2],
        1: [1, 2, 1],
        2: [1, 0, 1],
        3: [0, 1, 1],
        4: [0, 0, 0],
        5: [0, 0, 0],
    }
    for sym, col in expect_cols.items():
        assert [cov.c.delta[j][sym] for j in range(3)] == col, sym
    assert cov.dont_care == {(1, 4), (1, 5), (2, 4), (2, 5)}
    assert cov.omega == ((0, 1), (2, 3), (4, 5))
    assert cov.product == cascade_product(cov.b, cov.c, cov.omega)
    assert cov.product.n_states == 9
    assert cov.witness.phi == (0, 1, 2, 3, 4, 5, 6, None, None)
    assert verify_covering(cov.witness)
    assert simulation_counterexample(cov.witness, 6) is None


def test_cascade_cover_rejects_bad_complement(seven_state, seven_p):
    bad_q = Partition(7, [[0, 1, 3, 6], [2, 4], [5]])
    with pytest.raises(InvalidInputError):
        cascade_cover_from_partition(seven_state, seven_p, q=bad_q)


@pytest.mark.parametrize("n", [3, 9])
def test_complement_over_another_state_count_is_named(seven_state, seven_p, n):
    # a given complement over 3 or 9 states, against 7, used to index past
    # a table or a block map and raise IndexError
    q = Partition(n, [range(j, n, 3) for j in range(3)])
    with pytest.raises(InvalidInputError, match="^partition is over a different state count$"):
        cascade_cover_from_partition(seven_state, seven_p, q=q)


@pytest.mark.parametrize(
    "D",
    [
        Decomposition(8, [[5, 6, 7], [0, 1, 2, 3], [3, 4]]),
        Decomposition(4, [[0, 1], [1, 2], [2, 3]]),
    ],
    ids=["8-states", "4-states"],
)
def test_yoeli_names_a_decomposition_over_another_state_count(six_state, six_d, D):
    # with the factor of six_d given, a decomposition over 8 states used to
    # raise IndexError and one over 4 states a containment fault
    with pytest.raises(InvalidInputError, match="^decomposition is over a different state count$"):
        yoeli_auxiliary(six_state, D, factor=d_factor(six_state, six_d))


def test_yoeli_auxiliary(six_state, six_d):
    aux = yoeli_auxiliary(six_state, six_d)
    assert aux.states == ((0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2), (5, 2))
    assert [aux.a_star.delta[k][0] for k in range(8)] == [1, 0, 2, 2, 0, 2, 3, 5]
    assert [aux.a_star.delta[k][1] for k in range(8)] == [5, 4, 3, 2, 2, 2, 2, 2]
    assert aux.d_star.blocks == ((0, 1, 2), (3, 4, 5), (6, 7))
    assert is_admissible_partition(aux.a_star, aux.d_star)
    B, _ = d_factor(six_state, six_d)
    assert aux.b_star.delta == B.delta
    assert aux.witness.phi == (0, 1, 2, 2, 3, 4, 4, 5)
    assert verify_covering(aux.witness)
    assert simulation_counterexample(aux.witness, 6) is None


def test_repeated_column_keeps_its_own_choices(six_state, six_d):
    # b and c have one column in A, but the choice table sends their
    # arbitrary cells to different blocks, so their columns differ in B and
    # in A*: work shared by a column class of A must also follow B's classes
    a, b = (list(six_state.column(j)) for j in range(2))
    A = Semiautomaton.from_columns(six_state.state_labels, ["a", "b", "c"], [a, b, b])
    B, fc = d_factor(A, six_d, choice=[[0, 1, 1], [0, 0, 1], [1, 0, 1]])
    assert fc.dont_care == {(1, 1), (2, 1), (1, 2), (2, 2)}
    assert list(B.column(1)) == [1, 0, 0] and list(B.column(2)) == [1, 1, 1]
    aux = yoeli_auxiliary(A, six_d, (B, fc))
    index = {pair: k for k, pair in enumerate(aux.states)}
    for x in range(3):
        col, b_col = A.column(x), B.column(x)
        assert list(aux.a_star.column(x)) == [index[(col[s], b_col[i])] for s, i in aux.states]
    assert aux.b_star.table == B.table
    # a containment fault in c's column of B is named at c
    bad = Semiautomaton.from_columns(
        B.state_labels, B.symbol_labels, [list(B.column(0)), list(B.column(1)), [0, 1, 1]]
    )
    with pytest.raises(InvalidInputError, match="at block 0, symbol c$"):
        yoeli_auxiliary(A, six_d, factor=(bad, fc))


def test_yoeli_rejects_mismatched_factor(six_state, six_d):
    B, fc = d_factor(six_state, six_d)
    wrong = Semiautomaton(["x", "y", "z"], ["a", "b"], [[1, 1], [2, 2], [0, 0]])
    with pytest.raises(InvalidInputError):
        yoeli_auxiliary(six_state, six_d, factor=(wrong, fc))


def test_cascade_cover_from_decomposition(six_state, six_d):
    cov = cascade_cover_from_decomposition(six_state, six_d)
    assert cov.b_star.n_states == 3
    assert cov.c.n_states == 3
    assert cov.product.n_states == 9
    assert cov.witness.upper is cov.product
    assert cov.witness.lower is six_state
    assert verify_covering(cov.witness)
    assert simulation_counterexample(cov.witness, 6) is None
    assert cov.factor_choice.dont_care == {(1, 1), (2, 1)}


def test_full_size_decomposition_of_cyclic_example(five_state):
    # blocks are the 4-element subsets, ascending by which state is left out
    D = Decomposition(5, [[s for s in range(5) if s != i] for i in range(5)])
    assert is_admissible_decomposition(five_state, D)
    aux = yoeli_auxiliary(five_state, D)
    assert aux.a_star.n_states == 20
    assert aux.states == tuple((s, i) for i in range(5) for s in range(5) if s != i)

    # group the auxiliary states by original state instead of by block
    q = Partition(
        20,
        [[k for k, (s, i) in enumerate(aux.states) if s == j] for j in range(5)],
    )
    cov = cascade_cover_from_partition(aux.a_star, aux.d_star, q=q)
    assert cov.c.n_states == 5

    # cell (j, (i,x)) moves j by input x whenever j is inside block i
    ta = [1, 2, 3, 4, 0]
    tb = [1, 3, 4, 2, 1]
    for j in range(5):
        for i in range(5):
            for x, t in ((0, ta), (1, tb)):
                sym = i * 2 + x
                if j == i:
                    assert (j, sym) in cov.dont_care
                    assert cov.c.delta[j][sym] == 0
                else:
                    assert cov.c.delta[j][sym] == t[j]
    assert cov.c.delta[2][2] == 3
    assert cov.c.delta[2][3] == 4

    whole = compose_coverings(cov.witness, aux.witness)
    assert whole.lower is five_state
    assert verify_covering(whole)
    assert simulation_counterexample(whole, 5) is None
