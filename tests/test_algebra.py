"""Monoid arithmetic against small hand-worked oracles."""

import pytest

from krcascade import (
    Congruence,
    FiniteMonoid,
    InvalidCongruenceError,
    InvalidInputError,
    MonoidHom,
    ResourceCapError,
    Transformation,
    closure_generate,
    direct_product_monoid,
    evaluate_word,
    find_identity,
    hom_factorize,
    is_associative,
    kernel_congruence,
    quotient_monoid,
    render_word,
    right_regular_representation,
)
from krcascade.algebra import LABEL_LIMIT, clamp_label, pair_labels
from krcascade.automata import _unique_labels

from conftest import MEB_TABLE

TAU_A = Transformation([0, 0, 0])
TAU_B = Transformation([1, 1, 2])


def test_transformation_basics():
    t = Transformation([1, 0, 2])
    assert t.domain_size == 3
    assert t(0) == 1 and t(2) == 2
    assert t.is_permutation()
    assert not t.is_reset()
    assert Transformation.identity(3).is_identity()
    assert t.inverse() == t

    assert TAU_A.is_reset()
    assert not TAU_A.is_permutation()
    with pytest.raises(InvalidInputError):
        TAU_A.inverse()


def test_transformation_composition_is_diagrammatic():
    # (fg)(x) = g(f(x)): reset-then-fold lands where the fold sends state 0
    fg = TAU_A.compose(TAU_B)
    assert fg.image == (1, 1, 1)
    gf = TAU_B.compose(TAU_A)
    assert gf.image == (0, 0, 0)


def test_transformation_validation():
    with pytest.raises(InvalidInputError):
        Transformation([])
    with pytest.raises(InvalidInputError):
        Transformation([0, 3, 1])


def test_transformation_hash_eq():
    assert Transformation([0, 1]) == Transformation((0, 1))
    assert len({Transformation([0, 0]), Transformation([0, 0])}) == 1


def test_is_associative_and_find_identity():
    assert is_associative(MEB_TABLE)
    assert find_identity(MEB_TABLE) == 2
    # left-zero semigroup has no two-sided identity
    assert find_identity([[0, 0], [1, 1]]) is None
    assert not is_associative([[0, 1], [0, 0]])


def test_finite_monoid_checks():
    with pytest.raises(InvalidInputError):
        FiniteMonoid(["x", "y"], [[0, 1], [0, 0]], identity=0)
    with pytest.raises(InvalidInputError):
        FiniteMonoid(["a", "e", "b"], MEB_TABLE, identity=1)
    m = FiniteMonoid(["a", "e", "b"], MEB_TABLE, identity=2)
    assert m.order == 3
    assert m.mul(0, 0) == 2
    assert m.is_commutative()


def test_closure_generate_sa3_monoid():
    m = closure_generate([TAU_A, TAU_B], symbol_labels=["a", "b"])
    assert m.order == 4
    assert m.labels == ("ε", "a", "b", "ab")
    assert [t.image for t in m.transformations] == [
        (0, 1, 2),
        (0, 0, 0),
        (1, 1, 2),
        (1, 1, 1),
    ]
    assert m.witnesses == ((), (0,), (1,), (0, 1))
    assert m.identity == 0


def test_closure_witness_words_evaluate_to_their_elements():
    gens = [TAU_A, TAU_B]
    m = closure_generate(gens, symbol_labels=["a", "b"])
    for i, word in enumerate(m.witnesses):
        assert evaluate_word(word, gens, 3) == m.transformations[i]


def test_closure_cap():
    with pytest.raises(ResourceCapError):
        closure_generate([TAU_A, TAU_B], cap=2)


def test_closure_no_generators():
    m = closure_generate([], domain_size=4)
    assert m.order == 1
    assert m.transformations[0].is_identity()


def test_closure_generator_domain_mismatch():
    with pytest.raises(InvalidInputError):
        closure_generate([TAU_A, Transformation([0, 1])])


def test_render_word():
    assert render_word([], ["a", "b"]) == "ε"
    assert render_word([0, 1, 0], ["a", "b"]) == "aba"
    assert render_word([0, 1], ["aa", "b"]) == "aa·b"


def test_clamp_label():
    assert clamp_label("short", "q0") == "short"
    assert clamp_label("x" * 200, "q7") == "q7"


def test_pair_labels_clamp_by_position():
    # "(l,r)" for each pair in order; one over LABEL_LIMIT characters becomes
    # the prefix and its position, whichever of the library's prefixes
    exact = ("a" * (LABEL_LIMIT - 4), "b")
    over = ("a" * (LABEL_LIMIT - 3), "b")
    assert len("(%s,%s)" % exact) == LABEL_LIMIT
    for prefix in ("q", "x", "e"):
        assert pair_labels([("c", "d"), exact, over, over], prefix) == [
            "(c,d)",
            "(%s,b)" % exact[0],
            prefix + "2",
            prefix + "3",
        ]
    assert pair_labels(iter([]), "q") == []
    # a fallback can coincide with a label made another way; _unique_labels,
    # which every automaton's derived labels go through, renames the later one
    labels = ["x3"] + pair_labels([("c", "d"), ("e", "f"), exact, over], "x")
    assert _unique_labels(labels) == ("x3", "(c,d)", "(e,f)", "(%s,b)" % exact[0], "x3#1")
    # direct_product_monoid names its elements the same way, with prefix e
    wide = FiniteMonoid(["a" * LABEL_LIMIT], [[0]], 0)
    assert direct_product_monoid(wide, FiniteMonoid(["1"], [[0]], 0)).labels == ("e0",)


def test_right_regular_representation(meb):
    n, iso = right_regular_representation(meb)
    assert n.table == meb.table
    # r_x is the x-th column of the table
    assert n.transformations[0].image == (2, 1, 0)
    assert n.transformations[1].image == (1, 1, 1)
    assert iso.is_injective() and iso.is_surjective()
    assert n.labels == ("r_a", "r_e", "r_b")


def test_congruence_accepts_valid_partition(meb):
    # merging a with the identity b is compatible; e stays alone
    c = Congruence(meb, [0, 1, 0])
    assert c.class_count == 2
    assert c.violating_quadruple() is None


def test_congruence_rejects_bad_partition(meb):
    # a~e fails: a*a = b but e*a = e land in different classes
    with pytest.raises(InvalidCongruenceError) as info:
        Congruence(meb, [0, 0, 1])
    x, x2, y, y2 = info.value.quadruple
    cls = [0, 0, 1]
    assert cls[x] == cls[x2] and cls[y] == cls[y2]
    assert cls[meb.mul(x, y)] != cls[meb.mul(x2, y2)]


def test_congruence_requires_dense_classes(meb):
    with pytest.raises(InvalidInputError):
        Congruence(meb, [0, 2, 0])


def test_quotient_monoid(meb):
    c = Congruence(meb, [0, 1, 0])
    q, pi = quotient_monoid(meb, c)
    assert q.order == 2
    assert q.labels == ("[a]", "[e]")
    assert q.identity == 0
    for x in range(meb.order):
        for y in range(meb.order):
            assert pi(meb.mul(x, y)) == q.mul(pi(x), pi(y))


def test_quotient_monoid_foreign_congruence(meb):
    other = FiniteMonoid(["a", "e", "b"], MEB_TABLE, identity=2)
    c = Congruence(other, [0, 1, 0])
    with pytest.raises(InvalidInputError):
        quotient_monoid(meb, c)


def test_monoid_hom_checks(meb):
    two = FiniteMonoid(["i", "z"], [[0, 1], [1, 1]], identity=0)
    h = MonoidHom(meb, two, [0, 1, 0])
    assert not h.is_injective()
    assert h.is_surjective()
    with pytest.raises(InvalidInputError):
        MonoidHom(meb, two, [0, 1, 1])  # sends the identity to a non-identity
    with pytest.raises(InvalidInputError):
        MonoidHom(meb, two, [1, 0, 0])  # a*a = b breaks multiplicativity


def test_kernel_congruence_ranks_by_target(meb):
    two = FiniteMonoid(["i", "z"], [[0, 1], [1, 1]], identity=0)
    h = MonoidHom(meb, two, [0, 1, 0])
    ker = kernel_congruence(h)
    # class 0 is the fiber of the smaller target element
    assert ker.class_of == (0, 1, 0)


def test_hom_factorize(meb):
    two = FiniteMonoid(["i", "z"], [[0, 1], [1, 1]], identity=0)
    h = MonoidHom(meb, two, [0, 1, 0])
    pi, psi = hom_factorize(h)
    assert psi.is_injective()
    for x in range(meb.order):
        assert psi(pi(x)) == h(x)


def test_direct_product_monoid(meb):
    two = FiniteMonoid(["i", "z"], [[0, 1], [1, 1]], identity=0)
    p = direct_product_monoid(meb, two)
    assert p.order == 6
    assert p.identity == 2 * 2 + 0
    assert p.labels[0] == "(a,i)"
    for i in range(meb.order):
        for j in range(two.order):
            for k in range(meb.order):
                for l in range(two.order):
                    got = p.mul(i * 2 + j, k * 2 + l)
                    assert got == meb.mul(i, k) * 2 + two.mul(j, l)
