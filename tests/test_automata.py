"""Semiautomata, products, and covering witnesses against hand oracles."""

import pickle
import random
import re
import sys
from array import array

import pytest

import krcascade.automata as kr_automata
from krcascade import _lawcheck
from krcascade import (
    Caps,
    Congruence,
    CoveringWitness,
    FiniteGroup,
    FiniteMonoid,
    HomImageWitness,
    InvalidInputError,
    MonoidHom,
    Semiautomaton,
    Transformation,
    WitnessError,
    cascade_product,
    closure_generate,
    compose_coverings,
    direct_product,
    emit_automaton,
    group_from_table,
    identity_witness,
    iter_nodes,
    krohn_rhodes_decompose,
    parse_automaton,
    run,
    simulation_counterexample,
    substitute,
    substitute_left,
    substitute_right,
    transition_monoid,
    verify_covering,
    verify_hom_image,
    word_transformation,
)
from krcascade.automata import (
    _PairLabels,
    _check_omega,
    _unique_labels,
)

from conftest import make_random_automaton, product_state_labels


def test_construction_validation():
    with pytest.raises(InvalidInputError):
        Semiautomaton([], ["a"], [])
    with pytest.raises(InvalidInputError):
        Semiautomaton(["x", "x"], ["a"], [[0], [0]])
    with pytest.raises(InvalidInputError):
        Semiautomaton(["x", "y"], ["a", "a"], [[0, 0], [0, 0]])
    with pytest.raises(InvalidInputError):
        Semiautomaton(["x", "y"], ["a"], [[0]])
    with pytest.raises(InvalidInputError):
        Semiautomaton(["x", "y"], ["a"], [[0], [2]])
    with pytest.raises(InvalidInputError):
        Semiautomaton(["x", "y"], ["a"], [[0, 1], [0, 1]])


def test_from_columns(sa3):
    rebuilt = Semiautomaton.from_columns(["1", "2", "3"], ["a", "b"], [[0, 0, 0], [1, 1, 2]])
    assert rebuilt == sa3
    with pytest.raises(InvalidInputError):
        Semiautomaton.from_columns(["1", "2"], ["a"], [[0, 0, 0]])


def test_indexing_and_step(sa3):
    assert sa3.state_index("3") == 2
    assert sa3.symbol_index("b") == 1
    with pytest.raises(InvalidInputError):
        sa3.state_index("4")
    with pytest.raises(InvalidInputError):
        sa3.symbol_index("c")
    assert sa3.step(2, 1) == 2
    assert sa3.step(-1, -1) == 2 and sa3.step(-2, -2) == 0
    for s, a in ((3, 0), (0, 2), (-4, 0), (0, -3)):
        with pytest.raises(IndexError):
            sa3.step(s, a)
    assert list(sa3.column(1)) == [1, 1, 2]
    for a in (2, -1):
        with pytest.raises(IndexError):
            sa3.column(a)
    assert sa3.symbol_transformation(0) == Transformation([0, 0, 0])
    assert [t.image for t in sa3.transformations()] == [(0, 0, 0), (1, 1, 2)]


def test_word_indices(sa3):
    assert sa3.word_indices("ba") == [1, 0]
    assert sa3.word_indices(["b", 0, "a"]) == [1, 0, 0]
    with pytest.raises(InvalidInputError):
        sa3.word_indices([5])
    with pytest.raises(InvalidInputError):
        sa3.word_indices("xyz")


def test_run(sa3):
    assert run(sa3, 2, "ba") == 0
    assert run(sa3, 0, "") == 0
    assert run(sa3, 1, ["b", "b"]) == 1
    with pytest.raises(InvalidInputError):
        run(sa3, 7, "a")


def test_word_transformation(sa3):
    assert word_transformation(sa3, "").is_identity()
    assert word_transformation(sa3, "bb") == sa3.symbol_transformation(1)
    assert word_transformation(sa3, "ab").image == (1, 1, 1)


def test_transition_monoid(sa3):
    m = transition_monoid(sa3)
    assert m.order == 4
    assert {t.image for t in m.transformations} == {
        (0, 1, 2),
        (0, 0, 0),
        (1, 1, 2),
        (1, 1, 1),
    }


class _Index:
    """An integer-like entry that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    __int__ = __index__


_MAPPED = ((1, 1), (0, 0), (0, 1))


@pytest.mark.parametrize(
    "omega, want",
    [
        ([[1, 1], [0, 0], [0, 1]], _MAPPED),
        ([(True, False), (0, 0), (0, 1)], ((1, 0), (0, 0), (0, 1))),
        ([[1, 1], [0, _Index(1)], [0, 1]], ((1, 1), (0, 1), (0, 1))),
        ([[1.0, 1], [0, 0], [0, 1]], "connection mapping image 1.0 is not an integer"),
        ([["1", 1], [0, 0], [0, 1]], "connection mapping image '1' is not an integer"),
        ([[1, 1], [0, 0]], "connection mapping needs one row per first-factor state"),
        ([[1, 1], [0, 0], [0, 1], [0, 0]], "connection mapping needs one row per first-factor state"),
        ([[1, 1], [0, 0, 0], [0, 1]], "connection mapping row length differs from alphabet"),
        ([[1, 1], [0, 0], [0]], "connection mapping row length differs from alphabet"),
        ([[1, 2], [0, 0], [0, 1]], "connection mapping image 2 outside the second factor's alphabet"),
        ([[1, 1], [0, -1], [0, 1]], "connection mapping image -1 outside the second factor's alphabet"),
        ([[1, 1], [0, 2 ** 40], [0, 1]],
         "connection mapping image 1099511627776 outside the second factor's alphabet"),
        ([[1, 1], [0, 0], [0, 1.5]], "connection mapping image 1.5 is not an integer"),
        ([[1, 1], [0, "x"], [0, 1]], "connection mapping image 'x' is not an integer"),
        ([[1, 1], [0, [0]], [0, 1]], "connection mapping image [0] is not an integer"),
        ([[1, 1], 0, [0, 1]], "connection mapping is not a sequence of rows"),
        (iter([iter([1, 1]), iter([0, 0]), iter([0, 1])]), _MAPPED),
    ],
    ids=["omega%d" % k for k in range(17)],
)
def test_check_omega_matches_entry_loop(sa2, sa3, omega, want):
    # the one check of a connection is the loop over its entries: it gives
    # int tuples, or names the first fault, and both public entries,
    # cascade_product and substitute, refuse what it refuses with its message
    if isinstance(want, tuple):
        got = _check_omega(sa3, sa2, omega)
        assert got == want
        assert {type(x) for row in got for x in row} == {int}
        return
    product = cascade_product(sa3, sa2, _MAPPED)
    covers = identity_witness(sa3), identity_witness(sa2)
    for check in (
        lambda: _check_omega(sa3, sa2, omega),
        lambda: cascade_product(sa3, sa2, omega),
        lambda: substitute(product, sa3, sa2, omega, *covers),
    ):
        with pytest.raises(InvalidInputError, match="^%s$" % re.escape(want)):
            check()


# both inputs swap the two states, and _Z2 is the group of two elements,
# so each entry below reads the value 1; the entries of a connection are
# test_check_omega_matches_entry_loop's
_SWAP = Semiautomaton(["p", "q"], ["a", "b"], [[1, 1], [0, 0]])
_Z2 = FiniteMonoid("ea", [[0, 1], [1, 0]], 0)
_INTEGER_ENTRIES = {
    "transformation": lambda v: Transformation([v, 0]).image,
    "witness-phi": lambda v: CoveringWitness(_SWAP, _SWAP, [0, v], [0, 1]).phi,
    "witness-xi": lambda v: CoveringWitness(_SWAP, _SWAP, [0, 1], [v, 0]).xi,
    "hom-phi": lambda v: HomImageWitness(_SWAP, _SWAP, [0, v], [0, 1]).phi,
    "hom-xi": lambda v: HomImageWitness(_SWAP, _SWAP, [0, 1], [v, 0]).xi,
    "word": lambda v: _SWAP.word_indices([v]),
    "run-word": lambda v: run(_SWAP, 0, [v]),
    "run-state": lambda v: run(_SWAP, v, []),
    "word-transformation": lambda v: word_transformation(_SWAP, [v]).image,
    "caps": lambda v: Caps(group_order=v, product_states=v),
    "step-state": lambda v: _SWAP.step(v, 0),
    "step-symbol": lambda v: _SWAP.step(0, v),
    "column": lambda v: list(_SWAP.column(v)),
    "monoid-table": lambda v: FiniteMonoid("ea", [[0, 1], [1, v]], 0).table,
    "monoid-identity": lambda v: FiniteMonoid("ea", [[0, 0], [0, 1]], v).identity,
    "group-table": lambda v: group_from_table([[0, v], [v, 0]]).table,
    "group-identity": lambda v: group_from_table([[1, 0], [0, 1]], identity=v).identity,
    "group-inverse": lambda v: FiniteGroup(_Z2, [0, v]).inverse,
    "congruence": lambda v: Congruence(_Z2, [0, v]).class_of,
    "monoid-hom": lambda v: MonoidHom(_Z2, _Z2, [0, v]).map,
    "domain-size": lambda v: closure_generate([], domain_size=v).transformations,
}
_WORDS = {"word", "run-word", "word-transformation"}


@pytest.mark.parametrize("entry", list(_INTEGER_ENTRIES))
@pytest.mark.parametrize(
    "value, taken",
    [(1.0, False), ("1", False), (True, True), (_Index(1), True)],
    ids=["float", "numeric-str", "bool", "index"],
)
def test_integer_entries_refuse_what_is_not_an_integer(entry, value, taken):
    # every entry converts by operator.index: a float or a numeric string is
    # named, never truncated or parsed, and what it takes reads as the int.
    # A string in a word is a symbol label, so '1' is an unknown symbol there
    make = _INTEGER_ENTRIES[entry]
    if taken:
        assert repr(make(value)) == repr(make(1))
    else:
        with pytest.raises(InvalidInputError) as refused:
            make(value)
        named = "unknown symbol %r" if entry in _WORDS and value == "1" else "%r is not an integer"
        assert str(refused.value).endswith(named % (value,))


def test_direct_product(sa2):
    p = direct_product(sa2, sa2)
    assert p.n_states == 4
    assert p.state_labels == ("(1,1)", "(1,2)", "(2,1)", "(2,2)")
    for i in range(2):
        for j in range(2):
            for a in range(2):
                assert p.delta[i * 2 + j][a] == sa2.delta[i][a] * 2 + sa2.delta[j][a]
    other = Semiautomaton(["1", "2"], ["x", "y"], [[0, 1], [0, 1]])
    with pytest.raises(InvalidInputError):
        direct_product(sa2, other)


def test_cascade_product(sa2, sa3):
    # sa3 drives sa2; omega reads the driver's state, not its input
    omega = [[1, 1], [0, 0], [0, 1]]
    p = cascade_product(sa3, sa2, omega)
    assert p.n_states == 6
    assert p.symbol_labels == ("a", "b")
    for s in range(3):
        for t in range(2):
            for a in range(2):
                expect = sa3.delta[s][a] * 2 + sa2.delta[t][omega[s][a]]
                assert p.delta[s * 2 + t][a] == expect
    with pytest.raises(InvalidInputError):
        cascade_product(sa3, sa2, [[0, 0], [0, 0]])
    with pytest.raises(InvalidInputError):
        cascade_product(sa3, sa2, [[0, 5], [0, 0], [0, 0]])


def test_covering_witness_verifies(sa3, sa2):
    w = CoveringWitness(sa3, sa2, [0, 1, None], [0, 1])
    assert w.dom == (0, 1)
    res = verify_covering(w)
    assert res
    assert res.reason is None


def test_covering_witness_construction_rejections(sa3, sa2):
    with pytest.raises(WitnessError):
        CoveringWitness(sa3, sa2, [None, None, None], [0, 1])  # empty domain
    with pytest.raises(WitnessError):
        CoveringWitness(sa3, sa2, [0, 0, None], [0, 1])  # not surjective
    with pytest.raises(WitnessError):
        CoveringWitness(sa3, sa2, [0, 1], [0, 1])  # wrong phi length
    with pytest.raises(WitnessError):
        CoveringWitness(sa3, sa2, [0, 1, None], [0])  # wrong xi length
    with pytest.raises(WitnessError):
        CoveringWitness(sa3, sa2, [0, 1, None], [0, 5])  # xi out of range
    # witnesses built from checked parts keep the length and xi range checks
    for phi, xi, message in [
        ((0, 1), (0, 1), "phi needs one entry per upper state"),
        ((0, 1, None), (0,), "xi needs one entry per lower symbol"),
        ((0, 1, None), (0, 5), "xi image 5 out of range"),
    ]:
        with pytest.raises(WitnessError, match=message):
            CoveringWitness._from_parts(sa3, sa2, phi, xi)


def test_verify_covering_names_a_phi_entry_out_of_range(sa3, sa2, monkeypatch):
    # _from_parts leaves phi's range unchecked: a phi that covers every lower
    # state and holds an entry out of range fails, naming the first such
    # entry, on a small witness and on one read through its product's factors
    w = CoveringWitness._from_parts(sa3, sa2, (0, 1, 5), (0, 1))
    res = verify_covering(w)
    assert (res.ok, res.reason, res.site) == (False, "phi image 5 out of range", None)
    monkeypatch.setattr(kr_automata, "_FACTORED_STATES", 1)
    monkeypatch.setattr(kr_automata, "_SYMBOL_PASS_CELLS", 1)
    upper = direct_product(sa3, direct_product(sa3, sa2))
    assert upper._factors is not None
    phi = [s % 2 for s in range(upper.n_states)]
    for bad in (7, -1):
        phi[9], phi[13] = bad, 2
        res = verify_covering(CoveringWitness._from_parts(upper, sa2, tuple(phi), (0, 1)))
        assert (res.ok, res.reason) == (False, "phi image %d out of range" % bad)
    # a lower state missed is named before an entry out of range
    phi = (0,) * upper.n_states
    res = verify_covering(CoveringWitness._from_parts(upper, sa2, phi[:-1] + (5,), (0, 1)))
    assert res.reason == "phi misses lower state 2"


_MISFITS = [
    ("xi", (0,), "xi needs one entry per lower symbol"),
    ("xi", (0, 5), "xi image 5 out of range"),
    ("xi", (0, -1), "xi image -1 out of range"),
    ("phi", (0, 1), "phi needs one entry per upper state"),
]


@pytest.mark.parametrize(
    "composed, name, value, reason",
    [(False,) + case for case in _MISFITS]
    + [(True,) + case for case in _MISFITS]
    + [(True, "keys", range(2), "phi needs one entry per upper state")],
)
def test_parts_that_do_not_fit_get_a_failing_verdict(sa3, monkeypatch, composed, name, value,
                                                     reason):
    # phi or xi set on a checked witness with the wrong length, or with an
    # entry of xi out of range: verify_covering fails naming the part, as
    # the constructors do, and simulation_counterexample raises with that
    # reason. The witness covers sa3 by itself or, with every product
    # recording its factors and every witness checked by the passes, sa3∘sa3
    # by itself with phi composed over the record; "keys" gives that
    # composition one key too few. Set back to what it was, the part fits
    # again and the witness verifies
    if composed:
        monkeypatch.setattr(kr_automata, "_FACTORED_STATES", 1)
        monkeypatch.setattr(kr_automata, "_SYMBOL_PASS_CELLS", 1)
        X = direct_product(sa3, sa3)
        rows = [tuple(range(3 * u, 3 * u + 3)) for u in range(3)]
        w = CoveringWitness._from_parts(X, X, _lawcheck.Composed(range(3), rows, (0, 1, 2)), (0, 1))
    else:
        w = identity_witness(sa3)
    assert verify_covering(w)
    if name == "keys":
        name, value = "phi", _lawcheck.Composed(value, w._phi.rows, w._phi.inner)
    kept = getattr(w, "_" + name if name == "phi" else name)
    setattr(w, name, value)
    res = verify_covering(w)
    assert (res.ok, res.reason, res.site) == (False, reason, None)
    with pytest.raises(WitnessError, match=reason):
        simulation_counterexample(w, 3)
    setattr(w, name, kept)
    assert verify_covering(w) and simulation_counterexample(w, 3) is None


@pytest.mark.parametrize(
    "name, value, reason",
    [
        ("phi", (0, 1, 2, "x"), "phi image 'x' is not an integer"),
        ("phi", (0, 1, 2, 1.5), "phi image 1.5 is not an integer"),
        ("xi", ("x",), "xi image 'x' is not an integer"),
        ("xi", (0.0,), "xi image 0.0 is not an integer"),
    ],
)
@pytest.mark.parametrize("then", [None, "upper", "lower", "other"])
def test_parts_set_with_an_entry_that_is_not_an_integer_name_it(name, value, reason, then):
    # phi or xi set on a made witness with an entry that is not an integer
    # keeps it as given: verify_covering fails naming the entry, as the
    # constructor does, with no TypeError from a comparison or the law
    # check's scan, and simulation_counterexample raises WitnessError with
    # that reason, also after another part (then, "other" being xi after
    # phi and phi after xi) is set again as it was. The witness covers a
    # 3-cycle by a 4-cycle's first three states, the fourth doubling the
    # third. Set back to what it was, the part fits again and the witness
    # verifies
    upper = Semiautomaton.from_columns(["p0", "p1", "p2", "p3"], ["x"], [[1, 2, 0, 0]])
    lower = Semiautomaton.from_columns(["c0", "c1", "c2"], ["x"], [[1, 2, 0]])
    w = CoveringWitness(upper, lower, (0, 1, 2, 2), (0,))
    kept = getattr(w, name)
    setattr(w, name, value)
    assert getattr(w, name) == value
    if then is not None:
        then = {"phi": "xi", "xi": "phi"}[name] if then == "other" else then
        setattr(w, then, getattr(w, then))
    res = verify_covering(w)
    assert (res.ok, res.reason, res.site) == (False, reason, None)
    with pytest.raises(WitnessError, match="^%s$" % re.escape(reason)):
        simulation_counterexample(w, 3)
    with pytest.raises(InvalidInputError, match="^%s$" % re.escape(reason)):
        CoveringWitness(upper, lower, *{"phi": (value, (0,)), "xi": ((0, 1, 2, 2), value)}[name])
    setattr(w, name, list(kept))
    assert getattr(w, name) == kept
    assert verify_covering(w) and simulation_counterexample(w, 3) is None


@pytest.mark.parametrize(
    "name, value, reason",
    [
        ("phi", (0, 1, 2, "x"), "phi image 'x' is not an integer"),
        ("xi", ("x", 1), "xi image 'x' is not an integer"),
        ("phi", (0, 1), "phi needs one entry per upper state"),
    ],
)
def test_a_pickled_witness_keeps_its_fault(name, value, reason):
    # a witness pickles as its parts, and its copy sets phi and xi again
    # through the checked setter, so the copy gets the original's verdict
    # and reason, not another fault or a TypeError; set back, it verifies
    A = Semiautomaton(["a", "b", "c", "d"], ["x", "y"], [[1, 0], [2, 0], [3, 0], [0, 0]])
    w = identity_witness(A)
    kept = getattr(w, name)
    setattr(w, name, value)
    copy = pickle.loads(pickle.dumps(w))
    assert (copy.phi, copy.xi) == (w.phi, w.xi)
    want, got = verify_covering(w), verify_covering(copy)
    assert (got.ok, got.reason) == (want.ok, want.reason) == (False, reason)
    setattr(copy, name, kept)
    assert verify_covering(copy)


@pytest.mark.parametrize("name", ["upper", "lower", "phi", "_phi", "xi", "note"])
def test_setting_a_part_drops_dom_and_descent(monkeypatch, sa3, sa2, name):
    # dom and the descent of a check by the passes are kept on the witness;
    # setting a part, phi under either name, drops both, and the next check
    # descends once more; setting anything else drops neither
    monkeypatch.setattr(kr_automata, "_SYMBOL_PASS_CELLS", 1)
    descents, descend = [], _lawcheck.descend
    monkeypatch.setattr(_lawcheck, "descend", lambda *a: descents.append(a) or descend(*a))
    w = CoveringWitness(sa3, sa2, (0, 1, None), (0, 1))
    kept = w._descent
    assert w.dom == (0, 1) and len(descents) == 1 and kept is not None
    setattr(w, name, {
        "upper": pickle.loads(pickle.dumps(sa3)), "lower": pickle.loads(pickle.dumps(sa2)),
        "phi": (0, 1, 1), "_phi": (0, 1, 1), "xi": (0, 1), "note": "not a part",
    }[name])
    if name == "note":
        assert vars(w)["_dom"] == (0, 1) and w._descent is kept
        assert verify_covering(w) and len(descents) == 1
        return
    assert vars(w)["_dom"] is None and w._descent is None
    assert verify_covering(w) and len(descents) == 2 and w._descent is not None
    assert w.dom == ((0, 1, 2) if name in ("phi", "_phi") else (0, 1))


def test_covering_domain_closure(sa2):
    # from state 3, symbol b leads outside {1,3}: domain is not closed
    upper = Semiautomaton(["1", "2", "3"], ["a", "b"], [[0, 1], [0, 1], [0, 1]])
    with pytest.raises(WitnessError):
        CoveringWitness(upper, sa2, [0, None, 1], [0, 1])


def test_covering_construction_raises_verify_coverings_reason(sa3, sa2):
    # a checked construction fails with the reason verify_covering gives on
    # the same witness, for each kind of failure: an empty domain, a missed
    # lower state, a domain that is not closed, and a law failure on a
    # witness that is onto and closed
    closing = Semiautomaton(["1", "2", "3"], ["a", "b"], [[0, 1], [0, 1], [0, 1]])
    lawless = Semiautomaton(["1", "2"], ["a", "b"], [[1, 1], [0, 1]])
    cases = [
        (sa3, sa2, [None, None, None], "phi has an empty domain"),
        (sa3, sa2, [0, 0, None], "phi misses lower state 2"),
        (closing, sa2, [0, None, 1], "domain not closed under symbol b"),
        (sa3, lawless, [0, 1, None], "covering law fails at state 1 under symbol a"),
    ]
    for upper, lower, phi, reason in cases:
        res = verify_covering(CoveringWitness(upper, lower, phi, [0, 1], check=False))
        assert (res.ok, res.reason) == (False, reason)
        with pytest.raises(WitnessError) as exc:
            CoveringWitness(upper, lower, phi, [0, 1])
        assert str(exc.value) == reason


def test_covering_law_failure_site(sa3):
    # lower disagrees with what phi transports at state 1 under a
    lower = Semiautomaton(["1", "2"], ["a", "b"], [[1, 1], [0, 1]])
    w = CoveringWitness(sa3, lower, [0, 1, None], [0, 1], check=False)
    res = verify_covering(w)
    assert not res
    assert res.site == (0, 0)
    assert "law" in res.reason


def test_hom_image(sa2):
    source = Semiautomaton(["1", "2", "3"], ["a"], [[2], [2], [2]])
    target = Semiautomaton(["1", "2"], ["a"], [[1], [1]])
    w = HomImageWitness(source, target, [0, 0, 1], [0])
    assert verify_hom_image(w)

    bad = HomImageWitness(source, target, [0, 0, 0], [0], check=False)
    res = verify_hom_image(bad)
    assert not res
    assert "surjective" in res.reason

    # h(3)=1 breaks the law: every source state moves to 3 but 1·a = 2
    skewed = HomImageWitness(source, target, [1, 1, 0], [0], check=False)
    res = verify_hom_image(skewed)
    assert not res
    assert res.site is not None


def test_hom_image_construction_raises_verify_hom_images_reason():
    # a checked construction fails with the reason verify_hom_image gives:
    # on a phi that is not onto, and on one that is onto and breaks the law
    source = Semiautomaton(["1", "2", "3"], ["a"], [[2], [2], [2]])
    target = Semiautomaton(["1", "2"], ["a"], [[1], [1]])
    for phi, reason in [
        ([0, 0, 0], "phi is not surjective"),
        ([1, 1, 0], "homomorphism law fails at state 1 under symbol a"),
    ]:
        res = verify_hom_image(HomImageWitness(source, target, phi, [0], check=False))
        assert (res.ok, res.reason) == (False, reason)
        with pytest.raises(WitnessError) as exc:
            HomImageWitness(source, target, phi, [0])
        assert str(exc.value) == reason


def test_identity_witness(sa3):
    w = identity_witness(sa3)
    assert w.upper is sa3 and w.lower is sa3
    assert verify_covering(w)
    assert w.phi == (0, 1, 2)


def test_compose_coverings(sa3, sa2):
    w1 = CoveringWitness(sa3, sa2, [0, 1, None], [0, 1])
    w2 = identity_witness(sa2)
    w = compose_coverings(w1, w2)
    assert w.upper is sa3 and w.lower is sa2
    assert verify_covering(w)

    with pytest.raises(WitnessError):
        compose_coverings(w2, w2.upper and w1)  # middle automata disagree


def test_compose_rejects_unverified_pieces(sa3):
    lower = Semiautomaton(["1", "2"], ["a", "b"], [[1, 1], [0, 1]])
    broken = CoveringWitness(sa3, lower, [0, 1, None], [0, 1], check=False)
    with pytest.raises(WitnessError):
        compose_coverings(broken, identity_witness(lower))


def test_simulation_counterexample(sa3, sa2):
    good = CoveringWitness(sa3, sa2, [0, 1, None], [0, 1])
    assert simulation_counterexample(good, 6) is None

    # swapped xi sends b to the reset input; a length-1 word already diverges
    bad = CoveringWitness(sa3, sa2, [0, 1, None], [1, 0], check=False)
    found = simulation_counterexample(bad, 2)
    assert found is not None
    s, word = found
    assert len(word) == 1
    assert not verify_covering(bad)
    # replay the counterexample: transported run and direct run disagree
    upper_end = run(sa3, s, [bad.xi[a] for a in word])
    lower_end = run(sa2, bad.phi[s], list(word))
    assert bad.phi[upper_end] != lower_end


def test_substitute_right_with_real_cover(seven_state, seven_p):
    from krcascade import cascade_cover_from_partition

    cov = cascade_cover_from_partition(seven_state, seven_p)
    sub = substitute_right(cov.product, cov.b, cov.c, cov.omega, identity_witness(cov.c))
    assert verify_covering(sub.witness)
    assert sub.product.n_states == cov.product.n_states
    composed = compose_coverings(sub.witness, cov.witness)
    assert verify_covering(composed)
    assert simulation_counterexample(composed, 4) is None


def test_substitute_left_with_real_cover(seven_state, seven_p):
    from krcascade import cascade_cover_from_partition

    cov = cascade_cover_from_partition(seven_state, seven_p)
    sub = substitute_left(cov.product, cov.b, cov.c, cov.omega, identity_witness(cov.b))
    assert verify_covering(sub.witness)
    composed = compose_coverings(sub.witness, cov.witness)
    assert verify_covering(composed)
    assert simulation_counterexample(composed, 4) is None


def test_substitute_right_rejects_mismatched_cover(seven_state, seven_p, sa2):
    from krcascade import cascade_cover_from_partition

    cov = cascade_cover_from_partition(seven_state, seven_p)
    with pytest.raises(WitnessError):
        substitute_right(cov.product, cov.b, cov.c, cov.omega, identity_witness(sa2))


def _scrambled_cover(X):
    """A witness Y >= X that is not the identity: Y has one state outside the
    domain of phi, then X's states in reverse; X's symbols in reverse, then one
    symbol that xi does not reach and that leaves the domain."""
    n, m = X.n_states, X.n_symbols
    rows = [[0] * (m + 1)]
    for y in range(1, n + 1):
        s = n - y
        rows.append([n - X.delta[s][m - 1 - j] for j in range(m)] + [0])
    Y = Semiautomaton(
        ["out"] + ["y" + X.state_labels[n - y] for y in range(1, n + 1)],
        ["y" + X.symbol_labels[m - 1 - j] for j in range(m)] + ["out"],
        rows,
    )
    w = CoveringWitness(Y, X, [None] + [n - y for y in range(1, n + 1)], reversed(range(m)))
    assert verify_covering(w)
    return w


def test_substitute_matches_right_then_left(seven_state, seven_p):
    from krcascade import cascade_cover_from_partition

    cov = cascade_cover_from_partition(seven_state, seven_p)
    w_u, w_v = _scrambled_cover(cov.b), _scrambled_cover(cov.c)
    sub = substitute(cov.product, cov.b, cov.c, cov.omega, w_u, w_v)

    sub_r = substitute_right(cov.product, cov.b, cov.c, cov.omega, w_v)
    sub_l = substitute_left(sub_r.product, cov.b, w_v.upper, sub_r.omega, w_u)
    two_step = compose_coverings(sub_l.witness, sub_r.witness)
    assert sub.product.delta == sub_l.product.delta
    assert sub.omega == sub_l.omega
    assert sub.product.state_labels == sub_l.product.state_labels
    assert sub.product.symbol_labels == cov.b.symbol_labels
    assert sub.witness.phi == two_step.phi
    assert sub.witness.xi == two_step.xi
    assert sub.witness.upper is sub.product and sub.witness.lower is cov.product
    assert verify_covering(compose_coverings(sub.witness, cov.witness))

    # the definition, read off directly
    U, V, nc, nv = w_u.upper, w_v.upper, cov.c.n_states, w_v.upper.n_states
    for u in range(U.n_states):
        pu = w_u.phi[u]
        row = cov.omega[0 if pu is None else pu]
        assert sub.omega[u] == tuple(w_v.xi[x] for x in row)
        for v in range(nv):
            pv = w_v.phi[v]
            want = None if pu is None or pv is None else pu * nc + pv
            assert sub.witness.phi[u * nv + v] == want
    assert sub.u_prime.delta == tuple(
        tuple(U.delta[u][x] for x in w_u.xi) for u in range(U.n_states)
    )


def test_substitute_rejects_mismatched_inputs(seven_state, seven_p, sa2):
    from krcascade import cascade_cover_from_partition

    cov = cascade_cover_from_partition(seven_state, seven_p)
    w_u, w_v = _scrambled_cover(cov.b), _scrambled_cover(cov.c)
    with pytest.raises(WitnessError, match="first factor"):
        substitute(cov.product, cov.b, cov.c, cov.omega, w_v, w_v)
    with pytest.raises(WitnessError, match="second factor"):
        substitute(cov.product, cov.b, cov.c, cov.omega, w_u, w_u)
    with pytest.raises(InvalidInputError, match="does not match"):
        substitute(sa2, cov.b, cov.c, cov.omega, w_u, w_v)
    # a part set on a made witness that no longer fits is named, as
    # verify_covering names it
    m = w_v.upper.n_symbols
    w_v.xi = (m,) + w_v.xi[1:]
    with pytest.raises(WitnessError, match="^xi image %d out of range$" % m):
        substitute(cov.product, cov.b, cov.c, cov.omega, w_u, w_v)


@pytest.mark.parametrize("entry", [5, -1])
@pytest.mark.parametrize("side", ["left", "right"])
def test_substitute_names_a_phi_entry_set_out_of_range(seven_state, seven_p, side, entry):
    # an inner witness whose phi is set out of range after it was made is
    # refused with the reason verify_covering gives for it, not an
    # IndexError or KeyError from the body
    from krcascade import cascade_cover_from_partition

    cov = cascade_cover_from_partition(seven_state, seven_p)
    w_u, w_v = identity_witness(cov.b), identity_witness(cov.c)
    w = w_u if side == "left" else w_v
    w.phi = w.phi[:-1] + (entry,)
    reason = "phi image %d out of range" % entry
    assert not verify_covering(w)
    with pytest.raises(WitnessError, match="^%s$" % reason):
        substitute(cov.product, cov.b, cov.c, cov.omega, w_u, w_v)


def _violates(w, s, word):
    """Replay word from upper state s: does phi(s·xi(word)) differ from phi(s)·word?"""
    upper, lower = tuple(w.upper.delta), tuple(w.lower.delta)
    u, low = s, w.phi[s]
    for a in word:
        u = upper[u][w.xi[a]]
        low = lower[low][a]
    return w.phi[u] != low


def _exhaustive_counterexample(w, max_len):
    """Reference oracle: walk every lower word of length 1, then 2, ..., max_len,
    advancing all domain states in lockstep; the first violation is shortest."""
    dom = list(w.dom)
    upper, lower = tuple(w.upper.delta), tuple(w.lower.delta)

    def walk(us, ls, word, n):
        if len(word) == n:
            for s, u, low in zip(dom, us, ls):
                if w.phi[u] != low:
                    return s, word
            return None
        for a in range(w.lower.n_symbols):
            x = w.xi[a]
            nus = [upper[u][x] for u in us]
            nls = [lower[low][a] for low in ls]
            bad = walk(nus, nls, word + (a,), n)
            if bad is not None:
                return bad
        return None

    for n in range(1, max_len + 1):
        bad = walk(dom, [w.phi[s] for s in dom], (), n)
        if bad is not None:
            return bad
    return None


def _law_fails(w):
    """The per-symbol law or domain closure fails at some domain state."""
    upper, lower = tuple(w.upper.delta), tuple(w.lower.delta)
    return any(
        w.phi[upper[s][w.xi[a]]] != lower[w.phi[s]][a]
        for s in w.dom
        for a in range(w.lower.n_symbols)
    )


@pytest.fixture(scope="module")
def sweep_witnesses():
    """Every node witness of the criterion-7 sweep (seeds 0..99)."""
    out = []
    for seed in range(100):
        A = make_random_automaton(random.Random(seed), max_states=3, max_symbols=2)
        out.extend(node.witness for node in iter_nodes(krohn_rhodes_decompose(A)))
    return out


def test_simulation_matches_exhaustive_walk(sweep_witnesses):
    rng = random.Random(7)
    cases = []
    for w in sweep_witnesses:
        cases.append(w)
        # one-entry corruptions: phi to another lower state, phi out of the
        # domain, xi to another upper symbol
        s = rng.randrange(w.upper.n_states)
        phi = list(w.phi)
        phi[s] = rng.choice([v for v in range(w.lower.n_states) if v != w.phi[s]] or [None])
        cases.append(CoveringWitness(w.upper, w.lower, phi, w.xi, check=False))
        phi = list(w.phi)
        phi[rng.choice(w.dom)] = None
        cases.append(CoveringWitness(w.upper, w.lower, phi, w.xi, check=False))
        a = rng.randrange(w.lower.n_symbols)
        xi = list(w.xi)
        xi[a] = rng.choice([x for x in range(w.upper.n_symbols) if x != w.xi[a]] or [w.xi[a]])
        cases.append(CoveringWitness(w.upper, w.lower, w.phi, xi, check=False))
    rejected = 0
    for w in cases:
        for max_len in range(1, 5):
            want = _exhaustive_counterexample(w, max_len)
            got = simulation_counterexample(w, max_len)
            assert (got is None) == (want is None)
            if got is not None:
                s, word = got
                assert s in w.dom
                assert _violates(w, s, word)
                assert len(word) == len(want[1])
        rejected += want is not None
    assert 0 < rejected < len(cases)


def test_mutated_witnesses_are_rejected(sweep_witnesses):
    verified = [w for w in sweep_witnesses if verify_covering(w)]
    assert len(verified) == len(sweep_witnesses)
    kinds = {"phi": [0, 0], "xi": [0, 0], "delta": [0, 0]}
    for w in verified:
        up, low = w.upper, w.lower
        mutants = []
        for s in range(up.n_states):
            for v in [None] + list(range(low.n_states)):
                if v != w.phi[s]:
                    phi = list(w.phi)
                    phi[s] = v
                    mutants.append(("phi", CoveringWitness(up, low, phi, w.xi, check=False)))
        for a in range(low.n_symbols):
            for x in range(up.n_symbols):
                if x != w.xi[a]:
                    xi = list(w.xi)
                    xi[a] = x
                    mutants.append(("xi", CoveringWitness(up, low, w.phi, xi, check=False)))
        if up.n_states > 1:
            rows = tuple(up.delta)
            for s in range(up.n_states):
                for x in range(up.n_symbols):
                    delta = [list(row) for row in rows]
                    delta[s][x] = (delta[s][x] + 1) % up.n_states
                    B = Semiautomaton(up.state_labels, up.symbol_labels, delta)
                    mutants.append(("delta", CoveringWitness(B, low, w.phi, w.xi, check=False)))
        for kind, m in mutants:
            fails = _law_fails(m)
            for max_len in (1, 6):
                assert (simulation_counterexample(m, max_len) is not None) == fails
            onto = {m.phi[s] for s in m.dom} == set(range(low.n_states))
            assert bool(verify_covering(m)) == (not fails and onto)
            kinds[kind][fails] += 1
    # every kind of mutation is caught somewhere and survives somewhere
    for kind, (held, caught) in kinds.items():
        assert held > 0 and caught > 0, kind


def test_unique_labels_skips_taken_names():
    assert _unique_labels(["a#1", "a", "a"]) == ("a#1", "a", "a#2")
    assert _unique_labels(["a", "a", "a#1", "a#1"]) == ("a", "a#1", "a#1#1", "a#1#2")
    assert _unique_labels(["x", "y", "x", "x"]) == ("x", "y", "x#1", "x#2")


def _label_clash():
    # the pairs ("1", "2,1") and ("1,2", "1") both render as "(1,2,1)"
    A = Semiautomaton(["1", "1,2"], ["a"], [[1], [0]])
    B = Semiautomaton(["2,1", "1"], ["a"], [[1], [1]])
    return A, B


def test_product_labels_are_rendered_on_first_read(sa2, sa3):
    A, B = _label_clash()
    for product, factors in (
        (cascade_product(sa3, sa2, [[1, 1], [0, 0], [0, 1]]), (sa3, sa2)),
        (direct_product(A, B), (A, B)),
    ):
        assert vars(product)["_state_labels"] is None
        # each label rendered alone is the one of the full rendering
        pending = _PairLabels(*factors)
        alone = tuple(map(pending.label, range(len(pending))))
        expected = product_state_labels(*(X.state_labels for X in factors))
        assert product.state_labels == expected == alone
        assert product.state_index(product.state_labels[-1]) == product.n_states - 1
    assert direct_product(A, B).state_labels == ("(1,2,1)", "(1,1)", "(1,2,2,1)", "(1,2,1)#1")


def test_product_document_is_unchanged():
    A, B = _label_clash()
    assert emit_automaton(direct_product(A, B)) == (
        '{\n  "format_version": 1,\n  "states": [\n    "(1,2,1)",\n    "(1,1)",\n'
        '    "(1,2,2,1)",\n    "(1,2,1)#1"\n  ],\n  "alphabet": [\n    "a"\n  ],\n'
        '  "transitions": {\n    "a": [\n      "(1,2,1)#1",\n      "(1,2,1)#1",\n'
        '      "(1,1)",\n      "(1,1)"\n    ]\n  }\n}\n'
    )


def test_product_equality_reads_labels(sa2):
    renamed = Semiautomaton(["x", "y"], sa2.symbol_labels, sa2.delta)
    p, q = direct_product(sa2, sa2), direct_product(renamed, sa2)
    assert p.delta == q.delta and p.symbol_labels == q.symbol_labels
    assert p != q
    assert p == p
    assert p == direct_product(sa2, sa2)


def _assert_rows(A, rows):
    """A's delta reads exactly like the tuple of row tuples `rows`."""
    rows = tuple(map(tuple, rows))
    assert A.delta == rows and not A.delta != rows
    assert A.delta == [list(r) for r in rows]
    assert repr(A.delta) == repr(rows)
    assert len(A.delta) == len(rows) == A.n_states
    assert tuple(A.delta) == rows
    assert [A.delta[s] for s in range(len(rows))] == list(rows)
    assert A.delta[-1] == rows[-1] and A.delta[-len(rows)] == rows[0]
    for s in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            A.delta[s]
    assert all(type(A.delta[s]) is tuple for s in range(len(rows)))
    for cut in (slice(1, None), slice(None, -1), slice(None, None, -2), slice(5, 9)):
        assert A.delta[cut] == rows[cut] and type(A.delta[cut]) is tuple
    again = Semiautomaton(A.state_labels, A.symbol_labels, A.delta)
    assert again == A and again.delta == A.delta
    assert pickle.loads(pickle.dumps(A)) == A


def test_delta_reads_as_a_tuple_of_rows(sa2, sa3):
    _assert_rows(sa3, ((0, 1), (0, 1), (0, 2)))
    _assert_rows(Semiautomaton(["x"], [], [()]), ((),))
    columns = [[0, 0, 0], [1, 1, 2]]
    _assert_rows(Semiautomaton.from_columns(["1", "2", "3"], ["a", "b"], columns), sa3.delta)
    doc = emit_automaton(sa3)
    _assert_rows(parse_automaton(doc), ((0, 1), (0, 1), (0, 2)))
    omega = [[1, 1], [0, 0], [0, 1]]
    rows3, rows2 = ((0, 1), (0, 1), (0, 2)), ((0, 1), (0, 1))
    _assert_rows(
        cascade_product(sa3, sa2, omega),
        [
            [rows3[s][a] * 2 + rows2[t][omega[s][a]] for a in range(2)]
            for s in range(3)
            for t in range(2)
        ],
    )
    _assert_rows(
        direct_product(sa2, sa2),
        [[rows2[i][a] * 2 + rows2[j][a] for a in range(2)] for i in range(2) for j in range(2)],
    )


def test_malformed_tables_keep_their_messages():
    labels = ["x", "y"]
    cases = [
        ([[0]], "need one transition row per state"),
        ([[0], [0, 1]], "transition row length differs from alphabet size"),
        ([[2], [0, 1]], "transition target 2 out of range"),
        ([[0], [-1]], "transition target -1 out of range"),
        ([[1], [2**31]], "transition target 2147483648 out of range"),
        ([[0], [-2**40]], "transition target -1099511627776 out of range"),
        ([[0], ["1"]], "transition target '1' is not an integer"),
        ([[1.0], [0]], "transition target 1.0 is not an integer"),
        ([[None], [0]], "transition target None is not an integer"),
    ]
    for rows, message in cases:
        with pytest.raises(InvalidInputError) as err:
            Semiautomaton(labels, ["a"], rows)
        assert str(err.value) == message, rows
    with pytest.raises(InvalidInputError, match="^column length differs from state count$"):
        Semiautomaton.from_columns(labels, ["a"], [[0]])
    for col, message in (
        ([0, 2], "transition target 2 out of range"),
        ([0, 2**31], "transition target 2147483648 out of range"),
        ([0, 0.5], "transition target 0.5 is not an integer"),
    ):
        with pytest.raises(InvalidInputError) as err:
            Semiautomaton.from_columns(labels, ["a"], [col])
        assert str(err.value) == message
    # one column per symbol: too few, none, too many
    for symbols, columns in (
        (["a", "b"], [[0, 1]]),
        (["a", "b"], []),
        (["a"], [[0, 1], [1, 0]]),
        (["a"], [[0, 1], ["y", 0]]),
    ):
        with pytest.raises(
            InvalidInputError, match="^transition row length differs from alphabet size$"
        ):
            Semiautomaton.from_columns(labels, symbols, columns)
    # the label checks still come first
    with pytest.raises(InvalidInputError, match="^duplicate state label$"):
        Semiautomaton.from_columns(["x", "x"], ["a"], [[0, "y"]])


# name: (state labels, symbol labels, rows, the same table as columns, the
# message of Semiautomaton(...), that of from_columns where it differs)
MALFORMED = {
    "str target": (["x", "y"], ["a", "b"], [[0, 1], ["y", 0]], [[0, "y"], [1, 0]],
                   "transition target 'y' is not an integer", None),
    "negative target": (["x", "y"], ["a", "b"], [[0, 1], [1, -1]], [[0, 1], [1, -1]],
                        "transition target -1 out of range", None),
    "2**40 target": (["x", "y"], ["a", "b"], [[0, 2**40], [1, 0]], [[0, 1], [2**40, 0]],
                     "transition target 1099511627776 out of range", None),
    "range before float in row order": (["x", "y"], ["a", "b"], [[0, 9], [1.5, 0]],
                                        [[0, 1.5], [9, 0]], "transition target 9 out of range",
                                        None),
    "duplicate state label": (["x", "x"], ["a"], [[0], [1]], [[0, 1]],
                              "duplicate state label", None),
    "duplicate symbol label": (["x", "y"], ["a", "a"], [[0, 1], [1, 0]], [[0, 1], [1, 0]],
                               "duplicate symbol label", None),
    "short column and duplicate label": (["x", "x"], ["a"], [[0]], [[0]],
                                         "duplicate state label",
                                         "column length differs from state count"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_named_alike_by_rows_and_columns(name):
    # the first fault is named, with one message, whichever constructor reads it
    states, symbols, rows, columns, message, by_columns = MALFORMED[name]
    with pytest.raises(InvalidInputError) as err:
        Semiautomaton(states, symbols, rows)
    assert type(err.value) is InvalidInputError and str(err.value) == message
    with pytest.raises(InvalidInputError) as err:
        Semiautomaton.from_columns(states, symbols, columns)
    assert type(err.value) is InvalidInputError and str(err.value) == (by_columns or message)


def test_unpickling_checks_labels(sa3):
    # unpickling is a way into the library, so a pickle whose labels repeat
    # is refused with the constructor's message
    for attr, labels, message in (
        ("_state_labels", ("1", "1", "3"), "duplicate state label"),
        ("symbol_labels", ("a", "a"), "duplicate symbol label"),
    ):
        A = Semiautomaton(sa3.state_labels, sa3.symbol_labels, sa3.delta)
        setattr(A, attr, labels)
        data = pickle.dumps(A)
        with pytest.raises(InvalidInputError) as err:
            pickle.loads(data)
        assert type(err.value) is InvalidInputError and str(err.value) == message


def test_tables_are_read_only(sa3):
    with pytest.raises(TypeError):
        sa3.delta[0] = (0, 0)
    with pytest.raises(TypeError):
        sa3.delta[0][0] = 1
    with pytest.raises(TypeError):
        sa3.column(1)[0] = 1
    with pytest.raises(TypeError):
        sa3.table[0] = 1
    assert sa3.column(1).tolist() == [1, 1, 2]
    with pytest.raises(IndexError):
        sa3.column(2)
    assert sa3.table.tolist() == [0, 0, 0, 1, 1, 2]


def test_product_too_large_for_a_table_is_refused():
    # 65,536 ** 2 = 2 ** 32 states: the last state index would not fit a cell
    big = Semiautomaton(["s%d" % i for i in range(65536)], ["a"], [[0]] * 65536)
    with pytest.raises(InvalidInputError, match="does not fit a table"):
        direct_product(big, big)
    with pytest.raises(InvalidInputError, match="does not fit a table"):
        cascade_product(big, big, [[0]] * 65536)


def test_tables_take_four_bytes_a_cell():
    """Every node automaton of random-5 seed 0 keeps its table in one buffer
    allocated at exactly 4 bytes a cell; its columns are views into it. The
    two nodes that record their factors build their tables here, on the
    first read of table."""
    rng = random.Random(5000)  # the "random 5" recipe, seed 0
    A = Semiautomaton(
        ["s%d" % i for i in range(5)], ["a", "b"],
        [[rng.randrange(5) for _ in range(2)] for _ in range(5)],
    )
    autos = {}
    for node in iter_nodes(krohn_rhodes_decompose(A)):
        autos[id(node.automaton)] = node.automaton
    buffer_bytes = cells = 0
    for X in autos.values():
        buf = X.table.obj
        assert all(X.column(a).obj is buf for a in range(X.n_symbols))
        buffer_bytes += sys.getsizeof(buf) - sys.getsizeof(array(buf.typecode))
        cells += X.n_states * X.n_symbols
    assert cells > 200_000
    assert buffer_bytes == 4 * cells
