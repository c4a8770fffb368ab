"""Property-based checks of the algebraic laws on randomly generated inputs."""

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krcascade.automata as kr_automata
from krcascade import _lawcheck

from krcascade import (
    Caps,
    CoveringWitness,
    Decomposition,
    InputClass,
    InvalidInputError,
    Partition,
    Semiautomaton,
    Transformation,
    cascade_cover_from_decomposition,
    cascade_cover_from_partition,
    cascade_product,
    classify_inputs,
    closure_generate,
    cover_permutation_by_grouplike,
    complementary_partition,
    d_factor,
    direct_product,
    direct_product_monoid,
    emit_automaton,
    evaluate_word,
    is_admissible_decomposition,
    is_permutation,
    is_permutation_reset,
    is_reset,
    iter_nodes,
    krohn_rhodes_decompose,
    p_factor,
    parse_automaton,
    right_regular_representation,
    run,
    simulation_counterexample,
    split_permutation_reset,
    substitute,
    transition_monoid,
    verify_covering,
    word_transformation,
    yoeli_auxiliary,
)
from krcascade.automata import _CONSTANT, _IDENTITY, _OTHER, _PERMUTATION
from krcascade.partitions import _quotient
from krcascade.pipeline import (
    _chain_steps,
    _class_chain,
    _group_cover,
    _plan_chain,
    _plan_factor,
)

from test_pipeline import _descent_levels, random_n


def _whole_chain(A):
    """Every step of A's chain at full alphabet, expanded from the one walk
    (_class_chain), and the last continuation."""
    return _chain_steps(A, _class_chain(A)[0])


@st.composite
def automata(draw, max_states=5, max_symbols=3, min_states=1):
    n = draw(st.integers(min_states, max_states))
    m = draw(st.integers(1, max_symbols))
    delta = [[draw(st.integers(0, n - 1)) for _ in range(m)] for _ in range(n)]
    return Semiautomaton(
        ["s%d" % i for i in range(n)],
        ["abcdefgh"[j] for j in range(m)],
        delta,
    )


@st.composite
def automaton_and_words(draw):
    A = draw(automata())
    word = lambda: draw(st.lists(st.integers(0, A.n_symbols - 1), max_size=5))
    return A, word(), word(), draw(st.integers(0, A.n_states - 1))


@st.composite
def transformation_sets(draw, max_n=4):
    # T_n grows as n^n; 4 keeps the exhaustive closure loops cheap
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, 3))
    gens = [
        Transformation([draw(st.integers(0, n - 1)) for _ in range(n)])
        for _ in range(k)
    ]
    return n, gens


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    blocks = []
    i = 0
    while i < n:
        size = draw(st.integers(1, n - i))
        blocks.append(order[i : i + size])
        i += size
    return Partition(n, blocks)


@settings(deadline=None)
@given(automaton_and_words())
def test_action_law(data):
    A, x, y, s = data
    assert run(A, s, x + y) == run(A, run(A, s, x), y)


@settings(deadline=None)
@given(automaton_and_words())
def test_word_transformation_is_a_hom(data):
    A, x, y, _ = data
    assert word_transformation(A, x + y) == word_transformation(A, x).compose(
        word_transformation(A, y)
    )


@settings(deadline=None)
@given(transformation_sets())
def test_closure_is_sound_and_closed(data):
    n, gens = data
    M = closure_generate(gens, domain_size=n)
    imgs = {t.image for t in M.transformations}
    assert len(imgs) == M.order
    assert Transformation.identity(n).image in imgs
    for a in M.transformations:
        for b in M.transformations:
            assert a.compose(b).image in imgs
    for i in range(M.order):
        assert evaluate_word(M.witnesses[i], gens, n) == M.transformations[i]
    again = closure_generate(M.transformations, domain_size=n)
    assert again.order == M.order


@settings(deadline=None)
@given(transformation_sets())
def test_regular_representation_is_faithful(data):
    n, gens = data
    M = closure_generate(gens, domain_size=n)
    N, iso = right_regular_representation(M)
    assert len({t.image for t in N.transformations}) == M.order
    assert N.table == M.table
    assert iso.is_injective()


@settings(deadline=None)
@given(partitions())
def test_complementary_partition_invariants(p):
    q = complementary_partition(p.n_states, p)
    assert q.count == p.max_block_size
    for pb in p.blocks:
        for qb in q.blocks:
            assert len(set(pb) & set(qb)) <= 1


@settings(deadline=None)
@given(transformation_sets(max_n=3), transformation_sets(max_n=3))
def test_product_monoid_pairing(d1, d2):
    M1 = closure_generate(d1[1], domain_size=d1[0])
    M2 = closure_generate(d2[1], domain_size=d2[0])
    P = direct_product_monoid(M1, M2)
    n2 = M2.order
    for i in range(M1.order):
        for j in range(n2):
            for k in range(M1.order):
                for l in range(n2):
                    got = P.mul(i * n2 + j, k * n2 + l)
                    assert got == M1.mul(i, k) * n2 + M2.mul(j, l)


@settings(deadline=None)
@given(automata(max_states=4), automata(max_states=4), st.data())
def test_product_laws(A, B, data):
    if A.symbol_labels != B.symbol_labels:
        m = min(A.n_symbols, B.n_symbols)
        A = Semiautomaton(A.state_labels, A.symbol_labels[:m], [r[:m] for r in A.delta])
        B = Semiautomaton(B.state_labels, A.symbol_labels, [r[:m] for r in B.delta])
    d = direct_product(A, B)
    for i in range(A.n_states):
        for j in range(B.n_states):
            for a in range(A.n_symbols):
                assert d.delta[i * B.n_states + j][a] == (
                    A.delta[i][a] * B.n_states + B.delta[j][a]
                )
    omega = [
        [data.draw(st.integers(0, B.n_symbols - 1)) for _ in range(A.n_symbols)]
        for _ in range(A.n_states)
    ]
    c = cascade_product(A, B, omega)
    for i in range(A.n_states):
        for j in range(B.n_states):
            for a in range(A.n_symbols):
                assert c.delta[i * B.n_states + j][a] == (
                    A.delta[i][a] * B.n_states + B.delta[j][omega[i][a]]
                )
    # products keep their tables without a range scan: every cell, also of a
    # product of products, must be a state
    omega2 = [
        [data.draw(st.integers(0, B.n_symbols - 1)) for _ in range(c.n_symbols)]
        for _ in range(c.n_states)
    ]
    for X in (d, c, direct_product(d, A), cascade_product(c, B, omega2)):
        cells = X.table.tolist()
        assert len(cells) == X.n_states * X.n_symbols
        assert 0 <= min(cells) and max(cells) < X.n_states


@settings(deadline=None)
@given(automata(max_states=6, max_symbols=3, min_states=2))
def test_pr_chain_factors_are_permutation_reset(A):
    # pr_chain's factors are _chain_steps' B*s and its last continuation,
    # which nothing tests for being permutation-reset once built
    steps, last = _whole_chain(A)
    assert all(map(is_permutation_reset, [step.b for step in steps] + [last]))


@settings(deadline=None)
@given(automata(max_states=6, max_symbols=4))
def test_serialization_round_trip(A):
    assert parse_automaton(emit_automaton(A)) == A


@settings(deadline=None)
@given(automata(max_states=4), st.data())
def test_verified_witness_simulates(A, data):
    # the finest partition is always admissible; then scramble the witness and
    # keep only the implication: passing the law check means simulation passes
    P = Partition(A.n_states, [[s] for s in range(A.n_states)])
    B, w = p_factor(A, P)
    phi = data.draw(st.permutations(range(A.n_states)))
    xi = [data.draw(st.integers(0, A.n_symbols - 1)) for _ in range(A.n_symbols)]
    mutant = CoveringWitness(A, B, phi, xi, check=False)
    if verify_covering(mutant):
        assert simulation_counterexample(mutant, 4) is None


@st.composite
def input_columns(draw, max_states=6, max_symbols=64):
    """An automaton of 1 to 6 states and 1 to 64 symbols whose columns are
    drawn as identities, constants, permutations or arbitrary maps."""
    n = draw(st.integers(1, max_states))
    m = draw(st.integers(1, max_symbols))
    columns = []
    for _ in range(m):
        kind = draw(st.sampled_from(["identity", "constant", "permutation", "any"]))
        if kind == "identity":
            columns.append(list(range(n)))
        elif kind == "constant":
            columns.append([draw(st.integers(0, n - 1))] * n)
        elif kind == "permutation":
            columns.append(draw(st.permutations(range(n))))
        else:
            columns.append([draw(st.integers(0, n - 1)) for _ in range(n)])
    return Semiautomaton.from_columns(
        ["s%d" % i for i in range(n)], ["x%d" % j for j in range(m)], columns
    )


@settings(deadline=None)
@given(input_columns())
def test_input_kinds_match_transformations(A):
    # the kinds read off the table agree with each input's Transformation,
    # and so do the predicates and classes built on them
    ts = A.transformations()
    expected = [
        _IDENTITY if t.is_identity()
        else _CONSTANT if t.is_reset()
        else _PERMUTATION if t.is_permutation()
        else _OTHER
        for t in ts
    ]
    assert list(A._kinds) == expected
    assert is_permutation(A) == all(t.is_permutation() for t in ts)
    assert is_reset(A) == all(t.is_identity() or t.is_reset() for t in ts)
    assert is_permutation_reset(A) == all(t.is_permutation() or t.is_reset() for t in ts)
    assert list(classify_inputs(A).values()) == [
        InputClass.PERMUTATION if t.is_permutation()
        else InputClass.RESET if t.is_reset()
        else InputClass.OTHER
        for t in ts
    ]


@settings(deadline=None)
@given(input_columns())
def test_column_classes_match_column_equality(A):
    # the class of an input is the lowest input with an equal column
    columns = [tuple(A.column(a)) for a in range(A.n_symbols)]
    expected = tuple(columns.index(col) for col in columns)
    assert tuple(A._classes) == expected
    assert list(A._kinds) == [A._kinds[c] for c in expected]


@settings(deadline=None)
@given(input_columns(max_states=4, max_symbols=8), st.data())
def test_closure_over_classes_matches_closure_over_inputs(A, data):
    # one generator per column class gives the closure over every input:
    # the same elements in the same order, with the same words and labels;
    # the inputs are every input of some of the classes, as the permutation
    # inputs of an automaton are
    chosen = data.draw(st.sets(st.sampled_from(A._firsts)))
    inputs = [a for a, c in enumerate(A._classes) if c in chosen]
    X = Semiautomaton.from_columns(
        A.state_labels, [A.symbol_labels[a] for a in inputs], [A.column(a) for a in inputs]
    )
    M = transition_monoid(X, 10_000)
    N = closure_generate(
        [A.symbol_transformation(a) for a in inputs],
        domain_size=A.n_states,
        symbol_labels=[A.symbol_labels[a] for a in inputs],
    )
    assert M.transformations == N.transformations
    assert M.witnesses == N.witnesses
    assert M.labels == N.labels
    assert M.table == N.table
    T, U = transition_monoid(A), closure_generate(
        A.transformations(), domain_size=A.n_states, symbol_labels=A.symbol_labels
    )
    assert (T.transformations, T.witnesses, T.labels) == (U.transformations, U.witnesses, U.labels)


def _drive(A, B, data):
    """A direct product of A and B when they share an alphabet and the draw
    says so, else a cascade with a drawn connection."""
    if A.symbol_labels == B.symbol_labels and data.draw(st.booleans()):
        return direct_product(A, B)
    omega = [
        [data.draw(st.integers(0, B.n_symbols - 1)) for _ in range(A.n_symbols)]
        for _ in range(A.n_states)
    ]
    return cascade_product(A, B, omega)


def _projection(X, A):
    """The cover X >= A of a product X whose first factor is A: phi sends
    each state to its A-part."""
    nb = X.n_states // A.n_states
    return CoveringWitness(X, A, [s // nb for s in range(X.n_states)], range(A.n_symbols))


def _law_corruptions(w, data):
    """Copies of w with one entry of phi, one of xi or one cell of the lower
    table changed."""
    n, m = w.lower.n_states, w.upper.n_symbols
    phi = list(w.phi)
    s = data.draw(st.integers(0, len(phi) - 1))
    phi[s] = data.draw(st.sampled_from([None] + list(range(n))))
    xi = list(w.xi)
    a = data.draw(st.integers(0, len(xi) - 1))
    xi[a] = data.draw(st.integers(0, m - 1))
    columns = [list(w.lower.column(b)) for b in range(w.lower.n_symbols)]
    columns[a][data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    lower = Semiautomaton.from_columns(w.lower.state_labels, w.lower.symbol_labels, columns)
    return [
        CoveringWitness(w.upper, w.lower, phi, w.xi, check=False),
        CoveringWitness(w.upper, w.lower, w.phi, xi, check=False),
        CoveringWitness(w.upper, lower, w.phi, w.xi, check=False),
    ]


def _flat_verdict(w):
    """verify_covering's (ok, reason, site) with the upper automaton copied
    into one that records no factors, so that the law check takes the flat
    pass."""
    U = w.upper
    flat = Semiautomaton.from_columns(
        U.state_labels, U.symbol_labels, [U.column(a) for a in range(U.n_symbols)]
    )
    r = verify_covering(CoveringWitness(flat, w.lower, w.phi, w.xi, check=False))
    return r.ok, r.reason, r.site


@settings(deadline=None)
@given(
    automata(max_states=3, max_symbols=2),
    automata(max_states=3, max_symbols=2),
    automata(max_states=3, max_symbols=2),
    st.data(),
)
def test_factored_law_check_matches_flat_pass(A, B, C, data):
    # with every product recording its factors and every domain checked a
    # pass at a time, the check through the factors gives the flat pass's
    # verdict, reason and site on valid covers and on corrupted copies
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kr_automata, "_FACTORED_STATES", 1)
        mp.setattr(kr_automata, "_SYMBOL_PASS_CELLS", 1)
        AB = _drive(A, B, data)
        right = _drive(A, _drive(B, C, data), data)
        left = _drive(AB, C, data)
        covers = [kr_automata.identity_witness(right)]
        covers += [_projection(right, A), _projection(left, AB)]
        for X in (A, B):
            covers += [node.witness for node in iter_nodes(krohn_rhodes_decompose(X))]
        recorded = 0
        for w in covers:
            recorded += w.upper._factors is not None
            for c in [w] + _law_corruptions(w, data):
                r = verify_covering(c)
                assert (r.ok, r.reason, r.site) == _flat_verdict(c)
            assert verify_covering(w)
        assert recorded >= 3


def _reference_verdict(w):
    """verify_covering's (ok, reason, site) from the flat check: the states
    phi covers from set(phi), and the law from a scan of every domain state
    under every lower symbol."""
    phi, xi, upper, lower = w.phi, w.xi, w.upper, w.lower
    covered = set(phi) - {None}
    if not covered:
        return False, "phi has an empty domain", None
    missing = set(range(lower.n_states)) - covered
    if missing:
        return False, "phi misses lower state %s" % lower.state_labels[min(missing)], None
    for v in phi:
        if v is not None and not 0 <= v < lower.n_states:
            return False, "phi image %d out of range" % v, None
    for s, v in enumerate(phi):
        for a in range(len(xi) if v is not None else 0):
            t = phi[upper.step(s, xi[a])]
            if t is None:
                return False, "domain not closed under symbol %s" % lower.symbol_labels[a], (s, a)
            if t != lower.step(v, a):
                reason = "covering law fails at state %s under symbol %s" % (
                    upper.state_labels[s],
                    lower.symbol_labels[a],
                )
                return False, reason, (s, a)
    return True, None, None


@st.composite
def _lowers(draw):
    """A lower automaton of up to three states, with no symbols at times."""
    if draw(st.booleans()):
        return draw(automata(max_states=3, max_symbols=2))
    n = draw(st.integers(1, 3))
    return Semiautomaton(["s%d" % i for i in range(n)], [], [[] for _ in range(n)])


def _cover_cases(X, L, widths, data):
    """Witnesses of X over L: the projection onto X's first factor, where that
    factor has L's states and symbols, and drawn phi and xi that keep one
    lower state inside a single deepest block only, then miss it; each of
    these with an all-None block of a drawn width in widths, and with an
    entry out of range."""
    n, nl = X.n_states, L.n_states
    xi = tuple(data.draw(st.integers(0, X.n_symbols - 1)) for _ in range(L.n_symbols))
    values = st.sampled_from([None] + list(range(nl)))
    p, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, nl - 1))
    kept = [data.draw(values) for _ in range(n)]
    kept = [None if u == v else u for u in kept]
    kept[p] = v
    missed = kept[:p] + [None] + kept[p + 1:]
    phis = [kept, missed]
    first = X._factors[0]
    if first.n_states == nl and first.symbol_labels == L.symbol_labels:
        phis.append([s * nl // n for s in range(n)])
        xi = tuple(range(L.n_symbols))
    for phi in list(phis):
        w = data.draw(st.sampled_from(widths))
        u = data.draw(st.integers(0, n // w - 1))
        phis.append(phi[:u * w] + [None] * w + phi[(u + 1) * w:])
        bad = list(phi)
        bad[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([-1, nl]))
        phis.append(bad)
    return [CoveringWitness._from_parts(X, L, tuple(phi), xi) for phi in phis]


@settings(deadline=None)
@given(
    automata(max_states=3, max_symbols=2),
    automata(max_states=3, max_symbols=2),
    automata(max_states=3, max_symbols=2),
    _lowers(),
    st.data(),
)
def test_flat_phi_over_recorded_products_matches_flat_reference(A, B, C, L, data):
    # with every product recording its factors and every witness checked by
    # the passes, verify_covering gives a flat phi over a recorded product
    # the verdict, reason and site of the flat set(phi) check and the scan
    # of every symbol
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kr_automata, "_FACTORED_STATES", 1)
        mp.setattr(kr_automata, "_SYMBOL_PASS_CELLS", 1)
        BC = _drive(B, C, data)
        uppers = [_drive(A, BC, data), _drive(_drive(A, B, data), C, data)]
        if L.n_symbols:
            uppers.append(_drive(L, BC, data))
        for X in uppers:
            widths = [X.n_states]
            Y = X
            while Y._factors is not None:
                Y = Y._factors[1]
                widths.append(Y.n_states)
            for w in _cover_cases(X, L, widths, data):
                r = verify_covering(w)
                assert (r.ok, r.reason, r.site) == _reference_verdict(w)


def _connect(A, B, data, built):
    """A product of A driving B: A × B when they share an alphabet and the
    draw says so, else a cascade whose connection rows repeat earlier rows
    at times. Appends (product, A, B, connection) to built, the connection
    as one row of B's inputs per state of A."""
    if A.symbol_labels == B.symbol_labels and data.draw(st.booleans()):
        omega = [range(A.n_symbols)] * A.n_states
        X = direct_product(A, B)
    else:
        omega = []
        for _ in range(A.n_states):
            if omega and data.draw(st.booleans()):
                omega.append(data.draw(st.sampled_from(omega)))
            else:
                omega.append([data.draw(st.integers(0, B.n_symbols - 1)) for _ in range(A.n_symbols)])
        X = cascade_product(A, B, omega)
    built.append((X, A, B, omega))
    return X


@settings(deadline=None)
@given(
    input_columns(max_states=4, max_symbols=3),
    input_columns(max_states=4, max_symbols=3),
    input_columns(max_states=4, max_symbols=3),
    st.data(),
)
def test_recorded_classes_match_the_built_table(A, B, C, data):
    # the classes a product takes from how it is built, and the table built
    # from them, are those of the table the definition gives, cell by cell,
    # on nested cascade and direct products whose factors have equal
    # columns and whose connections repeat rows; each draw runs with every
    # product recording its factors, which then hold no table after all are
    # built, and at the default threshold, below which all of them are eager
    for recorded in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if recorded:
                mp.setattr(kr_automata, "_FACTORED_STATES", 1)
            built = []
            BC = _connect(B, C, data, built)
            right = _connect(A, BC, data, built)
            left = _connect(_connect(A, B, data, built), C, data, built)
            for U, V in ((A, right), (left, A)):
                omega = [range(U.n_symbols)] * U.n_states
                built.append((direct_product(U, V), U, V, omega))
            for X, _, _, _ in built:
                assert (X._factors is not None) == recorded
                assert ("_table" in vars(X)) != recorded
            for X, U, V, omega in built:
                nv = V.n_states
                rows = [
                    [U.step(u, x) * nv + V.step(v, omega[u][x]) for x in range(U.n_symbols)]
                    for u in range(U.n_states)
                    for v in range(nv)
                ]
                reference = Semiautomaton(X.state_labels, X.symbol_labels, rows)
                assert (X._classes, X._firsts) == (reference._classes, reference._firsts)
                assert X.delta == reference.delta


def _reference_classes(X):
    """The classes and first inputs of X's table, found by keying each
    column as a tuple. No label is read: rendering those of a product of
    442,368 states takes half a second."""
    n, first = X.n_states, {}
    classes = [first.setdefault(tuple(X._table[a * n:(a + 1) * n]), a) for a in range(X.n_symbols)]
    return array("i", classes), tuple(first.values())


@st.composite
def _repeating_columns(draw, max_states=5):
    """An automaton of 1 to max_states states and 1 to 3 symbols whose last
    column, where there are two or more, repeats a drawn earlier one."""
    A = draw(input_columns(max_states=max_states, max_symbols=3))
    columns = [list(A.column(a)) for a in range(A.n_symbols)]
    if len(columns) > 1:
        columns[-1] = columns[draw(st.integers(0, len(columns) - 2))]
    return Semiautomaton.from_columns(A.state_labels, A.symbol_labels, columns)


@settings(deadline=None)
@given(_repeating_columns())
def test_outside_automata_have_their_classes_when_built(A):
    # every way into the library from outside sets the column classes and
    # first inputs as plain attributes where it builds the automaton, and
    # they are those of its table; a pickled copy keeps the table, the
    # classes and the kinds, and equals the original
    columns = [list(A.column(a)) for a in range(A.n_symbols)]
    rows = [list(row) for row in A.delta]
    copy = pickle.loads(pickle.dumps(A))
    for X in (
        Semiautomaton(A.state_labels, A.symbol_labels, rows),
        Semiautomaton.from_columns(A.state_labels, A.symbol_labels, columns),
        parse_automaton(emit_automaton(A)),
        copy,
    ):
        assert "_classes" in vars(X) and "_firsts" in vars(X)
        assert (X._classes, X._firsts) == _reference_classes(X)
        assert X == A
    assert copy._table == A._table and copy._kinds == A._kinds
    assert (copy._classes, copy._firsts) == (A._classes, A._firsts)


def _admissible_partition(A, s, t):
    """The finest admissible partition of A with s and t in one block."""
    n = A.n_states
    block = list(range(n))

    def join(u, v):
        bu, bv = block[u], block[v]
        block[:] = [bu if b == bv else b for b in block]
        return bu != bv

    join(s, t)
    while any(
        join(A.step(x, a), A.step(y, a))
        for a in range(A.n_symbols) for x in range(n) for y in range(n) if block[x] == block[y]
    ):
        pass
    return Partition(n, [[x for x in range(n) if block[x] == b] for b in sorted(set(block))])


@settings(deadline=None, max_examples=60)
@given(_repeating_columns(), st.data())
def test_construction_classes_match_the_built_table(A, data):
    # every automaton a construction makes takes its column classes from how
    # it is built (Semiautomaton._from_keys, automata._product); they must be
    # the classes of its table, on inputs with a repeated column, a choice
    # table that may split a class, and the trees of krohn_rhodes_decompose
    # at the default threshold and with every product recording its
    # factors. _law_pairs trusts these classes.
    n, m = A.n_states, A.n_symbols
    built = []
    u, v = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    P = _admissible_partition(A, u, v)
    built += [p_factor(A, P)[0]]
    cover = cascade_cover_from_partition(A, P)
    built += [cover.b, cover.c, cover.product]
    D = Decomposition(n, [[s for s in range(n) if s != i] for i in range(n)] if n > 1 else [[0]])
    sets = [set(b) for b in D.blocks]
    choice = [
        [
            data.draw(st.sampled_from(
                [j for j, b in enumerate(sets) if {A.step(s, a) for s in block} <= b]
            ))
            for a in range(m)
        ]
        for block in D.blocks
    ]
    B, fc = d_factor(A, D, choice)
    aux = yoeli_auxiliary(A, D, (B, fc))
    built += [B, aux.a_star, aux.b_star]
    dc = cascade_cover_from_decomposition(A, D, choice)
    built += [dc.b_star, dc.c, dc.product, dc.yoeli.a_star]
    if n > 1:
        # the permutation-reset factors of the chain, without its cascade
        steps, last = _whole_chain(A)
        for X in [step.b for step in steps] + [last]:
            split = split_permutation_reset(X, Caps(group_order=120))
            built += [split.pi, split.r, split.product]
    C = data.draw(input_columns(max_states=3, max_symbols=2))
    omega = [[data.draw(st.integers(0, C.n_symbols - 1)) for _ in range(m)] for _ in range(n)]
    for factored in (kr_automata._FACTORED_STATES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kr_automata, "_FACTORED_STATES", factored)
            trees = [krohn_rhodes_decompose(X) for X in (A, C)]
            sub = substitute(cascade_product(A, C, omega), A, C, omega, *(t.witness for t in trees))
            built += [sub.u_prime, sub.product]
            built += [node.automaton for tree in trees for node in iter_nodes(tree)]
            built += [node.witness.lower for tree in trees for node in iter_nodes(tree)]
    for X in built:
        assert (X._classes, X._firsts) == _reference_classes(X)


def _with_row_entry(c, values, data):
    """c with one entry of one of its row maps drawn from values."""
    rows = {k: list(c.rows[k]) for k in set(c.keys)}
    row = rows[data.draw(st.sampled_from(sorted(k for k in rows if k is not None)))]
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(st.sampled_from(values))
    return _lawcheck.Composed(c.keys, {k: tuple(r) for k, r in rows.items()}, c.inner)


def _composed_mutants(c, nl, data):
    """Copies of the composition c of a phi onto nl lower states: one row-map
    entry changed, one entry of the inner phi changed, a row-map entry out
    of range, and one key None, which makes its block all None."""
    nc = len(c.rows[next(k for k in c.keys if k is not None)])
    inner = c.inner
    if isinstance(inner, _lawcheck.Composed):
        inner = _with_row_entry(inner, [None] + list(range(nc)), data)
    else:
        inner = list(inner)
        inner[data.draw(st.integers(0, len(inner) - 1))] = data.draw(
            st.sampled_from([None] + list(range(nc)))
        )
        inner = tuple(inner)
    keys = list(c.keys)
    keys[data.draw(st.integers(0, len(keys) - 1))] = None
    rows = dict(enumerate(c.rows)) if isinstance(c.rows, list) else dict(c.rows)
    rows[None] = (None,) * nc
    return [
        _with_row_entry(c, [None] + list(range(nl)), data),
        _lawcheck.Composed(c.keys, c.rows, inner),
        _with_row_entry(c, [-1, nl], data),
        _lawcheck.Composed(keys, rows, c.inner),
    ]


@settings(deadline=None, max_examples=40)
@given(
    automata(max_states=3, max_symbols=2),
    automata(max_states=3, max_symbols=2),
    st.data(),
)
def test_composed_phi_checks_as_its_flat_copy(A, C, data):
    # with every product recording its factors, the node witnesses of
    # decompositions and a substitution over them keep phi composed, nested
    # where the inner witness is composed too; each, and each copy with its
    # composition changed, gets the verdict, reason and site and the values
    # of the witness with phi expanded; with every witness checked by the
    # passes, checking a witness that verifies, or simulating it, expands
    # nothing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kr_automata, "_FACTORED_STATES", 1)
        mp.setattr(kr_automata, "_SYMBOL_PASS_CELLS", 1)
        omega = [
            [data.draw(st.integers(0, C.n_symbols - 1)) for _ in range(A.n_symbols)]
            for _ in range(A.n_states)
        ]
        covers = [krohn_rhodes_decompose(X).witness for X in (A, C)]
        sub = substitute(cascade_product(A, C, omega), A, C, omega, *covers)
        witnesses = [sub.witness] + [
            node.witness for X in (A, C) for node in iter_nodes(krohn_rhodes_decompose(X))
        ]
        composed = [w for w in witnesses if isinstance(w._phi, _lawcheck.Composed)]
        assert composed[0] is sub.witness and verify_covering(sub.witness)
        for w in composed:
            c = w._phi
            # a fresh copy: _substitute reads the phi of a composed left cover
            cases = [_lawcheck.Composed(c.keys, c.rows, c.inner)]
            cases += _composed_mutants(c, w.lower.n_states, data)
            for c in cases:
                got = CoveringWitness._from_parts(w.upper, w.lower, c, w.xi)
                r = verify_covering(got)
                if r.ok:
                    assert simulation_counterexample(got, 1) is None and c._flat is None
                flat = CoveringWitness._from_parts(w.upper, w.lower, c.expand(), w.xi)
                want = verify_covering(flat)
                assert (r.ok, r.reason, r.site) == (want.ok, want.reason, want.site)
                assert _lawcheck.values(c) == set(flat.phi) - {None}


def _with_left_cell(X, data):
    """The recorded product X = A∘B with one cell of A changed, over B and
    X's connection."""
    A, B, connection = X._factors
    columns = [list(A.column(a)) for a in range(A.n_symbols)]
    col = columns[data.draw(st.integers(0, A.n_symbols - 1))]
    u = data.draw(st.integers(0, A.n_states - 1))
    col[u] = data.draw(st.integers(0, A.n_states - 1))
    Y = Semiautomaton.from_columns(A.state_labels, A.symbol_labels, columns)
    return kr_automata._product(Y, B, connection)


@settings(deadline=None, max_examples=60)
@given(_repeating_columns(max_states=3), _repeating_columns(max_states=3), st.data())
def test_class_keyed_descent_matches_the_flat_scan(A, C, data):
    # with every product recording its factors, a substitution over the
    # decompositions of two automata whose inputs share columns keeps phi
    # composed over a product whose factors' inputs share columns too, so
    # that tasks on distinct connection symbols of one class merge at every
    # level; on it and on copies with one entry of a phi row map, of xi or
    # of a left-factor cell changed, the verdict of the passes on the
    # descent is that of the flat scan, and every task's symbol is the first
    # input of its class at its level
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kr_automata, "_FACTORED_STATES", 1)
        mp.setattr(kr_automata, "_SYMBOL_PASS_CELLS", 1)
        omega = [
            [data.draw(st.integers(0, C.n_symbols - 1)) for _ in range(A.n_symbols)]
            for _ in range(A.n_states)
        ]
        covers = [krohn_rhodes_decompose(X).witness for X in (A, C)]
        w = substitute(cascade_product(A, C, omega), A, C, omega, *covers).witness
        c = w._phi
        assert isinstance(c, _lawcheck.Composed) and verify_covering(w)
        xi = list(w.xi)
        xi[data.draw(st.integers(0, len(xi) - 1))] = data.draw(
            st.integers(0, w.upper.n_symbols - 1))
        cases = [
            (w.upper, c, w.xi),
            (w.upper, _with_row_entry(c, [None] + list(range(w.lower.n_states)), data), w.xi),
            (w.upper, c, tuple(xi)),
            (_with_left_cell(w.upper, data), c, w.xi),
        ]
        for upper, phi, xi in cases:
            got = CoveringWitness._from_parts(upper, w.lower, phi, xi)
            pairs = kr_automata._law_pairs(got)
            descent, levels = _descent_levels(upper, phi, pairs)
            assert len(levels) >= 2
            for Y, tasks in levels:
                assert {x for x, _, _, _ in tasks} <= set(Y._firsts)
            holds = _lawcheck.passes(got.lower, descent)
            assert holds == (_lawcheck.first_failure(got) is None)


@st.composite
def _three_to_six_states(draw):
    n = draw(st.integers(3, 6))
    m = draw(st.integers(1, 3))
    delta = [[draw(st.integers(0, n - 1)) for _ in range(m)] for _ in range(n)]
    return Semiautomaton(["s%d" % i for i in range(n)], "abc"[:m], delta)


# The most cells (lower symbols times upper states) of a node witness that
# test_unpickled_upper_checks_as_the_flat_witness checks: the scan of larger
# ones, and their pickling, make a draw take seconds (a 6-state, 3-symbol
# root can have 442,368 states), and 4,096 still takes in composed phis at
# the default _FACTORED_STATES.
UNPICKLED_CELLS = 4096


@settings(deadline=None, max_examples=25)
@given(_three_to_six_states(), st.data())
def test_unpickled_upper_checks_as_the_flat_witness(A, data):
    # every node witness of a drawn tree, and where phi is composed a copy
    # with one entry of a row map changed, with the upper replaced by its
    # unpickled copy, which records no factors: the verdict, reason and
    # site of the flat witness over that copy. Each draw is decomposed at
    # the default _FACTORED_STATES and with every product recording its
    # factors, and each witness is checked at the default switch and with
    # the scan's switch above _FACTORED_STATES, where a composed phi is
    # scanned
    for factored in (kr_automata._FACTORED_STATES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kr_automata, "_FACTORED_STATES", factored)
            nodes = iter_nodes(krohn_rhodes_decompose(A))
        for w in [node.witness for node in nodes]:
            if len(w.xi) * w.upper.n_states > UNPICKLED_CELLS:
                continue
            upper = pickle.loads(pickle.dumps(w.upper))
            phis = [w._phi]
            if isinstance(w._phi, _lawcheck.Composed):
                phis.append(_with_row_entry(w._phi, [None] + list(range(w.lower.n_states)), data))
            for cells in (kr_automata._SYMBOL_PASS_CELLS, kr_automata._STATE_LIMIT):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(kr_automata, "_SYMBOL_PASS_CELLS", cells)
                    for phi in phis:
                        copy = CoveringWitness._from_parts(upper, w.lower, phi, w.xi)
                        got = verify_covering(copy)
                        flat = CoveringWitness._from_parts(upper, w.lower, copy.phi, w.xi)
                        want = verify_covering(flat)
                        assert (got.ok, got.reason, got.site) == (want.ok, want.reason, want.site)


@settings(deadline=None, max_examples=40)
@given(_three_to_six_states())
def test_plan_built_group_is_the_public_cover(A):
    # a refined factor's group, its cover and the split's Pi are built from
    # the closure its plan made (_group_cover); Pi is the group acting on
    # its elements by each permutation input, the public split's Pi, and
    # the group and cover are what cover_permutation_by_grouplike gives on
    # it, which is Pi's own transition group, each input sent to the
    # element that acts like it
    steps, last = _whole_chain(A)
    for B in [step.b for step in steps] + [last]:
        plan = _plan_factor(B, Caps())
        if plan.group is None:
            continue
        const, perms, elements, index, _ = plan.group
        G, w = _group_cover(B, *plan.group)
        pi = w.lower
        for a, c in enumerate(B._classes):
            moved = elements if const[c] is not None else [t.compose(perms[c]) for t in elements]
            assert pi.column(a).tolist() == [index[t.image] for t in moved]
        assert pi == split_permutation_reset(B).pi
        H, v = cover_permutation_by_grouplike(pi)
        assert (G.table, G.labels, G.identity) == (H.table, H.labels, H.identity)
        assert (w.upper, w.phi, w.xi) == (v.upper, v.phi, v.xi)
        assert v.lower is pi
        M = transition_monoid(pi)
        assert (G.table, G.labels, G.identity) == (M.table, M.labels, M.identity)
        element = {t.image: k for k, t in enumerate(M.transformations)}
        columns = map(pi.column, range(pi.n_symbols))
        assert w.xi == tuple(element[tuple(col.tolist())] for col in columns)
        assert w.phi == tuple(range(pi.n_states)) and verify_covering(w)


def _distinct_columns(X):
    """X's column classes, each as its first input's column, in order."""
    return [X.column(c).tolist() for c in X._firsts]


def _plan_view(plan):
    """What a _Plan says of any automaton with its automaton's column
    classes: its states, reason and group, each group key by its class's
    position."""
    if plan.group is None:
        return plan.states, plan.reason, None
    position = {c: p for p, c in enumerate(plan.automaton._firsts)}
    const, perms, elements, index, words = plan.group
    group = (
        [(position[c], to) for c, to in const.items()],
        [(position[c], t.image) for c, t in perms.items()],
        [t.image for t in elements],
        index,
        words,
    )
    return plan.states, plan.reason, group


@settings(deadline=None, max_examples=40)
@given(automata(max_states=7, max_symbols=3, min_states=3))
def test_chain_planned_on_column_classes_is_the_chain_planned_in_full(A):
    # the walk over column classes (_class_chain) gives every chain step's
    # source and factor B, and the last continuation, with the distinct
    # columns of the steps it expands to full alphabet, in the same order;
    # so _plan_chain plans the same tree on both, under the default caps
    # and under caps that most chains breach: the same base, predicted
    # sizes and factor plans, groups in the same closure order
    walk, class_last = _class_chain(A)
    steps, last = _chain_steps(A, walk)
    full = [(_distinct_columns(st.source), _distinct_columns(st.b)) for st in steps]
    assert [(_distinct_columns(X), _distinct_columns(B)) for X, B, *_ in walk] == full
    assert _distinct_columns(class_last) == _distinct_columns(last)
    for caps in (Caps(), Caps(group_order=2, product_states=1_000)):
        base, above = _plan_chain([(st.source, st.b) for st in steps], last, caps)
        class_base, class_above = _plan_chain(walk, class_last, caps)
        assert _plan_view(class_base) == _plan_view(base)
        assert _distinct_columns(class_base.automaton) == _distinct_columns(base.automaton)
        assert [(_plan_view(p), s) for p, s in class_above] == [
            (_plan_view(p), s) for p, s in above
        ]


def _proof_table(X):
    """The chain proof's choice table, [block][input] -> block, built input
    by input: block i is every state but i, a bijective column sends block
    i to block col[i], and any other column sends every block to the
    lowest state it misses, whose block holds the whole image."""
    n = X.n_states
    targets = []
    for a in range(X.n_symbols):
        col = X.column(a).tolist()
        missed = sorted(set(range(n)) - set(col))
        targets.append(col if not missed else [missed[0]] * n)
    return [list(row) for row in zip(*targets)]


def _proof_decomposition(X):
    """The chain proof's decomposition of X: block i is every state but i."""
    n = X.n_states
    return Decomposition(n, [[s for s in range(n) if s != i] for i in range(n)])


def _assert_same_automaton(got, want):
    assert (got.state_labels, got.symbol_labels) == (want.state_labels, want.symbol_labels)
    assert got.table == want.table
    assert (got._classes, got._firsts) == (want._classes, want._firsts)


def _assert_chain_factors_are_d_factors(A):
    # every walked step's B is d_factor on the proof's choice table, on the
    # labels of the auxiliary's B*
    for step in _whole_chain(A)[0]:
        X, B = step.source, step.b
        want, _ = d_factor(X, _proof_decomposition(X), _proof_table(X))
        assert B.table == want.table and B.symbol_labels == want.symbol_labels
        assert (B._classes, B._firsts) == (want._classes, want._firsts)


def _assert_walk_is_the_decomposition_cover(A):
    # every walked step is the public cover on the proof's decomposition
    # and choice table, through Yoeli's auxiliary automaton: the same B*
    # and C, omega and phi
    for step in _whole_chain(A)[0]:
        X = step.source
        want = cascade_cover_from_decomposition(X, _proof_decomposition(X), _proof_table(X))
        _assert_same_automaton(step.b, want.b_star)
        _assert_same_automaton(step.c, want.c)
        assert step.omega == want.omega
        assert step.phi == want.witness.phi


@st.composite
def _repeated_columns(draw):
    # 2 to 6 states and 1 to 3 inputs, each input one of a pool of drawn
    # columns, some of them permutations, so inputs share columns
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    column = st.one_of(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.permutations(range(n))
    )
    pool = draw(st.lists(column, min_size=1, max_size=m))
    columns = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(m)]
    return Semiautomaton.from_columns(["s%d" % i for i in range(n)], "abc"[:m], columns)


def _chain_sources():
    # automata whose chain has at least one step
    return _repeated_columns().filter(lambda X: not is_permutation_reset(X))


@settings(deadline=None, max_examples=150)
@given(_chain_sources())
def test_proof_factor_is_the_d_factor_of_the_proof_table(X):
    # the chain's D-factor, made once per column class (_proof_columns),
    # is d_factor on the proof's choice table made input by input
    _assert_chain_factors_are_d_factors(X)


@settings(deadline=None, max_examples=150)
@given(_chain_sources())
def test_walked_chain_is_the_decomposition_cover(X):
    # each step expanded from the column-class walk, with no A* table, is
    # what cascade_cover_from_decomposition builds through A*
    _assert_walk_is_the_decomposition_cover(X)


@settings(deadline=None, max_examples=150)
@given(_repeated_columns(), st.data())
def test_yoeli_b_star_is_the_quotient_by_d_star(X, data):
    # B* is built as the factor on D*'s block labels, never as the quotient
    # A*/D*; both are the same automaton, for the chain's factor, in the
    # auxiliary and as the walked step's B, and for d_factor's on a
    # decomposition made admissible by a block of every state
    D = _proof_decomposition(X)
    aux = yoeli_auxiliary(X, D, d_factor(X, D, _proof_table(X)))
    want = _quotient(aux.a_star, aux.d_star)
    _assert_same_automaton(aux.b_star, want)
    steps = _whole_chain(X)[0]
    if steps:
        _assert_same_automaton(steps[0].b, want)
    blocks = data.draw(st.lists(st.sets(st.integers(0, X.n_states - 1), min_size=1), max_size=4))
    D = Decomposition(X.n_states, blocks + [range(X.n_states)])
    aux = yoeli_auxiliary(X, D, d_factor(X, D))
    _assert_same_automaton(aux.b_star, _quotient(aux.a_star, aux.d_star))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_chain_step_takes_the_proof_tables_factor(n):
    chains = [random_n(n, seed) for seed in range(10)]
    assert sum(len(_class_chain(A)[0]) for A in chains) >= 10
    for A in chains:
        _assert_chain_factors_are_d_factors(A)
        _assert_walk_is_the_decomposition_cover(A)


@st.composite
def _decompositions(draw):
    # an automaton of 1 to 5 states and 1 to 3 symbols, and 1 to 4 drawn
    # blocks with a singleton for every state they leave out
    A = draw(automata(max_states=5))
    n = A.n_states
    blocks = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4))
    missed = set(range(n)).difference(*blocks)
    return A, Decomposition(n, blocks + [{s} for s in sorted(missed)])


@settings(deadline=None, max_examples=200)
@given(_decompositions())
def test_admissibility_matches_the_definition(case):
    # D is admissible when, for every input, each block's image lies in
    # some block: checked here input by input, on sets, against the
    # containment that is_admissible_decomposition and d_factor share
    A, D = case
    blocks = [set(b) for b in D.blocks]
    admissible = all(
        any({A.delta[s][a] for s in b} <= c for c in blocks)
        for a in range(A.n_symbols)
        for b in blocks
    )
    assert is_admissible_decomposition(A, D) == admissible
    if admissible:
        d_factor(A, D)
    else:
        with pytest.raises(InvalidInputError, match="^decomposition is not admissible$"):
            d_factor(A, D)
