"""The library surface that the krbench benchmark and the scripts under
benchmarks/ reach into.

krbench/spans.py rebinds functions by (module, name), and krbench/run.py
calls verify_tree and tree_report with sim_len, so a rename or a dropped
parameter would break the benchmark without failing any other test.
benchmarks/law_check.py and benchmarks/tree_memory.py call internals of the
law check and of the automata, so their per-witness and per-tree functions
run here on a small tree. krbench/refcheck.py judges trees with no library
verifier, so it also checks the trees of random automata here.
"""

import importlib
import importlib.util
import json
import os
import random
import re
import time
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krcascade import (
    LEAF_RAW,
    CoveringWitness,
    Semiautomaton,
    iter_nodes,
    krohn_rhodes_decompose,
    leaves,
    parse_automaton,
    tree_report,
    verify_covering,
    verify_tree,
)
from krcascade import _lawcheck, automata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("krbench_spans", "krbench", "spans.py")


def test_traced_names_resolve():
    spans = _spans()
    missing = []
    for mod_name, attr, _ in spans.TRACED + spans.TRACED_CLASSES:
        module = importlib.import_module("krcascade." + mod_name)
        if not callable(getattr(module, attr, None)):
            missing.append("%s.%s" % (mod_name, attr))
    assert missing == []


def test_benchmark_calls_take_sim_len(five_state):
    # the calls krbench/run.py makes on every tree
    tree = krohn_rhodes_decompose(five_state)
    ok, results = verify_tree(tree, sim_len=5)
    assert ok and results
    report = tree_report(tree, sim_len=5)
    assert report["complete"] and report["witnesses_verified"]
    assert report["simulation_length"] == 5


def test_law_check_script_runs_per_witness(monkeypatch, five_pr):
    # five_pr is the README example
    law_check = _load("law_check", "benchmarks", "law_check.py")
    monkeypatch.setattr(law_check, "REPEATS", 1)
    tree = krohn_rhodes_decompose(five_pr)
    entries = [law_check.witness_entry(node.witness) for node in iter_nodes(tree)]
    assert len(entries) == 7 and set(entries[0]) == set(law_check.KEYS) | {
        "states", "domain", "law_pairs", "recorded", "path"}
    for e, node in zip(entries, iter_nodes(tree)):
        # no upper this small records its factors: both sides are flat
        assert not e["recorded"] and e["flat_cells"] == e["factored_cells"] > 0
        cells = node.witness.upper.n_states * len(node.witness.xi)
        assert e["path"] == ("scan" if cells < automata._SYMBOL_PASS_CELLS else "passes")
    # random-5 seed 3's root of 512 states records its factors, so the flat
    # side of its entry runs on the copy that unrecorded builds, which
    # records none and keeps the root's labels unrendered
    w = krohn_rhodes_decompose(law_check.random_n(5, 3)).witness
    flat = law_check.unrecorded(w.upper)
    assert flat._factors is None and flat._state_labels is None and flat == w.upper
    e = law_check.witness_entry(w)
    assert (e["states"], e["recorded"], e["path"]) == (512, True, "passes")
    assert e["flat_cells"] == e["factored_cells"] == 480


def test_law_check_record_counts_what_the_check_compares():
    # the factored_cells totals that BENCH_law_check.json records for
    # random5 and random6 are the cells the law check compares on that
    # corpus now, counted as the script counts them; only cells are
    # counted, nothing is timed, so a change to the descent that leaves the
    # file as it was fails here
    law_check = _load("law_check", "benchmarks", "law_check.py")
    with open(os.path.join(ROOT, "BENCH_law_check.json"), encoding="utf-8") as fh:
        totals = json.load(fh)["totals"]
    counted = Counter()
    for n, seed in law_check.CORPUS:
        for node in iter_nodes(krohn_rhodes_decompose(law_check.random_n(n, seed))):
            w = node.witness
            descent = _lawcheck.descend(w.upper, w._phi, automata._law_pairs(w))
            counted["random%d" % n] += law_check.cells_compared(descent)
    recorded = {name: t["factored_cells"] for name, t in totals.items()}
    assert recorded == dict(counted) and set(recorded) == {"random5", "random6"}


def test_tree_memory_script_runs_per_tree(monkeypatch, five_pr):
    tree_memory = _load("tree_memory", "benchmarks", "tree_memory.py")
    held, peak, cells, objects, table_bytes = tree_memory.measure(five_pr)
    assert 0 < held <= peak
    assert cells == sum(n.automaton.n_states * n.automaton.n_symbols
                        for n in iter_nodes(krohn_rhodes_decompose(five_pr)))
    assert objects > 0 and table_bytes > 0
    # on the random-6 seed-0 tree, neither the decomposition nor the count
    # of what the tree holds builds the table of a node that records its
    # factors; the count takes in those tables once they are read
    trees = []
    monkeypatch.setattr(tree_memory, "krohn_rhodes_decompose",
                        lambda A: trees.append(krohn_rhodes_decompose(A)) or trees[-1])
    table_bytes = tree_memory.measure(tree_memory.random_n(6, 0))[-1]
    recorded = [n.automaton for n in iter_nodes(trees[0]) if n.automaton._factors is not None]
    assert [X.n_states for X in recorded] == [368_640, 46_080, 9_216]
    assert not any("_table" in vars(X) for X in recorded)
    built = sum(len(X._table) * X._table.itemsize for X in recorded)
    assert tree_memory.held_objects(trees[0])[1] == table_bytes + built


@st.composite
def _columns(draw):
    """The columns of an automaton of 1 to 5 states and 0 to 3 symbols,
    each a permutation, a constant, a copy of an earlier column or an
    arbitrary map."""
    n = draw(st.integers(1, 5))
    columns = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["permutation", "constant", "duplicate", "any"]))
        if kind == "duplicate" and columns:
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "permutation":
            columns.append(draw(st.permutations(range(n))))
        elif kind == "constant":
            columns.append([draw(st.integers(0, n - 1))] * n)
        else:
            columns.append([draw(st.integers(0, n - 1)) for _ in range(n)])
    return n, columns


@settings(deadline=None, max_examples=25)
@given(_columns())
def test_reference_checker_accepts_every_drawn_tree(drawn):
    # every tree of a drawn automaton passes krbench's independent checker,
    # which replays random words through the root, or, with no symbol to
    # draw a word from, the library's own verify_tree; every raw leaf names
    # the cap it breached. Each draw runs at the default threshold and with
    # every product recording its factors, so that the checker also reads
    # the phi of every cascade node expanded from its composition.
    corpus = _load("krbench_corpus", "krbench", "corpus.py")
    refcheck = _load("krbench_refcheck", "krbench", "refcheck.py")
    n, columns = drawn
    delta = [[col[s] for col in columns] for s in range(n)]
    source = corpus.Automaton("drawn", ["s%d" % i for i in range(n)],
                              corpus.SYMBOLS[:len(columns)], delta)
    for factored in (automata._FACTORED_STATES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "_FACTORED_STATES", factored)
            tree = krohn_rhodes_decompose(parse_automaton(source.to_json()))
        if columns:
            refcheck.check_tree(tree, source, random.Random(0))
        else:
            assert verify_tree(tree)[0]
        for leaf in leaves(tree):
            if leaf.kind == LEAF_RAW:
                assert re.search(r"the cap of \d+", leaf.reason), leaf.reason


def _changed_row(c, values, rng):
    """The composition c with one entry of one of its row maps drawn from
    values."""
    rows = dict(enumerate(c.rows)) if isinstance(c.rows, list) else dict(c.rows)
    key = rng.choice(sorted(k for k in set(c.keys) if k is not None))
    row = list(rows[key])
    row[rng.randrange(len(row))] = rng.choice(values)
    rows[key] = tuple(row)
    return _lawcheck.Composed(c.keys, rows, c.inner)


def _mutants(w, rng):
    """Copies of the verified witness w: one phi entry, one xi entry or one
    cell of the lower table changed; where phi is composed, one entry of
    one row map or of the inner phi changed; and copies made after w was
    checked once, so that they keep its descent, with xi, the lower or phi
    replaced: a composed phi by the one with a row map entry changed, a
    flat one by the one with one entry changed."""
    n, m = w.lower.n_states, w.upper.n_symbols
    phi, xi = list(w.phi), list(w.xi)
    phi[rng.randrange(len(phi))] = rng.choice([None] + list(range(n)))
    xi[rng.randrange(len(xi))] = rng.randrange(m)
    xi = tuple(xi)
    table = array("i", w.lower._table)
    table[rng.randrange(len(table))] = rng.randrange(n)
    columns = [table[k:k + n] for k in range(0, len(table), n)]
    lower = Semiautomaton.from_columns(w.lower.state_labels, w.lower.symbol_labels, columns)
    out = [
        CoveringWitness._from_parts(w.upper, w.lower, tuple(phi), w.xi),
        CoveringWitness._from_parts(w.upper, w.lower, w.phi, xi),
        CoveringWitness._from_parts(w.upper, lower, w.phi, w.xi),
    ]
    replaced = [("xi", xi), ("lower", lower), ("phi", tuple(phi))]
    c = w._phi
    if isinstance(c, _lawcheck.Composed):
        inner = c.inner
        width = len(next(iter(c.rows.values() if isinstance(c.rows, dict) else c.rows)))
        values = [None] + list(range(width))
        if isinstance(inner, _lawcheck.Composed):
            inner = _changed_row(inner, values, rng)
        else:
            inner = list(inner)
            inner[rng.randrange(len(inner))] = rng.choice(values)
            inner = tuple(inner)
        changed = [_changed_row(c, [None] + list(range(n)), rng),
                   _lawcheck.Composed(c.keys, c.rows, inner)]
        for composed in changed:
            out.append(CoveringWitness._from_parts(w.upper, w.lower, composed, w.xi))
        replaced[-1] = ("_phi", changed[0])
    assert verify_covering(w)
    for name, value in replaced:
        kept = object.__new__(type(w))
        vars(kept).update(vars(w))
        setattr(kept, name, value)
        out.append(kept)
    return out


# CPU seconds that test_mutant_verdicts_match_the_reference_checker may
# spend over all its examples; the examples after that pass at once. Nodes
# of more than MUTANT_STATES states are left out, since the reference
# checker reads tables row by row: a 5-state, 3-symbol draw whose root has
# 442,368 states took 4.1 s with every node and 0.11 s without those. 4,096
# still takes in nodes on both sides of _FACTORED_STATES.
MUTANT_BUDGET_S = 2.0
MUTANT_STATES = 4096


@pytest.fixture(scope="module")
def mutant_start():
    """The CPU time at which the first mutant example starts."""
    return time.process_time()


@settings(deadline=None, max_examples=150)
@given(_columns(), st.integers(0, 2 ** 32 - 1))
def test_mutant_verdicts_match_the_reference_checker(mutant_start, drawn, seed):
    # on mutants of every node witness of drawn trees, verify_covering
    # agrees with krbench's independent checker, and every site it names
    # breaks the law when replayed there. Each draw runs at the default size
    # switches, where small witnesses take the scan and wide ones the passes,
    # and with every product recording its factors and every witness checked
    # by the passes, where node witnesses keep phi composed and a changed
    # phi is flat over a recorded upper; the copies made after a check meet
    # the kept descent. The mutants are drawn from a seeded generator, so
    # that an example that returns at once once the budget is spent draws
    # what it would have drawn.
    n, columns = drawn
    if not columns or time.process_time() - mutant_start > MUTANT_BUDGET_S:
        return
    refcheck = _load("krbench_refcheck", "krbench", "refcheck.py")
    rng = random.Random(seed)
    A = Semiautomaton.from_columns(["s%d" % i for i in range(n)], "abc"[:len(columns)], columns)
    switches = [(automata._FACTORED_STATES, automata._SYMBOL_PASS_CELLS), (1, 1)]
    for factored, cells in switches:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(automata, "_FACTORED_STATES", factored)
            mp.setattr(automata, "_SYMBOL_PASS_CELLS", cells)
            nodes = iter_nodes(krohn_rhodes_decompose(A))
            for node in [x for x in nodes if x.automaton.n_states <= MUTANT_STATES]:
                for w in _mutants(node.witness, rng):
                    result = verify_covering(w)
                    upper, lower, phi, xi = w.upper.delta, w.lower.delta, w.phi, w.xi
                    verdict = refcheck.witness_verdict(upper, lower, phi, xi)
                    assert bool(result) == verdict.is_covering, (result, verdict.reason)
                    if result.site is not None:
                        s, a = result.site
                        assert refcheck.replay_violates(upper, lower, phi, xi, s, [a])
