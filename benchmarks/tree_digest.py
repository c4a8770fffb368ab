"""Digest of every decomposition tree, witness and report on a fixed corpus.

    python benchmarks/tree_digest.py [--each]

Run from the root of a source checkout; the library is imported from its
src/ directory. The corpus is the criterion-7 sweep (seeds 0-99), the
ROADMAP "random n" automata for n = 4 to 9 (seeds 0-9 each) and the
README example, 161 automata. For each one the digest covers, node by node,
the node type, leaf kind and raw-leaf reason, the automaton's state labels,
symbol labels and table, the witness's phi, xi and both automata's labels
and the covered table, and the connection omega; then the tree_report JSON
and the render_tree_text output. Two checkouts produce the same trees,
labels and reports exactly when they print the same last line. --each also
prints one line per automaton.
"""

import argparse
import hashlib
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from krcascade import (  # noqa: E402
    Semiautomaton,
    iter_nodes,
    krohn_rhodes_decompose,
    render_tree_text,
    tree_report,
)
from corpus_recipe import random_n  # noqa: E402


def sweep3(seed):
    """Same recipe as tests/conftest.py::make_random_automaton(rng, 3, 2)."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 2)
    delta = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    return Semiautomaton(["s%d" % i for i in range(n)], "abcdefgh"[:m], delta)


def corpus():
    for seed in range(100):
        yield "sweep3-%d" % seed, sweep3(seed)
    for n in (4, 5, 6, 7, 8, 9):
        for seed in range(10):
            yield "random%d-%d" % (n, seed), random_n(n, seed)
    yield "readme", Semiautomaton(
        ["1", "2", "3", "4", "5"], "ab", [[1, 0], [2, 0], [3, 0], [4, 0], [0, 0]]
    )


def tree_digest(tree):
    h = hashlib.sha256()
    for node in iter_nodes(tree):
        A, w = node.automaton, node.witness
        h.update(repr((
            type(node).__name__,
            getattr(node, "kind", None),
            getattr(node, "reason", None),
            A.state_labels,
            A.symbol_labels,
            A.delta,
            w.phi,
            w.xi,
            w.upper is A,
            w.lower.state_labels,
            w.lower.symbol_labels,
            w.lower.delta,
            getattr(node, "omega", None),
        )).encode())
    report = tree_report(tree)
    h.update(json.dumps(report, sort_keys=True).encode())
    h.update(render_tree_text(report).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--each", action="store_true", help="print one digest per automaton")
    args = parser.parse_args()
    total = hashlib.sha256()
    count = 0
    for name, A in corpus():
        digest = tree_digest(krohn_rhodes_decompose(A))
        total.update(("%s %s\n" % (name, digest)).encode())
        count += 1
        if args.each:
            print(name, digest)
    print("%d automata %s" % (count, total.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
