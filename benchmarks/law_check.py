"""Cells compared and CPU time of the covering-law check, flat and factored,
the CPU time of the scan it replaces, and CPU time of the whole
verify_covering on each side.

    python benchmarks/law_check.py [--out BENCH_law_check.json]

Run from the root of a source checkout; the library is imported from its
src/ directory. The corpus is the ROADMAP "random n" automata for n = 5
(seeds 0-9) and n = 6 (seeds 0, 4 and 6, the random6 workload of krbench).
For every node witness of each decomposition tree, the law check's passes
(krcascade._lawcheck.passes on the descent of _lawcheck.descend, over the
law pairs of automata._law_pairs) run twice: on the witness as built,
where an upper automaton of _FACTORED_STATES states or more records its
factors and the passes go through them on the composition of phi that the
witness keeps, as verify_covering runs them, and on a copy of the upper
made by Semiautomaton._from_keys from its distinct columns, which records
none, with phi expanded, so that the passes are the flat ones over whole
columns. A node witness over a recorded upper that keeps no composition of
phi ends the run with a message, since its passes would be the flat ones
too. Each run is timed with its descent, and the cells it compares are
counted off the descent: one per entry of a task's source block that is
not None. The passes run on
every node witness, also on those with too few cells (lower symbols times
upper states, automata._SYMBOL_PASS_CELLS) for the library to use them;
each entry records the path verify_covering takes, "scan" below that
switch and "passes" from it on, and the least CPU time of the scan
(_lawcheck.first_failure, one cell per domain state and lower symbol) and
of computing the law pairs, so that the two costs the switch weighs sit
side by side.
verify_covering, which also checks that phi is onto, is timed three ways.
A witness keeps its law pairs and its descent after its first check, and
makes them again only when xi, the upper, the lower or phi is replaced, so
a check that follows runs the passes alone. first_verify_s times the first
check, on a witness made afresh from the parts of the one built
(_first_check); repeat_verify_s times the checks that follow on the witness
as built, which its construction has checked already; flat_verify_s times
the checks that follow on a witness over the unrecorded copy. Each entry
records the upper's states, the domain size, the number of law pairs, and
per side the cells compared and the least CPU time of REPEATS runs of the
passes and of verify_covering (witness_entry). The entries and their totals
per n are written as JSON.
"""

import argparse
import json
import os
import platform
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from krcascade import (  # noqa: E402
    CoveringWitness,
    Semiautomaton,
    iter_nodes,
    krohn_rhodes_decompose,
    verify_covering,
)
from krcascade import _lawcheck, automata  # noqa: E402

CORPUS = [(5, seed) for seed in range(10)] + [(6, seed) for seed in (0, 4, 6)]
REPEATS = 5
KEYS = ("flat_cells", "factored_cells", "flat_s", "factored_s", "scan_s", "pairs_s",
        "flat_verify_s", "first_verify_s", "repeat_verify_s")


def random_n(n, seed):
    """The ROADMAP "random n" recipe: 2 symbols, targets drawn state-major."""
    rng = random.Random(1000 * n + seed)
    delta = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
    return Semiautomaton(["s%d" % i for i in range(n)], "ab", delta)


def unrecorded(X):
    """X's table in an automaton that records no factors, built from X's
    distinct columns. A product's labels stay unrendered, as in X."""
    if X._factors is None:
        return X
    A, B, _ = X._factors
    n, table = X.n_states, X._table
    columns = {c: table[c * n:(c + 1) * n] for c in X._firsts}
    return Semiautomaton._from_keys(automata._PairLabels(A, B), X.symbol_labels, columns, X._classes)


def cells_compared(descent):
    """The cells the passes compare on a descent that holds: one per entry
    of a task's source block that is not None."""
    _, tasks, blocks = descent
    return sum(len(blocks[src]) - blocks[src].count(None) for _, src, _, _ in tasks)


def least_time(run, failure):
    """The least CPU seconds of REPEATS calls of run, each of which must
    return a true value; failure is the message to exit with if not."""
    best = None
    for _ in range(REPEATS):
        start = time.process_time()
        ok = run()
        took = time.process_time() - start
        if not ok:
            raise SystemExit(failure)
        best = took if best is None else min(best, took)
    return best


def passes(w, upper, phi, pairs):
    """(cells compared, least CPU seconds) of the law check's passes on w,
    with its upper automaton replaced by upper and its phi by phi; each run
    is timed with its descent."""
    took = least_time(lambda: _lawcheck.passes(w.lower, _lawcheck.descend(upper, phi, pairs)),
                      "a node witness fails the law check")
    return cells_compared(_lawcheck.descend(upper, phi, pairs)), took


def verify(w):
    """The least CPU seconds of verify_covering on w."""
    return least_time(lambda: verify_covering(w), "a node witness fails verify_covering")


def _first_check(w):
    """The least CPU seconds of verify_covering on witnesses made from w's
    parts, one per run and made before it, so that each run is a first
    check: the witness keeps nothing of an earlier one. A composed phi is
    the same _lawcheck.Composed each time, which keeps the values of its
    inner phi once computed."""
    fresh = [CoveringWitness._from_parts(w.upper, w.lower, w._phi, w.xi) for _ in range(REPEATS)]
    return least_time(lambda: verify_covering(fresh.pop()), "a node witness fails verify_covering")


def witness_entry(w):
    """The entry of the node witness w, without its automaton and node."""
    pairs = automata._law_pairs(w)
    passes_path = len(w.xi) * w.upper.n_states >= automata._SYMBOL_PASS_CELLS
    flat = unrecorded(w.upper)
    flat_cells, flat_s = passes(w, flat, w.phi, pairs)
    phi = w._phi
    if w.upper._factors is not None and not isinstance(phi, _lawcheck.Composed):
        raise SystemExit("a node witness over a recorded product keeps no composition of phi")
    cells, took = passes(w, w.upper, phi, pairs)
    flat_verify_s = verify(CoveringWitness._from_parts(flat, w.lower, w.phi, w.xi))
    return {
        "states": w.upper.n_states,
        "domain": len(w.phi) - w.phi.count(None),
        "law_pairs": len(pairs),
        "recorded": w.upper._factors is not None,
        "path": "passes" if passes_path else "scan",
        "flat_cells": flat_cells,
        "factored_cells": cells,
        "flat_s": flat_s,
        "factored_s": took,
        "scan_s": least_time(lambda: _lawcheck.first_failure(w) is None,
                             "a node witness fails the scan"),
        "pairs_s": least_time(lambda: automata._law_pairs(w), "a node witness has no law pairs"),
        "flat_verify_s": flat_verify_s,
        "first_verify_s": _first_check(w),
        "repeat_verify_s": verify(w),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_law_check.json"))
    args = parser.parse_args()
    entries = []
    for n, seed in CORPUS:
        tree = krohn_rhodes_decompose(random_n(n, seed))
        for k, node in enumerate(iter_nodes(tree)):
            entry = {"automaton": "random%d-%d" % (n, seed), "node": k}
            entry.update(witness_entry(node.witness))
            entries.append(entry)
    totals = {}
    for n in sorted({n for n, _ in CORPUS}):
        group = [e for e in entries if e["automaton"].startswith("random%d-" % n)]
        t = totals["random%d" % n] = {"witnesses": len(group)}
        t["passes_path"] = sum(e["path"] == "passes" for e in group)
        t.update((key, sum(e[key] for e in group)) for key in KEYS)
        print("random%d  %3d witnesses (%d on the passes)  cells %9d flat %7d factored  "
              "passes %.4f s flat %.4f s factored  scan %.4f s  pairs %.4f s  "
              "verify_covering %.4f s flat %.4f s first %.4f s repeat"
              % (n, t["witnesses"], t["passes_path"], t["flat_cells"], t["factored_cells"],
                 t["flat_s"], t["factored_s"], t["scan_s"], t["pairs_s"],
                 t["flat_verify_s"], t["first_verify_s"], t["repeat_verify_s"]))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"python": sys.version.split()[0], "machine": platform.machine(),
                   "factored_states": automata._FACTORED_STATES,
                   "symbol_pass_cells": automata._SYMBOL_PASS_CELLS, "repeats": REPEATS,
                   "witnesses": entries, "totals": totals}, fh, indent=2)
        fh.write("\n")
    print("written to %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
