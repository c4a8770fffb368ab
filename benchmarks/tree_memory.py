"""Memory a decomposition tree holds, and the peak while it is built.

    python benchmarks/tree_memory.py [--out BENCH_tree_memory.json]

Run from the root of a source checkout; the library is imported from its
src/ directory and only its public API is used. The corpus is the ROADMAP
"random n" automata for n = 5 (seeds 0-9) and n = 6 (seeds 0, 4 and 6, the
random6 workload of krbench). For each automaton, tracemalloc measures the
bytes that the tree returned by krohn_rhodes_decompose still holds once the
call is over, and the peak of traced memory above the starting point during
the call. Both are Python allocations only: they leave out the interpreter
and the allocator's own overhead, which peak RSS includes. One unrecorded
warm-up decomposition of the first automaton runs before the corpus, so that
the first entry is not charged with the process's one-time allocations.

The bytes a tree holds move with CPython's sizing of instance attribute
arrays, which depends on what else the process has made, so they can change
when the tree's objects do not. Each entry therefore also counts the
objects the tree holds, by a walk of gc.get_referents from the tree that
does not enter classes, modules or functions, and the bytes of the
transition tables among them. A table counts only once it is built: a
product that records its factors builds its table on the first read, and
the walk reads none. The results, one entry per automaton and the totals,
are written as JSON.
"""

import argparse
import gc
import json
import os
import sys
import tracemalloc
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from corpus_recipe import CORPUS, random_n  # noqa: E402
from krcascade import iter_nodes, krohn_rhodes_decompose  # noqa: E402

# what a walk of the objects a tree holds does not enter: shared code
_SHARED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def held_objects(tree):
    """(objects, table bytes) that the tree holds: the distinct objects
    reachable from it, and the bytes of the built tables among them. A
    built table is the array under an automaton's read-only table view, so
    the tables are the arrays that the memoryviews among the objects view;
    no automaton's table is read, so none gets built."""
    seen = {id(tree): tree}
    stack = [tree]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, _SHARED):
                seen[id(ref)] = ref
                stack.append(ref)
    tables = {id(v.obj): v.obj for v in seen.values() if isinstance(v, memoryview)}
    return len(seen), sum(len(t) * t.itemsize for t in tables.values())


def measure(A):
    """(bytes the tree holds, peak bytes during the decomposition, cells of
    the tree's node automata, objects the tree holds, its table bytes)."""
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tree = krohn_rhodes_decompose(A)
    gc.collect()
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    cells = sum(n.automaton.n_states * n.automaton.n_symbols for n in iter_nodes(tree))
    return (held - base, peak - base, cells) + held_objects(tree)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_tree_memory.json"))
    args = parser.parse_args()
    measure(random_n(*CORPUS[0]))
    entries = []
    for n, seed in CORPUS:
        held, peak, cells, objects, table_bytes = measure(random_n(n, seed))
        entries.append({
            "automaton": "random%d-%d" % (n, seed),
            "tree_bytes": held,
            "decompose_peak_bytes": peak,
            "node_cells": cells,
            "tree_objects": objects,
            "table_bytes": table_bytes,
        })
        print("random%d-%d  tree %8.1f MB  peak %8.1f MB  %9d cells  %7d objects"
              % (n, seed, held / 1e6, peak / 1e6, cells, objects))
    totals = {
        key: sum(e[key] for e in entries)
        for key in ("tree_bytes", "decompose_peak_bytes", "node_cells", "tree_objects",
                    "table_bytes")
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"python": sys.version.split()[0], "automata": entries,
                   "totals": totals}, fh, indent=2)
        fh.write("\n")
    print("total  tree %.1f MB  peak %.1f MB  (written to %s)"
          % (totals["tree_bytes"] / 1e6, totals["decompose_peak_bytes"] / 1e6, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
