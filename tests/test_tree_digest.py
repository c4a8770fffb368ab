"""Trees, witnesses, labels and reports stay byte-identical on a fixed corpus.

The expected digests in tree_digests.txt were computed by
benchmarks/tree_digest.py; a change that alters any node, label or report of
these automata changes its digest. The file holds all 161 lines, but of
random6 only seeds 0, 4 and 6 are computed here, the ones krbench's random6
workload runs (one per way the cap path ends), of random8 only seeds 0, 5
and 9 (roots of 56, 2,560 and 384 states), and of random9 only seed 5 (the
one whose chain-cap reason names 2,580,480 states, the others 1,935,360),
to keep the test fast. Every random7 seed is computed: their chains reach
5,040 symbols, random8's 40,320 and random9's 362,880, the widths where a
wrong column class would show.
"""

import importlib.util
import os

from krcascade import krohn_rhodes_decompose

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "benchmarks", "tree_digest.py")
KEPT = {
    "random6-0", "random6-4", "random6-6", "random8-0", "random8-5", "random8-9", "random9-5",
}


def _load_script():
    spec = importlib.util.spec_from_file_location("tree_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected():
    with open(os.path.join(HERE, "tree_digests.txt"), encoding="utf-8") as fh:
        lines = [line.split() for line in fh if not line.startswith("#")]
    return dict(lines)


def test_tree_digests_unchanged():
    td = _load_script()
    expected = _expected()
    got = {
        name: td.tree_digest(krohn_rhodes_decompose(A))
        for name, A in td.corpus()
        if not name.startswith(("random6-", "random8-", "random9-")) or name in KEPT
    }
    assert len(got) == 138
    assert len(expected) == 161
    assert [name for name in got if got[name] != expected.get(name)] == []
