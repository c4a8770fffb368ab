"""Trees, witnesses, labels and reports stay byte-identical on a fixed corpus.

The expected digests in tree_digests.txt were computed by
benchmarks/tree_digest.py; a change that alters any node, label or report of
these automata changes its digest. Every one of the 161 lines is computed:
random7's chains reach 5,040 symbols, random8's 40,320 and random9's
362,880, the widths where a wrong column class would show, and a chain is
planned on its column classes before any step of it is built, so even
random9 costs a few hundredths of a second per automaton.
"""

import importlib.util
import os

from krcascade import krohn_rhodes_decompose

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(os.path.dirname(HERE), "benchmarks", "tree_digest.py")


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
    got = {name: td.tree_digest(krohn_rhodes_decompose(A)) for name, A in td.corpus()}
    assert len(got) == 161
    assert len(expected) == 161
    assert [name for name in got if got[name] != expected.get(name)] == []
