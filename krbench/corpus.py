"""Seeded input corpora and the benchmark's own automaton JSON writer.

Each corpus entry is a plain description (name, state labels, symbol labels,
delta[state][symbol]) that never passes through krcascade, so the expected
input table for the reference checker comes from here, not from the library.
"""

import json
import random

SYMBOLS = "abcdefgh"


class Automaton:
    """A plain transition table, independent of krcascade's classes."""

    def __init__(self, name, states, symbols, delta):
        self.name = name
        self.states = list(states)
        self.symbols = list(symbols)
        self.delta = [list(row) for row in delta]

    def to_json(self):
        """The automaton document: one row of target labels per symbol."""
        doc = {
            "format_version": 1,
            "states": self.states,
            "alphabet": self.symbols,
            "transitions": {
                sym: [self.states[row[j]] for row in self.delta]
                for j, sym in enumerate(self.symbols)
            },
        }
        return json.dumps(doc, indent=2) + "\n"


def sweep3_automaton(seed):
    """Same recipe as tests/conftest.py::make_random_automaton(rng, 3, 2)."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(1, 2)
    delta = [[rng.randrange(n) for _ in range(m)] for _ in range(n)]
    return Automaton(
        "sweep3-%d" % seed, ["s%d" % i for i in range(n)], SYMBOLS[:m], delta
    )


def random_n_automaton(n, seed):
    """The ROADMAP "random n" recipe: 2 symbols, targets drawn state-major."""
    rng = random.Random(1000 * n + seed)
    delta = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
    return Automaton(
        "random%d-%d" % (n, seed), ["s%d" % i for i in range(n)], "ab", delta
    )


def readme_example():
    """The five-state example document of README.md: a cycles, b resets to 1."""
    return Automaton(
        "readme-5",
        ["1", "2", "3", "4", "5"],
        "ab",
        [[1, 0], [2, 0], [3, 0], [4, 0], [0, 0]],
    )


# Known answer for readme_example(), taken from the README text rather than
# from a saved run: a 40-state cascade whose leaves are one simple grouplike
# component of order 5 and three two-state resets.
README_ROOT_STATES = 40
README_LEAVES = {"simple-grouplike": [5], "two-state-reset": [2, 2, 2]}
README_HEADLINE = (
    "decomposition of a 5-state automaton into a 40-state cascade: "
    "complete, witnesses verified\n"
    "simulation to length 6: ok\n"
)

# random6 seeds kept in a round, one per behaviour of the cap path: seed 0
# keeps a 368,640-state root, seed 4 (|T(A)| = 11) builds for seconds and then
# falls back to a raw leaf, and seed 6 stops at a 120-state cascade.
RANDOM6_SEEDS = (0, 4, 6)


def workload_corpus(workload):
    """The automata of one round of a workload, in the order they run.

    The corpora are fixed by the workload's definition; the benchmark's
    --seed drives the replay words and witness corruptions instead, so that
    every seed does the same decomposition work.
    """
    if workload == "sweep3-replay":
        return [sweep3_automaton(s) for s in range(100)]
    if workload == "random5":
        return [random_n_automaton(5, s) for s in range(10)] + [readme_example()]
    if workload == "random6":
        return [random_n_automaton(6, s) for s in RANDOM6_SEEDS]
    raise ValueError("unknown workload %r" % workload)
