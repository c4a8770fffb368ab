"""The random automata that the scripts under benchmarks/ decompose.

Each script puts the library's src/ directory and this directory on
sys.path before it imports this module.
"""

import random

from krcascade import Semiautomaton

# random-5 seeds 0-9 and random-6 seeds 0, 4 and 6, the random6 workload of
# krbench: the corpus of tree_memory.py and law_check.py
CORPUS = [(5, seed) for seed in range(10)] + [(6, seed) for seed in (0, 4, 6)]


def random_n(n, seed):
    """The ROADMAP "random n" recipe: 2 symbols, targets drawn state-major."""
    rng = random.Random(1000 * n + seed)
    delta = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
    return Semiautomaton(["s%d" % i for i in range(n)], "ab", delta)
