"""The library surface that the krbench benchmark reaches into.

krbench/spans.py rebinds functions by (module, name), and krbench/run.py
calls verify_tree and tree_report with sim_len, so a rename or a dropped
parameter would break the benchmark without failing any other test.
"""

import importlib
import importlib.util
import os

from krcascade import krohn_rhodes_decompose, tree_report, verify_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    path = os.path.join(ROOT, "krbench", "spans.py")
    spec = importlib.util.spec_from_file_location("krbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
