"""Span tracing around krcascade's public functions, installed from outside.

install() rebinds each traced function in every loaded krcascade module that
holds it (aliases included), and wraps the constructors of the two table
classes in place, so no source file of the package changes. Spans are kept in
memory as (name, start, end, parent, operation), with start and end in CPU
seconds of the process, and turned into self times and counts at the end.
Calls made while the tracer is not active (the benchmark's own untimed
checks) are passed straight through.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _cells_of_result(result, args):
    return result.n_states * result.n_symbols


def _cells_checked(result, args):
    w = args[0]
    return len(w.dom) * w.lower.n_symbols


def _chain_symbols(result, args):
    return max(f.n_symbols for f in result.factors)


# (module, public name, counters). A counter ("sum" or "max", unit, fn) reads
# the call's result and arguments and feeds "<module>.<name>.<unit>".
TRACED = (
    ("automata", "simulation_counterexample", ()),
    ("automata", "verify_covering", (("sum", "cells", _cells_checked),)),
    ("automata", "cascade_product", (("sum", "cells", _cells_of_result),)),
    ("automata", "direct_product", ()),
    ("automata", "substitute_left", ()),
    ("automata", "substitute_right", ()),
    ("automata", "compose_coverings", ()),
    ("partitions", "cascade_cover_from_decomposition", ()),
    ("partitions", "yoeli_auxiliary", (("sum", "states", lambda r, a: r.a_star.n_states),)),
    ("partitions", "cascade_cover_from_partition", ()),
    ("pipeline", "krohn_rhodes_decompose", ()),
    (
        "pipeline",
        "pr_chain",
        (("sum", "steps", lambda r, a: len(r.steps)), ("max", "max_symbols", _chain_symbols)),
    ),
    ("pipeline", "split_permutation_reset", ()),
    ("pipeline", "cover_permutation_by_grouplike", ()),
    ("pipeline", "grouplike_to_simple_cascade", ()),
    ("pipeline", "reset_to_two_state", ()),
    ("pipeline", "verify_tree", ()),
    ("groups", "composition_series", ()),
    ("groups", "is_simple", ()),
    ("groups", "enumerate_subgroups", ()),
    ("groups", "factor_group", ()),
    ("groups", "coset_partition", ()),
    ("algebra", "closure_generate", (("sum", "elements", lambda r, a: r.order),)),
    ("io", "parse_automaton", ()),
    ("io", "tree_report", ()),
    ("io", "render_tree_text", ()),
)

# Classes whose constructor is traced, as the span "<module>.<class>"; the
# counter reads the constructed object.
TRACED_CLASSES = (
    ("automata", "Semiautomaton", (("sum", "cells", _cells_of_result),)),
    ("automata", "CoveringWitness", ()),
)


# Per-layer counts the benchmark takes from the outputs, not from spans.
OUTPUT_COUNTS = (
    "pipeline.raw_leaves",
    "pipeline.cascade_states",
    "pipeline.tree_cells",
    "pipeline.leaves",
    "io.report_bytes",
)


def metric_names():
    """Every per-layer metric a traced run can report."""
    names = ["trace.spans", "trace.overhead_s"] + list(OUTPUT_COUNTS)
    for mod_name, attr, counters in TRACED + TRACED_CLASSES:
        base = "%s.%s" % (mod_name, attr)
        names += [base + ".s", base + ".calls"]
        names += ["%s.%s" % (base, unit) for _, unit, _ in counters]
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.active = False
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._undo = []

    def _feed(self, name, counters, result, args):
        for how, unit, fn in counters:
            key = "%s.%s" % (name, unit)
            value = fn(result, args)
            if how == "sum":
                self.counts[key] += value
            else:
                self.maxima[key] = max(self.maxima[key], value)

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.process_time()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)

    def _wrap_function(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            self._feed(name, counters, result, args)
            return result

        return traced

    def _wrap_init(self, name, init, counters):
        def traced_init(obj, *args, **kwargs):
            if not self.active:
                return init(obj, *args, **kwargs)
            self._span(name, init, (obj,) + args, kwargs)
            self._feed(name, counters, obj, args)

        return traced_init

    def install(self):
        """Rebind every traced name in every loaded krcascade module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "krcascade" or n.startswith("krcascade.")]
        for mod_name, attr, counter in TRACED:
            home = importlib.import_module("krcascade." + mod_name)
            orig = getattr(home, attr)
            traced = self._wrap_function("%s.%s" % (mod_name, attr), orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, orig))
        for mod_name, attr, counter in TRACED_CLASSES:
            cls = getattr(importlib.import_module("krcascade." + mod_name), attr)
            init = cls.__init__
            cls.__init__ = self._wrap_init("%s.%s" % (mod_name, attr), init, counter)
            self._undo.append((cls, "__init__", init))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def layer_totals(self):
        """Per span name: (self seconds, calls); self time is the span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for idx, (name, t0, t1, parent, op) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[idx]
            calls[name] += 1
        return self_s, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, op]) + "\n")
