"""Decomposition benchmark for krcascade.

    python3 krbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory. One operation takes one automaton of the workload's corpus
through what `krcascade decompose` does: the document is read by
io.parse_automaton, decomposed by pipeline.krohn_rhodes_decompose under the
default Caps, checked by pipeline.verify_tree (plus a replay of every node
witness on sweep3-replay) and reported by io.tree_report, io.render_tree_text
and a JSON dump. An operation succeeds when the report is what the CLI exits
0 on: complete, every witness verified, simulation ok. Every output is also
checked by refcheck, which shares no verification code with the library.

The run attempts whole rounds of the corpus, one automaton at a time, until
--seconds of wall time have passed. Every phase is timed in CPU seconds of
this process (time.process_time). With --trace 0 each phase total of a round
is scaled to the host's reference speed by speed.Sampler, and each metric is
the median over the run's rounds.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced rounds and prints the per-layer
metrics and the tracing overhead. The last line of standard output is the
JSON result.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import krcascade
    from krcascade import automata, io, pipeline
except ImportError as exc:
    sys.exit("krbench: cannot import krcascade from %s: %s" % (SRC, exc))
if not os.path.abspath(krcascade.__file__).startswith(SRC + os.sep):
    sys.exit("krbench: krcascade was imported from outside %s" % SRC)

import corpus  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES = 10
# CPU seconds of a bare interpreter's start on an uncontended core of the
# machine the benchmark was written on; the unit of setup_s.
BARE_START_S = 0.045


@dataclass(frozen=True)
class Workload:
    sim_len: int
    # sweep3-replay replays every node witness and a corrupted copy of it.
    # Acceptance criterion 7 does the same replay at word length 6, which
    # takes about 55 s per round; length 5 keeps a round near 5 s. The other
    # workloads simulate only the root, inside verify_tree and tree_report.
    node_replay: bool


WORKLOADS = {
    "sweep3-replay": Workload(sim_len=5, node_replay=True),
    "random5": Workload(sim_len=6, node_replay=False),
    "random6": Workload(sim_len=6, node_replay=False),
}


def build_corpus(workload):
    """The round's automata with their documents, written by corpus.py."""
    return [(auto, auto.to_json()) for auto in corpus.workload_corpus(workload)]


def child_cpu_s(cmd):
    """CPU time (user + system) of one child process running cmd."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(cmd, cwd=ROOT, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def measure_setup(args):
    """CPU time of a fresh interpreter that imports the library and builds
    the corpus, i.e. everything before the first timed operation, in units
    of the CPU time of a bare interpreter's start (`python -c pass`) times
    BARE_START_S. Both are medians over SETUP_PROBES alternating starts.

    Start-up runs cold code, which slows down far more than the sampler's
    table walk when the host is contended; a bare start slows down with it
    and shares no code with the library."""
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    bare = [sys.executable, "-c", "pass"]
    setup, base = [], []
    for _ in range(SETUP_PROBES):
        base.append(child_cpu_s(bare))
        setup.append(child_cpu_s(probe))
    return statistics.median(setup) / statistics.median(base) * BARE_START_S


def corrupt_copy(w, rng):
    """A copy of witness w with one phi or xi entry changed."""
    phi, xi = list(w.phi), list(w.xi)
    if w.upper.n_symbols > 1 and rng.random() < 0.5:
        a = rng.randrange(len(xi))
        xi[a] = rng.choice([x for x in range(w.upper.n_symbols) if x != xi[a]])
    else:
        s = rng.randrange(len(phi))
        phi[s] = rng.choice([v for v in [None] + list(range(w.lower.n_states)) if v != phi[s]])
    return automata.CoveringWitness(w.upper, w.lower, phi, xi, check=False)


def check_corrupted(w, sim_len, rng):
    """verify_covering and simulation_counterexample must give the reference
    verdict on a corrupted copy of w, and each failure site they name must
    break the law when replayed."""
    bad = corrupt_copy(w, rng)
    up, low = bad.upper.delta, bad.lower.delta
    ref = refcheck.witness_verdict(up, low, bad.phi, bad.xi)
    res = automata.verify_covering(bad)
    if bool(res) != ref.is_covering:
        raise refcheck.CheckFailure("verify_covering disagrees on a corrupted witness")
    if res.site is not None:
        s, a = res.site
        if not refcheck.replay_violates(up, low, bad.phi, bad.xi, s, [a]):
            raise refcheck.CheckFailure("verify_covering names a site that holds")
    found = automata.simulation_counterexample(bad, sim_len)
    if (found is None) != ref.law_holds:
        raise refcheck.CheckFailure("simulation disagrees on a corrupted witness")
    if found is not None and not refcheck.replay_violates(up, low, bad.phi, bad.xi, *found):
        raise refcheck.CheckFailure("simulation returned a word that does not break the law")


def check_report(report, text, blob, stats, is_readme):
    complete = stats["raw"] == 0
    if report["complete"] != complete:
        raise refcheck.CheckFailure("report completeness disagrees with the leaves")
    if not report["witnesses_verified"] or report.get("simulation_ok") is not True:
        raise refcheck.CheckFailure("report rejects a tree the reference accepts")
    if report["composite_states"] != stats["root_states"]:
        raise refcheck.CheckFailure("report gives the wrong cascade size")
    if sum(e["count"] for e in report["leaves"]) != len(stats["leaves"]):
        raise refcheck.CheckFailure("report leaf census does not add up")
    if json.loads(blob) != report:
        raise refcheck.CheckFailure("JSON report does not read back")
    if is_readme:
        kinds = {}
        for kind, n in stats["leaves"]:
            kinds.setdefault(kind, []).append(n)
        if (
            stats["root_states"] != corpus.README_ROOT_STATES
            or {k: sorted(v) for k, v in kinds.items()} != corpus.README_LEAVES
            or not text.startswith(corpus.README_HEADLINE)
        ):
            raise refcheck.CheckFailure("README example does not give its known answer")


@dataclass
class Outcome:
    """One operation's outputs and phase times (decompose, verify, report)."""

    tree: object
    ok: bool
    replayed: list
    report: dict
    text: str
    blob: str
    phases: tuple


def time_operation(doc, spec, tracer, sampler):
    """Take one automaton document through decompose, verify and report.

    The phase times are CPU seconds less the time the sampler's handler took
    in each phase."""
    def clock(phase):
        if sampler is not None:
            sampler.phase = phase
        return time.process_time() - (sampler.spent if sampler is not None else 0.0)

    if tracer is not None:
        tracer.active = True
    t0 = clock(0)
    A = io.parse_automaton(doc)
    tree = pipeline.krohn_rhodes_decompose(A)
    t1 = clock(1)
    ok, _ = pipeline.verify_tree(tree, sim_len=spec.sim_len)
    replayed = []
    if spec.node_replay:
        for node in pipeline.iter_nodes(tree):
            replayed.append((
                bool(automata.verify_covering(node.witness)),
                automata.simulation_counterexample(node.witness, spec.sim_len),
            ))
    t2 = clock(2)
    report = io.tree_report(tree, sim_len=spec.sim_len)
    text = io.render_tree_text(report)
    blob = json.dumps(report, indent=2)
    t3 = clock(None)
    if tracer is not None:
        tracer.active = False
    phases = (t1 - t0, t2 - t1, t3 - t2)
    return Outcome(tree, ok, replayed, report, text, blob, phases)


def check_outcome(auto, out, spec, rng):
    """Check one operation's outputs; returns counts read from them."""
    stats = refcheck.check_tree(out.tree, auto, rng)
    if not out.ok:
        raise refcheck.CheckFailure("verify_tree rejects a tree the reference accepts")
    if any(not law or found is not None for law, found in out.replayed):
        raise refcheck.CheckFailure("node replay rejects a witness the reference accepts")
    if spec.node_replay:
        for node in pipeline.iter_nodes(out.tree):
            check_corrupted(node.witness, spec.sim_len, rng)
    check_report(out.report, out.text, out.blob, stats, auto.name == "readme-5")
    return {
        "pipeline.raw_leaves": stats["raw"],
        "pipeline.cascade_states": stats["root_states"],
        "pipeline.tree_cells": stats["cells"],
        "pipeline.leaves": len(stats["leaves"]),
        "io.report_bytes": len(out.blob),
    }


class Run:
    """Operations attempted and failed, and the phase totals (decompose,
    verify, report) of every round, kept apart for untraced and traced
    rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.untraced = []
        self.traced = []
        self.speeds = []
        self.outputs = dict.fromkeys(spans.OUTPUT_COUNTS, 0)

    def round(self, corpus_docs, spec, rng, tracer=None, sampler=None):
        """One pass over the corpus. With a sampler, each phase total of the
        round is scaled by the mean speed sampled during that phase."""
        first = self.attempted == 0
        totals = [0.0, 0.0, 0.0]
        if sampler is not None:
            sampler.arm()
        try:
            for auto, doc in corpus_docs:
                self.attempted += 1
                if tracer is not None:
                    tracer.op = self.attempted
                out = time_operation(doc, spec, tracer, sampler)
                totals = [t + p for t, p in zip(totals, out.phases)]
                self.failed += not out.report["complete"]
                counts = check_outcome(auto, out, spec, rng)
                del out
                if first:
                    for key, value in counts.items():
                        self.outputs[key] += value
                gc.collect()
        finally:
            # A round cut short by a failed check is kept too, so that the
            # run still prints its result, with correct set to false.
            scales = [1.0] * len(totals)
            if sampler is not None:
                sampler.disarm()
                scales = sampler.take_speeds()
                self.speeds.append(scales)
            rounds = self.untraced if tracer is None else self.traced
            rounds.append(tuple(t * k for t, k in zip(totals, scales)))


def round_medians(rounds):
    """Median over rounds of each phase total and of the timed total."""
    return {
        "decompose_s": statistics.median(r[0] for r in rounds),
        "verify_s": statistics.median(r[1] for r in rounds),
        "report_s": statistics.median(r[2] for r in rounds),
        "timed_s": statistics.median(sum(r) for r in rounds),
    }


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def end_to_end_values(run, setup_s, n_ops):
    med = round_medians(run.untraced)
    return {
        "setup_s": setup_s,
        "automata_per_s": n_ops / med["timed_s"],
        "decompose_s": med["decompose_s"],
        "verify_s": med["verify_s"],
        "report_s": med["report_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_values(run, tracer):
    """Per-round self times, calls and counts from the traced rounds."""
    n = max(len(run.traced), 1)
    self_s, calls = tracer.layer_totals()
    values = dict.fromkeys(spans.metric_names(), 0)
    for name in calls:
        values[name + ".s"] = self_s[name] / n
        values[name + ".calls"] = calls[name] / n
    for key, total in tracer.counts.items():
        values[key] = total / n
    values.update(tracer.maxima)
    values.update(run.outputs)
    values["trace.spans"] = len(tracer.spans) / n
    values["trace.overhead_s"] = (
        round_medians(run.traced)["timed_s"] - round_medians(run.untraced)["timed_s"]
    )
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    corpus_docs = build_corpus(args.workload)
    if args.setup_probe:
        return 0
    e2e_specs, layer_specs = load_metric_specs()
    spec = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    setup_s = None if args.trace else measure_setup(args)
    run = Run()
    tracer = spans.Tracer() if args.trace else None
    # Traced runs report CPU seconds as measured: the sampler's handler
    # would add its own time to the spans it interrupts.
    sampler = None if args.trace else speed.Sampler(n_phases=3)
    correct = True
    start = time.perf_counter()
    rounds = 0
    try:
        while True:
            # A traced run alternates untraced and traced rounds, so both
            # sides of the overhead are measured under the same conditions.
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.install()
            try:
                run.round(corpus_docs, spec, rng, tracer if traced else None, sampler)
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or traced):
                break
    except refcheck.CheckFailure as exc:
        print("krbench: check failed: %s" % exc, file=sys.stderr)
        correct = False
    if not run.untraced:
        sys.exit("krbench: no operation completed")

    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
        values, wanted = per_layer_values(run, tracer), layer_specs
    else:
        values, wanted = end_to_end_values(run, setup_s, len(corpus_docs)), e2e_specs
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-48s %14.6g %s" % (m["name"], value, m["unit"]))
    print("rounds %d, operations attempted %d, failed %d"
          % (rounds, run.attempted, run.failed))
    if run.speeds:
        print("host speed per round and phase (1 = reference): "
              + "  ".join("/".join("%.3f" % v for v in r) for r in run.speeds))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
