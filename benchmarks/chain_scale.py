"""CPU, peak RSS and outcome of decomposing the larger "random n" automata.

    python benchmarks/chain_scale.py [--src DIR] [--label NAME]
        [--sizes 8 9 10 11] [--seeds 0 1 ... 9] [--out BENCH_chain_scale.json]

Run from the root of a source checkout. The library is imported from the
src/ directory of --src (this checkout by default), so one script can time
two checkouts, and the automata come from corpus_recipe.random_n. Every
(size, seed) runs in a child process of its own, which sets its own
address-space limit (RLIMIT_AS, LIMIT_MB) before it imports the library.
The child times krohn_rhodes_decompose and then verify_tree with
time.process_time, and records whether the tree verified and is complete,
its root's state count, its raw-leaf reasons and the child's peak RSS. A
child that runs out of memory records "MemoryError" with the CPU it spent,
and one that runs past TIMEOUT_S seconds is stopped and recorded as such.

Each size's entry sums the seeds: decompose CPU over the seeds that
finished, decompose plus verify CPU over all of them, trees complete, trees
verified, the largest root and the largest peak RSS, and counts the
raw-leaf reasons. The entries go under runs[--label] in the
--out file; the labels already there are kept, so the runs of two checkouts
share one file.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIMIT_MB = 2048  # RLIMIT_AS of each child
TIMEOUT_S = 600  # seconds each child may run


def child(src, size, seed):
    """Decompose random-size seed under LIMIT_MB and return its record."""
    import resource
    import time

    limit = LIMIT_MB * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path[:0] = [os.path.join(src, "src"), HERE]
    from corpus_recipe import random_n
    from krcascade import is_complete, krohn_rhodes_decompose, leaves, verify_tree

    A = random_n(size, seed)
    start = time.process_time()
    record = {"seed": seed}
    try:
        tree = krohn_rhodes_decompose(A)
        record["decompose_cpu_s"] = round(time.process_time() - start, 4)
        ok, _ = verify_tree(tree)
        record.update(
            cpu_s=round(time.process_time() - start, 4),
            verified=ok,
            complete=is_complete(tree),
            root_states=tree.automaton.n_states,
            raw_reasons=[leaf.reason for leaf in leaves(tree) if leaf.kind == "raw"],
        )
    except MemoryError:
        record.update(error="MemoryError", cpu_s=round(time.process_time() - start, 4))
    record["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return record


def run_size(src, size, seeds):
    records = []
    for seed in seeds:
        args = [sys.executable, os.path.abspath(__file__), "--child", str(size), str(seed),
                "--src", src]
        try:
            out = subprocess.run(args, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            records.append({"seed": seed, "error": "timeout after %d s" % TIMEOUT_S})
        else:
            records.append(_record(seed, out))
        print("random-%d seed %d: %s" % (size, seed, records[-1]), file=sys.stderr)
    done = [r for r in records if "error" not in r]
    reasons = Counter(reason for r in done for reason in r["raw_reasons"])
    return {
        "limit_mb": LIMIT_MB,
        "seeds": records,
        "runs": len(records),
        "errors": len(records) - len(done),
        "complete": sum(r["complete"] for r in done),
        "verified": sum(r["verified"] for r in done),
        "decompose_cpu_s": round(sum(r["decompose_cpu_s"] for r in done), 4) if done else None,
        "cpu_s": round(sum(r.get("cpu_s", 0.0) for r in records), 4),
        "worst_cpu_s": round(max((r.get("cpu_s", 0.0) for r in records), default=0.0), 4),
        "largest_root": max((r["root_states"] for r in done), default=None),
        "max_peak_rss_mb": max((r.get("peak_rss_mb", 0.0) for r in records), default=None),
        "raw_reasons": dict(sorted(reasons.items())),
    }


def _record(seed, out):
    """A child's record from its completed process."""
    if out.returncode != 0 or not out.stdout.strip():
        # a child that dies outside the decomposition (the limit hit in the
        # interpreter itself) is recorded by its exit
        last = (out.stderr.strip().splitlines() or ["exit %d" % out.returncode])[-1]
        return {"seed": seed, "error": "MemoryError" if "MemoryError" in out.stderr else last}
    return json.loads(out.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=ROOT, help="checkout whose src/ is timed")
    parser.add_argument("--label", default="change", help="name of this run in the file")
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 9, 10, 11])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_chain_scale.json"))
    parser.add_argument("--child", type=int, nargs=2, metavar=("SIZE", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    if args.child:
        print(json.dumps(child(src, *args.child)))
        return 0
    try:
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {
            "about": __doc__.splitlines()[0],
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
            "runs": {},
        }
    run = doc["runs"].setdefault(args.label, {})
    for size in args.sizes:
        run["random-%d" % size] = run_size(src, size, args.seeds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
