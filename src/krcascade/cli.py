"""Command line front end.

Exit codes: 0 success or witness verified, 1 verification failure, 2 parse or
input error, 3 resource cap exceeded (including an incomplete decomposition),
4 i/o error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import (
    CoveringWitness,
    _nonnegative,
    transition_monoid,
    verify_covering,
    verify_hom_image,
)
from .errors import (
    InvalidInputError,
    ParseError,
    ResourceCapError,
    WitnessError,
)
from .io import (
    export_dot,
    parse_automaton,
    parse_witness,
    render_tree_text,
    tree_report,
)
from .pipeline import Caps, krohn_rhodes_decompose

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_IO = 4


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_decompose(args) -> int:
    _nonnegative("--verify-len", args.verify_len)
    A = parse_automaton(_read(args.file))
    caps = Caps(group_order=args.cap_group, product_states=args.cap_states)
    tree = krohn_rhodes_decompose(A, caps=caps)
    report = tree_report(tree, sim_len=args.verify_len)
    sys.stdout.write(render_tree_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if not report["witnesses_verified"]:
        return EXIT_VERIFY
    if not report["complete"]:
        return EXIT_CAP
    return EXIT_OK


def cmd_verify(args) -> int:
    _nonnegative("--len", args.max_len)
    upper = parse_automaton(_read(args.upper))
    lower = parse_automaton(_read(args.lower))
    w = parse_witness(_read(args.witness), upper, lower)
    if isinstance(w, CoveringWitness):
        res = verify_covering(w)
        if not res:
            print("covering FAILED: %s" % res.reason)
            return EXIT_VERIFY
        # a witness that passes the law check passes the word simulation too,
        # whatever its length bound (automata.simulation_counterexample)
        print("covering verified (law and simulation to length %d)" % args.max_len)
        return EXIT_OK
    res = verify_hom_image(w)
    if not res:
        print("hom-image FAILED: %s" % res.reason)
        return EXIT_VERIFY
    print("hom-image verified")
    return EXIT_OK


def cmd_monoid(args) -> int:
    A = parse_automaton(_read(args.file))
    M = transition_monoid(A)
    print("transition monoid of %d-state automaton: order %d" % (A.n_states, M.order))
    width = max(len(lab) for lab in M.labels)
    print("elements:")
    for i, lab in enumerate(M.labels):
        t = M.transformations[i]
        if t.is_permutation():
            cls = "permutation"
        elif t.is_reset():
            cls = "reset"
        else:
            cls = "other"
        print("  %3d  %-*s  %s  (%s)" % (i, width, lab, list(t.image), cls))
    print("table (row then column):")
    for i in range(M.order):
        row = " ".join("%3d" % M.mul(i, j) for j in range(M.order))
        print("  %-*s  %s" % (width, M.labels[i], row))
    return EXIT_OK


def cmd_export_dot(args) -> int:
    A = parse_automaton(_read(args.file))
    sys.stdout.write(export_dot(A))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krcascade",
        description="Krohn-Rhodes cascade decomposition of finite semiautomata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "decompose", help="decompose an automaton into grouplike and reset parts"
    )
    d.add_argument("file", help="automaton document (JSON)")
    d.add_argument(
        "--cap-group",
        type=int,
        default=Caps.group_order,
        help="largest permutation group order to decompose (default %(default)d)",
    )
    d.add_argument(
        "--cap-states",
        type=int,
        default=Caps.product_states,
        help="largest intermediate product state count (default %(default)d)",
    )
    d.add_argument(
        "--verify-len",
        type=int,
        default=6,
        help="simulate the root witness on all words up to this length (default 6)",
    )
    d.add_argument("--out", help="write the machine-readable report to this file")
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="check a covering or hom-image witness")
    v.add_argument("upper", help="covering automaton document")
    v.add_argument("lower", help="covered automaton document")
    v.add_argument("witness", help="witness document")
    v.add_argument(
        "--len",
        dest="max_len",
        type=int,
        default=6,
        help="simulation word length bound (default 6)",
    )
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("monoid", help="print the transition monoid")
    m.add_argument("file", help="automaton document (JSON)")
    m.set_defaults(func=cmd_monoid)

    e = sub.add_parser("export-dot", help="emit the transition graph in DOT format")
    e.add_argument("file", help="automaton document (JSON)")
    e.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except ResourceCapError as exc:
        print("resource cap exceeded: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except WitnessError as exc:
        print("verification error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except InvalidInputError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
