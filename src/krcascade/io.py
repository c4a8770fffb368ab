"""Document formats (JSON), decomposition reports, and DOT export."""

from __future__ import annotations

import json

from .automata import CoveringWitness, HomImageWitness, Semiautomaton
from .errors import ParseError
from .pipeline import (
    CascadeNode,
    Leaf,
    is_complete,
    summarize_leaves,
    verify_tree,
)

FORMAT_VERSION = 1


def _load_object(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    return doc


def _check_version(doc):
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError("format_version must be %d" % FORMAT_VERSION)


def _label_list(doc, field):
    value = doc.get(field)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError("%s must be a list of strings" % field)
    seen = set()
    for x in value:
        if x in seen:
            raise ParseError("duplicate label %r in %s" % (x, field))
        seen.add(x)
    return value


def parse_automaton(text) -> Semiautomaton:
    """Read an automaton document; transitions are one row per symbol label."""
    doc = _load_object(text)
    _check_version(doc)
    states = _label_list(doc, "states")
    alphabet = _label_list(doc, "alphabet")
    if not states:
        raise ParseError("states must be nonempty")
    transitions = doc.get("transitions")
    if not isinstance(transitions, dict):
        raise ParseError("transitions must be an object keyed by symbol label")
    for key in transitions:
        if key not in alphabet:
            raise ParseError("transitions has a row for unknown symbol %r" % key)
    state_index = {lab: i for i, lab in enumerate(states)}
    columns = []
    for sym in alphabet:
        row = transitions.get(sym)
        if row is None:
            raise ParseError("missing transition row for symbol %r" % sym)
        if not isinstance(row, list) or len(row) != len(states):
            raise ParseError(
                "transition row for symbol %r must have length %d" % (sym, len(states))
            )
        col = []
        for k, target in enumerate(row):
            if target not in state_index:
                raise ParseError(
                    "unknown state label %r in row for symbol %r (position %d)"
                    % (target, sym, k)
                )
            col.append(state_index[target])
        columns.append(col)
    return Semiautomaton.from_columns(states, alphabet, columns)


def emit_automaton(A: Semiautomaton) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "states": list(A.state_labels),
        "alphabet": list(A.symbol_labels),
        "transitions": {
            A.symbol_labels[a]: list(map(A.state_labels.__getitem__, A.column(a)))
            for a in range(A.n_symbols)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_witness(w) -> str:
    if isinstance(w, CoveringWitness):
        kind, upper, lower = "covering", w.upper, w.lower
        phi = _labelled(w.dom, upper.state_labels, lower.state_labels, w.phi)
        xi = _labelled(range(lower.n_symbols), lower.symbol_labels, upper.symbol_labels, w.xi)
    elif isinstance(w, HomImageWitness):
        kind, source, target = "hom-image", w.source, w.target
        phi = _labelled(range(source.n_states), source.state_labels, target.state_labels, w.phi)
        xi = _labelled(range(source.n_symbols), source.symbol_labels, target.symbol_labels, w.xi)
    else:
        raise ParseError("not a witness object")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, "phi": phi, "xi": xi}
    return json.dumps(doc, indent=2) + "\n"


def _labelled(domain, source, target, image) -> list:
    """[source[i], target[image[i]]] for each i of domain, in order."""
    return [[source[i], target[image[i]]] for i in domain]


def _pair_list(doc, field):
    value = doc.get(field)
    if not isinstance(value, list):
        raise ParseError("%s must be a list of label pairs" % field)
    for item in value:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) for x in item)
        ):
            raise ParseError("%s entries must be [label, label] pairs" % field)
    return value


def _label_map(doc, field, kind, source, target):
    """The map that doc[field]'s label pairs give: one target index per
    source label, None where no pair names it. source and target are
    (role, label index) pairs, the roles naming them in messages."""
    (src_role, src_index), (tgt_role, tgt_index) = source, target
    out = [None] * len(src_index)
    for src, tgt in _pair_list(doc, field):
        if src not in src_index:
            raise ParseError("unknown %s %s %r in %s" % (src_role, kind, src, field))
        if tgt not in tgt_index:
            raise ParseError("unknown %s %s %r in %s" % (tgt_role, kind, tgt, field))
        i = src_index[src]
        if out[i] is not None:
            raise ParseError("%s %s %r mapped twice in %s" % (src_role, kind, src, field))
        out[i] = tgt_index[tgt]
    return out


def parse_witness(text, upper: Semiautomaton, lower: Semiautomaton):
    """Read a witness document against two already-parsed automata.

    Covering documents map upper states onto lower states partially; hom-image
    documents read the first automaton as the source and the second as the
    target, with total maps. Either kind rejects a label mapped twice.
    Semantic violations are left to the verifiers, so a structurally
    well-formed but wrong witness parses fine.
    """
    doc = _load_object(text)
    _check_version(doc)
    kind = doc.get("kind")
    if kind == "covering":
        phi = _label_map(
            doc, "phi", "state", ("upper", upper._state_index), ("lower", lower._state_index)
        )
        xi = _label_map(
            doc, "xi", "symbol", ("lower", lower._symbol_index), ("upper", upper._symbol_index)
        )
        for a, x in enumerate(xi):
            if x is None:
                raise ParseError("xi gives no image for symbol %r" % lower.symbol_labels[a])
        return CoveringWitness(upper, lower, phi, xi, check=False)
    if kind == "hom-image":
        source, target = upper, lower
        phi = _label_map(
            doc, "phi", "state", ("source", source._state_index), ("target", target._state_index)
        )
        if None in phi:
            raise ParseError("phi must cover every source state")
        xi = _label_map(
            doc, "xi", "symbol", ("source", source._symbol_index), ("target", target._symbol_index)
        )
        if None in xi:
            raise ParseError("xi must cover every source symbol")
        return HomImageWitness(source, target, phi, xi, check=False)
    raise ParseError("kind must be 'covering' or 'hom-image'")


def _node_report(node, checks) -> dict:
    """The report of node and its subtree; checks yields the verify_tree
    result of each node in preorder, as iter_nodes walks the tree."""
    res = next(checks)
    out = {
        "states": node.automaton.n_states,
        "symbols": node.automaton.n_symbols,
        "witness_verified": bool(res),
    }
    if not res:
        out["witness_failure"] = res.reason
    if isinstance(node, Leaf):
        out["type"] = "leaf"
        out["kind"] = node.kind
        if node.group is not None:
            out["group_order"] = node.group.order
            out["abelian"] = node.group.is_abelian()
        if node.reason:
            out["reason"] = node.reason
    else:
        out["type"] = "cascade" if isinstance(node, CascadeNode) else "direct"
        out["left"] = _node_report(node.left, checks)
        out["right"] = _node_report(node.right, checks)
    return out


def tree_report(tree, sim_len: int = 6) -> dict:
    """Machine-readable report: completeness, witness status, leaf census.

    The witness results are those of one verify_tree call. The simulation
    is reported only once every witness verifies, and then it holds: its
    verdict is the root witness's law check (see verify_tree).
    """
    ok, results = verify_tree(tree, sim_len)
    root = _node_report(tree, (res for _, res in results))
    report = {
        "format_version": FORMAT_VERSION,
        "complete": is_complete(tree),
        "witnesses_verified": ok,
        "simulation_length": sim_len,
        "covered_states": tree.witness.lower.n_states,
        "composite_states": tree.automaton.n_states,
        "leaves": [
            {"description": desc, "count": count}
            for desc, count in summarize_leaves(tree)
        ],
        "root": root,
    }
    if ok and sim_len > 0:
        report["simulation_ok"] = True
    return report


def _render_node(node_report: dict, indent: int, lines):
    pad = "  " * indent
    status = "ok" if node_report["witness_verified"] else (
        "FAILED (%s)" % node_report.get("witness_failure", "")
    )
    if node_report["type"] == "leaf":
        extra = ""
        if "group_order" in node_report:
            extra = ", group order %d" % node_report["group_order"]
        if "reason" in node_report:
            extra = ", %s" % node_report["reason"]
        lines.append(
            "%sleaf %s [%d states%s] witness %s"
            % (pad, node_report["kind"], node_report["states"], extra, status)
        )
    else:
        lines.append(
            "%s%s [%d states, %d inputs] witness %s"
            % (
                pad,
                node_report["type"],
                node_report["states"],
                node_report["symbols"],
                status,
            )
        )
        _render_node(node_report["left"], indent + 1, lines)
        _render_node(node_report["right"], indent + 1, lines)


def render_tree_text(report: dict) -> str:
    lines = []
    lines.append(
        "decomposition of a %d-state automaton into a %d-state cascade: %s, witnesses %s"
        % (
            report["covered_states"],
            report["composite_states"],
            "complete" if report["complete"] else "INCOMPLETE",
            "verified" if report["witnesses_verified"] else "NOT verified",
        )
    )
    if "simulation_ok" in report:
        lines.append(
            "simulation to length %d: %s"
            % (report["simulation_length"], "ok" if report["simulation_ok"] else "FAILED")
        )
    lines.append("leaves:")
    for entry in report["leaves"]:
        lines.append("  %d x %s" % (entry["count"], entry["description"]))
    lines.append("tree:")
    _render_node(report["root"], 1, lines)
    return "\n".join(lines) + "\n"


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(A: Semiautomaton) -> str:
    """DOT digraph, one node per state, parallel edges merged into one label."""
    lines = ["digraph semiautomaton {", "  rankdir=LR;"]
    for lab in A.state_labels:
        lines.append('  "%s";' % _dot_escape(lab))
    columns = [A.column(a) for a in range(A.n_symbols)]
    for s in range(A.n_states):
        targets = {}
        for a, col in enumerate(columns):
            targets.setdefault(col[s], []).append(A.symbol_labels[a])
        for t in sorted(targets):
            lines.append(
                '  "%s" -> "%s" [label="%s"];'
                % (
                    _dot_escape(A.state_labels[s]),
                    _dot_escape(A.state_labels[t]),
                    _dot_escape(",".join(targets[t])),
                )
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
