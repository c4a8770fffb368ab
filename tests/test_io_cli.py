"""Document parsing/serialization, reports, DOT export, and the CLI surface."""

import dataclasses
import json
import re

import pytest

from krcascade import (
    Caps,
    CoveringWitness,
    HomImageWitness,
    ParseError,
    Semiautomaton,
    emit_automaton,
    emit_witness,
    export_dot,
    krohn_rhodes_decompose,
    parse_automaton,
    parse_witness,
    render_tree_text,
    tree_report,
    verify_covering,
    verify_hom_image,
    verify_tree,
)
from krcascade.cli import build_parser, main

SA3_DOC = {
    "format_version": 1,
    "states": ["1", "2", "3"],
    "alphabet": ["a", "b"],
    "transitions": {"a": ["1", "1", "1"], "b": ["2", "2", "3"]},
}


def test_automaton_round_trip(sa3, five_state):
    text = emit_automaton(sa3)
    assert parse_automaton(text) == sa3
    assert emit_automaton(parse_automaton(text)) == text
    assert parse_automaton(emit_automaton(five_state)) == five_state
    assert parse_automaton(json.dumps(SA3_DOC)) == sa3


def _broken(doc, **changes):
    out = dict(doc)
    out.update(changes)
    return json.dumps(out)


def test_parse_automaton_errors():
    cases = [
        "not json at all",
        json.dumps([1, 2]),
        _broken(SA3_DOC, format_version=7),
        _broken(SA3_DOC, states="abc"),
        _broken(SA3_DOC, states=["1", 2, "3"]),
        _broken(SA3_DOC, states=["1", "1", "3"]),
        _broken(SA3_DOC, states=[], transitions={"a": [], "b": []}),
        _broken(SA3_DOC, transitions=[["a", "1"]]),
        _broken(SA3_DOC, transitions={"a": ["1", "1", "1"], "b": ["2", "2", "3"], "c": ["1", "1", "1"]}),
        _broken(SA3_DOC, transitions={"a": ["1", "1", "1"]}),
        _broken(SA3_DOC, transitions={"a": ["1", "1"], "b": ["2", "2", "3"]}),
        _broken(SA3_DOC, transitions={"a": ["1", "9", "1"], "b": ["2", "2", "3"]}),
    ]
    for text in cases:
        with pytest.raises(ParseError):
            parse_automaton(text)


def test_parse_automaton_error_messages():
    with pytest.raises(ParseError, match="unknown symbol 'c'"):
        parse_automaton(
            _broken(SA3_DOC, transitions=dict(SA3_DOC["transitions"], c=["1", "1", "1"]))
        )
    with pytest.raises(ParseError, match="unknown state label '9'.*position 1"):
        parse_automaton(
            _broken(SA3_DOC, transitions={"a": ["1", "9", "1"], "b": ["2", "2", "3"]})
        )


def test_covering_witness_round_trip(sa3, sa2):
    w = CoveringWitness(sa3, sa2, [0, 1, None], [0, 1])
    text = emit_witness(w)
    doc = json.loads(text)
    assert doc["kind"] == "covering"
    assert doc["phi"] == [["1", "1"], ["2", "2"]]
    assert doc["xi"] == [["a", "a"], ["b", "b"]]
    back = parse_witness(text, sa3, sa2)
    assert back.phi == w.phi
    assert back.xi == w.xi
    assert verify_covering(back)


def test_emitted_witness_bytes():
    # both kinds of witness document, byte for byte: keys in order, phi over
    # the domain (covering) or every source state (hom-image), xi from the
    # lower's symbols to the upper's (covering) or source to target
    upper = Semiautomaton(["p", "q", "r"], ["x", "y"], [[0, 1], [0, 1], [0, 2]])
    lower = Semiautomaton(["1", "2"], ["a", "b", "c"], [[0, 1, 1], [0, 1, 0]])
    cover = CoveringWitness(upper, lower, [1, None, 0], [1, 0, 1], check=False)
    hom = HomImageWitness(upper, lower, [1, 0, 1], [2, 0], check=False)
    for w, kind, phi, xi in [
        (cover, "covering", [["p", "2"], ["r", "1"]], [["a", "y"], ["b", "x"], ["c", "y"]]),
        (hom, "hom-image", [["p", "2"], ["q", "1"], ["r", "2"]], [["x", "c"], ["y", "a"]]),
    ]:
        doc = {"format_version": 1, "kind": kind, "phi": phi, "xi": xi}
        assert emit_witness(w) == json.dumps(doc, indent=2) + "\n"


def test_wrong_witness_parses_then_fails(sa3, sa2):
    doc = {
        "format_version": 1,
        "kind": "covering",
        "phi": [["1", "1"], ["2", "2"]],
        "xi": [["a", "b"], ["b", "a"]],
    }
    w = parse_witness(json.dumps(doc), sa3, sa2)
    res = verify_covering(w)
    assert not res
    assert res.site is not None


def test_hom_witness_round_trip():
    source = Semiautomaton(["1", "2", "3"], ["a"], [[2], [2], [2]])
    target = Semiautomaton(["1", "2"], ["a"], [[1], [1]])
    w = HomImageWitness(source, target, [0, 0, 1], [0])
    back = parse_witness(emit_witness(w), source, target)
    assert back.phi == w.phi and back.xi == w.xi
    assert verify_hom_image(back)


def test_parse_witness_errors(sa3, sa2):
    base = {
        "format_version": 1,
        "kind": "covering",
        "phi": [["1", "1"], ["2", "2"]],
        "xi": [["a", "a"], ["b", "b"]],
    }
    bad = [
        dict(base, kind="something"),
        dict(base, phi="nope"),
        dict(base, phi=[["1"]]),
        dict(base, phi=[["9", "1"], ["2", "2"]]),
        dict(base, phi=[["1", "9"], ["2", "2"]]),
        dict(base, phi=[["1", "1"], ["1", "2"]]),
        dict(base, xi=[["a", "a"]]),
        dict(base, xi=[["a", "a"], ["z", "b"]]),
        dict(base, xi=[["a", "a"], ["b", "z"]]),
        dict(base, xi=[["a", "a"], ["a", "b"]]),
    ]
    for doc in bad:
        with pytest.raises(ParseError):
            parse_witness(json.dumps(doc), sa3, sa2)

    # hom-image documents read sa3 as the source and sa2 as the target
    hom = {
        "format_version": 1,
        "kind": "hom-image",
        "phi": [["1", "1"], ["2", "1"], ["3", "2"]],
        "xi": [["a", "a"], ["b", "b"]],
    }
    parse_witness(json.dumps(hom), sa3, sa2)
    bad_hom = [
        (dict(hom, phi=hom["phi"] + [["2", "2"]]), "source state '2' mapped twice in phi"),
        (dict(hom, xi=hom["xi"] + [["a", "b"]]), "source symbol 'a' mapped twice in xi"),
        (dict(hom, phi=[["9", "1"]] + hom["phi"]), "unknown source state '9' in phi"),
        (dict(hom, phi=[["1", "9"]] + hom["phi"][1:]), "unknown target state '9' in phi"),
        (dict(hom, xi=[["z", "a"]] + hom["xi"]), "unknown source symbol 'z' in xi"),
        (dict(hom, xi=[["a", "z"], ["b", "b"]]), "unknown target symbol 'z' in xi"),
        (dict(hom, phi=hom["phi"][:2]), "phi must cover every source state"),
        (dict(hom, xi=hom["xi"][:1]), "xi must cover every source symbol"),
    ]
    for doc, message in bad_hom:
        with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
            parse_witness(json.dumps(doc), sa3, sa2)


def test_tree_report_complete(five_pr):
    tree = krohn_rhodes_decompose(five_pr)
    report = tree_report(tree, sim_len=5)
    assert report["format_version"] == 1
    assert report["complete"] is True
    assert report["witnesses_verified"] is True
    assert report["simulation_ok"] is True
    assert report["covered_states"] == 5
    assert report["composite_states"] == 40
    assert report["leaves"] == [
        {"description": "simple grouplike: order 5, abelian", "count": 1},
        {"description": "two-state reset", "count": 3},
    ]
    assert report["root"]["type"] == "cascade"
    assert report["root"]["states"] == 40

    text = render_tree_text(report)
    first = text.splitlines()[0]
    assert first == (
        "decomposition of a 5-state automaton into a 40-state cascade: "
        "complete, witnesses verified"
    )
    assert "simulation to length 5: ok" in text
    assert "  1 x simple grouplike: order 5, abelian" in text
    assert "  3 x two-state reset" in text
    assert "leaf simple-grouplike [5 states, group order 5] witness ok" in text


def test_tree_report_incomplete(five_state):
    tree = krohn_rhodes_decompose(five_state, Caps(product_states=200))
    report = tree_report(tree, sim_len=4)
    assert report["complete"] is False
    text = render_tree_text(report)
    assert "INCOMPLETE" in text
    assert "exceeds the cap of 200" in text


def _break(w):
    """w with every xi image moved to the next upper symbol, unchecked."""
    xi = [(x + 1) % w.upper.n_symbols for x in w.xi]
    return CoveringWitness(w.upper, w.lower, w.phi, xi, check=False)


def _sa3_report(sim_len, root_failure=None, leaf_failure=None):
    """The report of the sa3 tree with the given witness failures at its root
    and at its last leaf, in the report's key order."""

    def status(failure):
        if failure is None:
            return {"witness_verified": True}
        return {"witness_verified": False, "witness_failure": failure}

    def leaf(symbols, failure=None):
        node = {"states": 2, "symbols": symbols, **status(failure)}
        return {**node, "type": "leaf", "kind": "two-state-reset"}

    direct = {"states": 4, "symbols": 2, **status(None), "type": "direct"}
    root = {"states": 8, "symbols": 2, **status(root_failure), "type": "cascade"}
    return {
        "format_version": 1,
        "complete": True,
        "witnesses_verified": root_failure is None and leaf_failure is None,
        "simulation_length": sim_len,
        "covered_states": 3,
        "composite_states": 8,
        "leaves": [{"description": "two-state reset", "count": 3}],
        "root": {
            **root,
            "left": {**direct, "left": leaf(2), "right": leaf(2)},
            "right": leaf(6, leaf_failure),
        },
    }


SA3_ROOT_FAILURE = (
    "covering law fails at state (q0,{(2,{2,3}),(1,{1,3}),(1,{1,2})}) under symbol a"
)
SA3_LEAF_FAILURE = (
    "covering law fails at state {(3,{2,3}),(3,{1,3}),(2,{1,2})} "
    "under symbol ({(2,{2,3}),(3,{2,3})},a)"
)
SA3_TREE_TEXT = (
    "tree:\n"
    "  cascade [8 states, 2 inputs] witness %s\n"
    "    direct [4 states, 2 inputs] witness ok\n"
    "      leaf two-state-reset [2 states] witness ok\n"
    "      leaf two-state-reset [2 states] witness ok\n"
    "    leaf two-state-reset [2 states] witness %s\n"
)


@pytest.mark.parametrize("where", ["root", "leaf"])
def test_tree_report_with_a_broken_witness(sa3, where):
    # no simulation_ok key: the simulation only runs once every witness verifies
    tree = krohn_rhodes_decompose(sa3)
    if where == "root":
        bad = dataclasses.replace(tree, witness=_break(tree.witness))
        expected = _sa3_report(4, root_failure=SA3_ROOT_FAILURE)
        statuses = ("FAILED (%s)" % SA3_ROOT_FAILURE, "ok")
    else:
        right = dataclasses.replace(tree.right, witness=_break(tree.right.witness))
        bad = dataclasses.replace(tree, right=right)
        expected = _sa3_report(4, leaf_failure=SA3_LEAF_FAILURE)
        statuses = ("ok", "FAILED (%s)" % SA3_LEAF_FAILURE)
    report = tree_report(bad, sim_len=4)
    assert json.dumps(report, indent=2) == json.dumps(expected, indent=2)
    assert render_tree_text(report) == (
        "decomposition of a 3-state automaton into a 8-state cascade: "
        "complete, witnesses NOT verified\n"
        "leaves:\n"
        "  3 x two-state reset\n" + SA3_TREE_TEXT % statuses
    )


def test_tree_report_without_simulation(sa3):
    report = tree_report(krohn_rhodes_decompose(sa3), sim_len=0)
    assert json.dumps(report, indent=2) == json.dumps(_sa3_report(0), indent=2)
    assert render_tree_text(report) == (
        "decomposition of a 3-state automaton into a 8-state cascade: "
        "complete, witnesses verified\n"
        "leaves:\n"
        "  3 x two-state reset\n" + SA3_TREE_TEXT % ("ok", "ok")
    )


def test_export_dot(sa3):
    assert export_dot(sa3) == (
        "digraph semiautomaton {\n"
        "  rankdir=LR;\n"
        '  "1";\n'
        '  "2";\n'
        '  "3";\n'
        '  "1" -> "1" [label="a"];\n'
        '  "1" -> "2" [label="b"];\n'
        '  "2" -> "1" [label="a"];\n'
        '  "2" -> "2" [label="b"];\n'
        '  "3" -> "1" [label="a"];\n'
        '  "3" -> "3" [label="b"];\n'
        "}\n"
    )


def test_export_dot_merges_and_escapes():
    A = Semiautomaton(['s"0', "s1"], ["a", "b"], [[1, 1], [0, 0]])
    out = export_dot(A)
    assert '  "s\\"0" -> "s1" [label="a,b"];\n' in out
    assert '  "s1" -> "s\\"0" [label="a,b"];\n' in out


@pytest.fixture
def docs(tmp_path, five_pr, sa3, sa2):
    paths = {}
    for name, A in (("five_pr", five_pr), ("sa3", sa3), ("sa2", sa2)):
        p = tmp_path / ("%s.json" % name)
        p.write_text(emit_automaton(A), encoding="utf-8")
        paths[name] = str(p)
    w = CoveringWitness(sa3, sa2, [0, 1, None], [0, 1])
    p = tmp_path / "witness.json"
    p.write_text(emit_witness(w), encoding="utf-8")
    paths["witness"] = str(p)
    bad = json.loads(emit_witness(w))
    bad["xi"] = [["a", "b"], ["b", "a"]]
    p = tmp_path / "badwitness.json"
    p.write_text(json.dumps(bad), encoding="utf-8")
    paths["badwitness"] = str(p)
    return paths


def test_cli_decompose(docs, tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    code = main(["decompose", docs["five_pr"], "--out", out_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "complete, witnesses verified" in out
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["complete"] is True
    assert report["composite_states"] == 40


def test_cli_decompose_deterministic(docs, capsys):
    assert main(["decompose", docs["five_pr"]]) == 0
    first = capsys.readouterr().out
    assert main(["decompose", docs["five_pr"]]) == 0
    assert capsys.readouterr().out == first


def test_cli_decompose_cap_exit(docs, capsys):
    code = main(["decompose", docs["five_pr"], "--cap-states", "8"])
    out = capsys.readouterr().out
    assert code == 3
    assert "INCOMPLETE" in out


DECOMPOSE_HELP = """\
usage: krcascade decompose [-h] [--cap-group CAP_GROUP]
                           [--cap-states CAP_STATES] [--verify-len VERIFY_LEN]
                           [--out OUT]
                           file

positional arguments:
  file                  automaton document (JSON)

options:
  -h, --help            show this help message and exit
  --cap-group CAP_GROUP
                        largest permutation group order to decompose (default
                        24)
  --cap-states CAP_STATES
                        largest intermediate product state count (default
                        500000)
  --verify-len VERIFY_LEN
                        simulate the root witness on all words up to this
                        length (default 6)
  --out OUT             write the machine-readable report to this file
"""


def test_cli_decompose_help(monkeypatch, capsys):
    # the cap defaults are read from Caps, and the help text names them
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == DECOMPOSE_HELP
    args = build_parser().parse_args(["decompose", "x.json"])
    assert (args.cap_group, args.cap_states) == (Caps.group_order, Caps.product_states)


def test_cli_decompose_parse_error(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{broken", encoding="utf-8")
    code = main(["decompose", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_cli_missing_file(tmp_path, capsys):
    code = main(["decompose", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 4
    assert "i/o error" in err


@pytest.mark.parametrize("argv, reason", [
    (["--cap-group", "-3"], "cap group_order of -3 is negative"),
    (["--cap-states", "-1"], "cap product_states of -1 is negative"),
    (["--verify-len", "-2"], "--verify-len of -2 is negative"),
])
def test_cli_decompose_rejects_a_negative_bound(docs, capsys, argv, reason):
    assert main(["decompose", docs["five_pr"]] + argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "invalid input: %s\n" % reason)


def test_cli_verify_rejects_a_negative_length(docs, capsys):
    assert main(["verify", docs["sa3"], docs["sa2"], docs["witness"], "--len", "-4"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "invalid input: --len of -4 is negative\n")


def test_cli_verify(docs, capsys):
    code = main(["verify", docs["sa3"], docs["sa2"], docs["witness"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "covering verified (law and simulation to length 6)"

    code = main(["verify", docs["sa3"], docs["sa2"], docs["badwitness"]])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("covering FAILED")


def test_cli_verify_hom(tmp_path, capsys):
    source = Semiautomaton(["1", "2", "3"], ["a"], [[2], [2], [2]])
    target = Semiautomaton(["1", "2"], ["a"], [[1], [1]])
    sp = tmp_path / "source.json"
    sp.write_text(emit_automaton(source), encoding="utf-8")
    tp = tmp_path / "target.json"
    tp.write_text(emit_automaton(target), encoding="utf-8")

    wp = tmp_path / "hom.json"
    wp.write_text(emit_witness(HomImageWitness(source, target, [0, 0, 1], [0])), encoding="utf-8")
    assert main(["verify", str(sp), str(tp), str(wp)]) == 0
    assert capsys.readouterr().out.strip() == "hom-image verified"

    bad = {
        "format_version": 1,
        "kind": "hom-image",
        "phi": [["1", "2"], ["2", "2"], ["3", "1"]],
        "xi": [["a", "a"]],
    }
    wp.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["verify", str(sp), str(tp), str(wp)]) == 1
    assert capsys.readouterr().out.startswith("hom-image FAILED")


def test_cli_monoid(docs, capsys):
    code = main(["monoid", docs["sa3"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "transition monoid of 3-state automaton: order 4" in out
    lines = out.splitlines()
    assert sum("(permutation)" in ln for ln in lines) == 1
    assert sum("(reset)" in ln for ln in lines) == 2
    assert sum("(other)" in ln for ln in lines) == 1
    assert "table (row then column):" in out


def test_cli_monoid_cap(tmp_path, capsys):
    # a transposition and an 8-cycle generate far more than the closure cap
    big = Semiautomaton.from_columns(
        [str(i) for i in range(8)],
        ["t", "c"],
        [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]],
    )
    p = tmp_path / "big.json"
    p.write_text(emit_automaton(big), encoding="utf-8")
    code = main(["monoid", str(p)])
    err = capsys.readouterr().err
    assert code == 3
    assert "resource cap exceeded" in err


def test_cli_export_dot(docs, capsys, sa3):
    code = main(["export-dot", docs["sa3"]])
    out = capsys.readouterr().out
    assert code == 0
    assert out == export_dot(sa3)


# The closure labels the word a·bb with the same string as the symbol a·bb.
CLASHING_WORD_DOC = (
    '{"format_version":1,"states":["0","1","2"],"alphabet":["a","bb","a·bb"],'
    '"transitions":{"a":["0","2","1"],"bb":["1","0","2"],"a·bb":["2","1","0"]}}'
)


def test_decompose_with_clashing_word_labels(tmp_path, capsys):
    tree = krohn_rhodes_decompose(parse_automaton(CLASHING_WORD_DOC))
    ok, _ = verify_tree(tree, sim_len=6)
    assert ok
    p = tmp_path / "clash.json"
    p.write_text(CLASHING_WORD_DOC, encoding="utf-8")
    assert main(["decompose", str(p)]) == 0
    assert "complete, witnesses verified" in capsys.readouterr().out
