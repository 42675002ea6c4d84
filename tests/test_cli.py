import json
import os
import subprocess
import sys
import time

import pytest

import orbikt
from orbikt.cli import main

D4_LADDER = """\
1: (0, 0) (1, 0) (2, 0) (3, 0) (4, 0) (5, 0) (6, 0)
2: (1, 1) (3, 1) (4, 1) (0, 3) (5, 3) (2, 3)
3: (0, 1) (0, 2) (0, 4) (5, 1) (5, 2) (5, 4) (2, 1) (2, 2)
"""


COMMANDS = ["group", "complex", "orbits", "fixed", "quotient", "betti",
            "euler", "fiber", "prim", "filtration", "bc", "ktheory",
            "identity-check", "fixture"]


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# stands for the path of the d4_torus_12 bundle in a parametrized argv
D4_TORUS_12 = "<d4-torus-12>"


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def d4_torus_12(inputs, tmp_path_factory):
    """A bundle file of the grid-12 torus under D4 (relabeling seed 13),
    whose prim reply (about 79 KB) is longer than one piece of the json
    writer."""
    path = tmp_path_factory.mktemp("bundle") / "d4-torus-12.txt"
    path.write_text(inputs.torus_bundle_text("d4", 12, 13))
    return str(path)


# -- table output -------------------------------------------------------------------


def test_bc_table_dihedral_torus(capsys):
    code, out, err = run_cli(capsys, ["bc", "--fixture", "d4-torus"])
    assert code == 0 and err == ""
    assert out == (
        "class [E]: K0 rank 1, K1 rank 0\n"
        "class [R2]: K0 rank 3, K1 rank 0\n"
        "class [R]: K0 rank 2, K1 rank 0\n"
        "class [S]: K0 rank 2, K1 rank 0\n"
        "class [SR]: K0 rank 1, K1 rank 0\n"
        "totals: K0 rank 9, K1 rank 0\n"
    )


def test_ktheory_table_rotation_torus(capsys):
    code, out, err = run_cli(capsys, ["ktheory", "--fixture", "z4-torus"])
    assert code == 0
    assert out == (
        "K0 = Z^9, K1 = 0\n"
        "boundary map: provably-zero\n"
        "class [e]: K0 rank 2, K1 rank 0\n"
        "class [g]: K0 rank 2, K1 rank 0\n"
        "class [g2]: K0 rank 3, K1 rank 0\n"
        "class [g3]: K0 rank 2, K1 rank 0\n"
        "totals: K0 rank 9, K1 rank 0\n"
        "flag paper-discrepancy: computed_k0_rank=9, example=ex-sphere, "
        "published_k0_rank=8\n"
    )


def test_ktheory_table_says_when_torsion_is_not_determined():
    """Above dimension 2 ktheory reports torsion as null; the table says
    so instead of printing the free part as the whole group."""
    from orbikt.cli_table import render_table

    def payload(k0, k1, capped):
        return {"per_class": [{"class": 0, "rep": "e", "even": 12, "odd": 0}],
                "totals": {"even": 12, "odd": 0}, "k0": k0, "k1": k1,
                "boundary_status": "torsion-bounded",
                "dimension_capped": capped}

    capped = payload({"rank": 12, "torsion": None},
                     {"rank": 0, "torsion": None}, True)
    assert render_table("ktheory", capped, []).splitlines()[0] == (
        "K0 = Z^12 (torsion not determined), "
        "K1 = 0 (torsion not determined)")
    known = payload({"rank": 1, "torsion": [2]}, {"rank": 0, "torsion": []},
                    False)
    assert render_table("ktheory", known, []).splitlines()[0] == \
        "K0 = Z + Z/2, K1 = 0"


def test_ktheory_table_on_a_solid_tetrahedron(capsys, tmp_path):
    path = tmp_path / "tetrahedron.txt"
    path.write_text("# group\ngroup 1\ntable\n0\n# complex\nvertices 4\n"
                    "simplex 0 1 2 3\n# action\nact 0 : 0 1 2 3\n")
    code, out, err = run_cli(capsys, ["ktheory", "--complex", str(path)])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == (
        "K0 = Z (torsion not determined), K1 = 0 (torsion not determined)")


def test_prim_aggregate_table_circle(capsys):
    code, out, _ = run_cli(capsys,
                           ["prim", "--aggregate", "--fixture", "z2-circle"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nodes: 5"
    assert "relation pairs: 4" in lines
    assert lines[-1] == "ix: [0, 2, 3] (size 3, open)"


def test_fixture_describe_table(capsys):
    code, out, _ = run_cli(capsys, ["fixture", "z2-circle"])
    assert code == 0
    assert "name: z2-circle" in out
    assert "group_order: 2" in out
    assert "admissible: True" in out


def test_group_table_output(capsys):
    code, out, _ = run_cli(capsys, ["group", "--group", "builtin:cyclic:4"])
    assert code == 0
    assert "order: 4" in out
    assert "conductor: 4" in out
    code, out, _ = run_cli(capsys, ["group", "--group", "builtin:dihedral:4"])
    assert code == 0
    assert "order: 8" in out
    assert "abelian: False" in out


def test_euler_pairs_table(capsys):
    code, out, _ = run_cli(capsys, ["euler", "--method", "pairs",
                                    "--fixture", "z4-torus"])
    assert code == 0
    assert "value: 9" in out


# -- json output --------------------------------------------------------------------


def test_json_byte_deterministic(capsys):
    argv = ["ktheory", "--fixture", "z4-torus", "--format", "json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"meta", "payload", "flags"}
    assert doc["meta"]["command"] == "ktheory"
    assert doc["meta"]["fixture"] == "z4-torus"
    assert doc["meta"]["deterministic"] is True
    assert doc["payload"]["k0"] == {"rank": 9, "torsion": []}
    assert doc["payload"]["k1"] == {"rank": 0, "torsion": []}
    assert doc["flags"] == [{
        "type": "paper-discrepancy",
        "example": "ex-sphere",
        "published_k0_rank": 8,
        "computed_k0_rank": 9,
    }]


def test_a_value_the_json_writer_cannot_write_is_an_internal_error(
        capsys, monkeypatch, d4_torus_12):
    """Documents hold str, int, bool, None, lists, tuples and str-keyed
    dicts; any other value (a float) is a bug, reported by one line with
    exit status 1.  The whole document is formatted before any of it is
    written, so a float in the last row of a reply of many pieces leaves
    stdout empty."""
    from orbikt import InternalInconsistency, cli, cli_crossed

    with pytest.raises(InternalInconsistency,
                       match="^no json writer for a float value$"):
        cli.report_json({}, {"chi": 0.5}, [])
    message = ("orbikt: InternalInconsistency: "
               "no json writer for a float value\n")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_meta", lambda inputs, args: {"ratio": 0.5})
        code, out, err = run_cli(capsys, [
            "group", "--group", "builtin:cyclic:4", "--format", "json"])
    assert (code, out, err) == (1, "", message)

    def prim_with_a_float_last(inputs, args):
        payload, flags = prim(inputs, args)
        assert len(payload["relation"]) > cli._BATCH_ROWS
        payload["relation"].append([0, 0.5])
        return payload, flags

    prim = cli_crossed.cmd_prim
    monkeypatch.setattr(cli_crossed, "cmd_prim", prim_with_a_float_last)
    code, out, err = run_cli(capsys, ["prim", "--complex", d4_torus_12,
                                      "--format", "json"])
    assert (code, out, err) == (1, "", message)


def _json_pieces_of(monkeypatch, capsys, argv):
    """Run argv; return the arguments json_pieces was given, the pieces it
    made, and what the call printed."""
    from orbikt import cli

    calls = []
    json_pieces = cli.json_pieces

    def recording(*args):
        pieces = json_pieces(*args)
        calls.append((args, pieces))
        return pieces

    monkeypatch.setattr(cli, "json_pieces", recording)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    [(args, pieces)] = calls
    return args, pieces, out


def test_a_long_reply_is_written_in_bounded_pieces(monkeypatch, capsys,
                                                   d4_torus_12):
    """The grid-12 D4 torus: prim's nodes and relation each span more
    than one batch of rows, and the reply more than one piece.  No piece
    is longer than the writer's bound, the pieces join to the text
    report_json and json.dumps write, and making them never holds a second
    copy of the document."""
    import tracemalloc

    from orbikt import cli

    (meta, payload, flags), pieces, out = _json_pieces_of(
        monkeypatch, capsys, ["prim", "--complex", d4_torus_12,
                              "--format", "json"])
    assert min(len(payload["nodes"]), len(payload["relation"])) \
        > cli._BATCH_ROWS
    assert len(pieces) > 1
    assert max(map(len, pieces)) <= cli.PIECE_CHARS
    text = "".join(pieces)
    assert out == text + "\n"
    assert text == cli.report_json(meta, payload, flags)
    assert text == json.dumps({"meta": meta, "payload": payload,
                               "flags": flags}, sort_keys=True, indent=2)
    tracemalloc.start()
    try:
        cli.json_pieces(meta, payload, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text)


@pytest.mark.parametrize("name, argv", [
    ("prim_d4-torus.json", ["--fixture", "d4-torus"]),
    ("prim_d4-torus_aggregate.json",
     ["--fixture", "d4-torus", "--aggregate"]),
    ("prim_d4-torus-6-seed3.json",
     ["--complex", os.path.join(GOLDEN_DIR, "d4-torus-6-seed3.txt")]),
])
def test_json_pieces_join_to_the_golden_prim_replies(monkeypatch, capsys,
                                                     name, argv):
    from orbikt import cli

    args, pieces, _ = _json_pieces_of(
        monkeypatch, capsys, ["prim", *argv, "--format", "json"])
    assert max(map(len, pieces)) <= cli.PIECE_CHARS
    with open(os.path.join(GOLDEN_DIR, name), encoding="ascii") as golden:
        assert "".join(pieces) + "\n" == golden.read()
    assert "".join(pieces) == cli.report_json(*args)


def test_bc_json_flip_torus(capsys):
    code, out, _ = run_cli(capsys, ["bc", "--fixture", "z2-flip-torus",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["totals"] == {"even": 6, "odd": 0}
    assert doc["meta"]["group_order"] == 2
    assert doc["meta"]["f_vector"] == [32, 96, 64]
    assert doc["flags"] == []


def test_fiber_json_with_builtin_group(capsys):
    code, out, _ = run_cli(capsys, ["fiber", "S", "--group",
                                    "builtin:dihedral:4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["stabilizer"] == ["E", "S"]
    assert doc["payload"]["index"] == 4
    assert doc["payload"]["blocks"] == [
        {"irrep": 0, "dimension": 4, "multiplicity": 1},
        {"irrep": 1, "dimension": 4, "multiplicity": 1},
    ]


def test_fiber_trivial_stabilizer(capsys):
    code, out, _ = run_cli(capsys, ["fiber", "--group", "builtin:dihedral:4",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["blocks"] == [
        {"irrep": 0, "dimension": 8, "multiplicity": 1}]


def test_fixed_json(capsys):
    code, out, _ = run_cli(capsys, ["fixed", "R2", "--fixture", "d4-torus",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["elements"] == ["R2"]
    assert doc["payload"]["f_vector"] == [4]
    assert doc["payload"]["betti"] == [4]
    assert doc["payload"]["vertex_embedding"] == [0, 2, 8, 10]


def test_euler_quotient_check_json(capsys):
    code, out, _ = run_cli(capsys, ["euler", "--method", "quotient-check",
                                    "--fixture", "d4-torus",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"] == {"method": "quotient-check",
                              "quotient_euler": 1, "class_average": "1",
                              "equal": True, "integral": True}


def test_identity_check_json(capsys):
    code, out, _ = run_cli(capsys, ["identity-check", "--fixture", "z4-torus",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"] == {"vertex_count_sum": 7, "euler_difference": 7,
                              "equal": True}


def test_orbits_json(capsys):
    code, out, _ = run_cli(capsys, ["orbits", "--fixture", "z2-circle",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["orbit_count"] == 9


def test_quotient_refuses_no_subdivide(capsys):
    """Two subdivisions always make X/G simplicial, so there is nothing to
    forbid."""
    code, out, err = run_cli(capsys, ["quotient", "--fixture", "z4-torus",
                                      "--no-subdivide"])
    assert code == 1 and out == ""
    assert err == ("orbikt: ParseError: unrecognized arguments: "
                   "--no-subdivide\n")


# -- filtration command ---------------------------------------------------------------


def test_filtration_command_valid(capsys, tmp_path):
    path = tmp_path / "ladder.txt"
    path.write_text(D4_LADDER)
    code, out, _ = run_cli(capsys, ["filtration", str(path), "--fixture",
                                    "d4-torus", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["valid"] is True
    assert doc["payload"]["node_total"] == 21
    assert [s["count"] for s in doc["payload"]["steps"]] == [7, 6, 8]
    assert [s["cumulative"] for s in doc["payload"]["steps"]] == [7, 13, 21]


def test_filtration_command_rejects_non_open(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1: (0, 4)\n")
    code, _, err = run_cli(capsys, ["filtration", str(path),
                                    "--fixture", "d4-torus"])
    assert code == 2
    assert "NotOpen" in err


# -- bundle export / import -----------------------------------------------------------


def test_fixture_emit_round_trips_through_bc(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["fixture", "z2-circle", "--emit"])
    assert code == 0
    assert out.startswith("# group")
    path = tmp_path / "bundle.txt"
    path.write_text(out)
    code, out, _ = run_cli(capsys, ["bc", "--complex", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "totals: K0 rank 3, K1 rank 0"


@pytest.mark.parametrize("name", ["z2-circle", "d4-torus"])
def test_fixture_emit_json_is_one_document(capsys, name):
    """With --format json the bundle goes into the payload of the one
    meta/payload/flags document; the table form is the bundle itself."""
    _, bundle, _ = run_cli(capsys, ["fixture", name, "--emit"])
    code, out, err = run_cli(capsys, ["fixture", name, "--emit",
                                      "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert sorted(doc) == ["flags", "meta", "payload"]
    assert doc["meta"]["fixture"] == name and doc["flags"] == []
    assert doc["payload"] == {"name": name, "bundle": bundle}
    gx = orbikt.parse_bundle_text(doc["payload"]["bundle"])
    assert gx.vertex_action == orbikt.fixture(name).vertex_action


# -- exit codes -----------------------------------------------------------------------


def test_refusals_exit_2(capsys):
    code, _, err = run_cli(capsys, ["ktheory", "--fixture", "d4-torus"])
    assert code == 2 and "NotIsolated" in err
    code, _, err = run_cli(capsys, ["identity-check", "--fixture",
                                    "d4-torus"])
    assert code == 2 and "NotApplicable" in err
    code, _, err = run_cli(capsys, ["euler", "--method", "isolated",
                                    "--fixture", "d4-torus"])
    assert code == 2 and "NotIsolated" in err


def test_irreps_that_swap_around_a_stratum_are_refused(capsys, tmp_path,
                                                       s3_circle):
    from orbikt.formats import serialize_bundle

    bundle = tmp_path / "s3-circle.txt"
    bundle.write_text(serialize_bundle(s3_circle))
    steps = tmp_path / "steps.txt"
    steps.write_text("1: (0, 0)\n")
    for argv in (["prim", "--aggregate"], ["filtration", str(steps)]):
        code, out, err = run_cli(capsys, argv + ["--complex", str(bundle)])
        assert (code, out) == (2, ""), argv
        assert err == ("orbikt: NonConstantStabilizer: stratum 0 joins nodes "
                       "(0, 1) and (0, 2) of one orbit\n"), argv


@pytest.mark.parametrize("command", ["orbits", "bc", "ktheory",
                                     "identity-check"])
def test_inadmissible_action_is_refused(capsys, tmp_path, command):
    """The reflection of an interval keeps its edge but swaps its
    endpoints; the refusal names that element and edge.  The localization
    routes check nothing up front: their first orbit pass or fixed
    subcomplex refuses."""
    path = tmp_path / "interval.txt"
    path.write_text("group 2\ntable\n0 1\n1 0\n"
                    "vertices 2\nsimplex 0 1\nact 1 : 1 0\n")
    code, out, err = run_cli(capsys, [command, "--complex", str(path)])
    assert code == 2 and out == ""
    assert err == ("orbikt: NotAdmissible: element 1 permutes the vertices "
                   "of invariant simplex (0, 1)\n")


@pytest.mark.parametrize("flag, kind", [
    (["--fixture", "d4-torus"], "ParseError"),
    (["--group", "builtin:cyclic:3"], "ParseError"),
    (["--complex", "/nonexistent"], "ParseError"),
    (["--max-order", "2"], "BoundExceeded"),
], ids=["fixture", "group", "complex", "max-order"])
def test_fixture_command_checks_the_input_flags(capsys, flag, kind):
    """`fixture NAME` resolves its inputs as every other command does."""
    code, out, err = run_cli(capsys, ["fixture", "z4-torus"] + flag)
    assert code == 1 and out == ""
    assert err.startswith("orbikt: %s: " % kind)
    assert err.count("\n") == 1


def _cycle_text(points):
    """One generator line: the cycle 0 -> 1 -> ... -> points - 1 -> 0."""
    return " ".join(map(str, range(1, points))) + " 0\n"


@pytest.fixture
def no_group_built(monkeypatch):
    """Make building a group from a parsed file fail the test."""
    import orbikt.formats as formats

    def refuse(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(formats, "group_from_permutations", refuse)
    monkeypatch.setattr(formats, "FiniteGroup", refuse)


@pytest.mark.parametrize("text", [
    "group 20000\nperm 20000\n" + _cycle_text(20000),
    "group 8\ntable\n" + "".join(
        " ".join(str((a + b) % 8) for b in range(8)) + "\n"
        for a in range(8)),
], ids=["perm", "table"])
def test_a_group_file_past_max_order_is_refused_from_its_header(
        capsys, tmp_path, no_group_built, text):
    path = tmp_path / "group.txt"
    path.write_text(text)
    order = text.split()[1]
    code, out, err = run_cli(capsys, ["group", "--group", str(path),
                                      "--max-order", "4"])
    assert code == 1 and out == ""
    assert err == ("orbikt: BoundExceeded: group order %s exceeds "
                   "--max-order 4\n" % order)


def test_an_embedded_group_past_max_order_is_refused_from_its_header(
        capsys, tmp_path, no_group_built):
    path = tmp_path / "bundle.txt"
    path.write_text("group 20000\nperm 20000\n" + _cycle_text(20000)
                    + "vertices 2\nsimplex 0 1\n")
    code, out, err = run_cli(capsys, ["orbits", "--complex", str(path),
                                      "--max-order", "4"])
    assert code == 1 and out == ""
    assert err == ("orbikt: BoundExceeded: group order 20000 exceeds "
                   "--max-order 4\n")


def test_a_bundle_is_refused_by_its_group_header_before_its_complex(
        capsys, tmp_path, monkeypatch):
    """The group section of a bundle, and its order, is checked before the
    complex section is parsed; a bundle bad in both reports its group
    error."""
    import orbikt.cli as cli

    parsed = []
    original = cli.parse_complex_text
    monkeypatch.setattr(cli, "parse_complex_text",
                        lambda text: parsed.append(text) or original(text))
    path = tmp_path / "bundle.txt"
    path.write_text("group 20000\nperm 2\n1 0\n"
                    "vertices 3\nsimplex 0 1 2\nact 1 : 1 0 2\n")
    code, out, err = run_cli(capsys, ["orbits", "--complex", str(path)])
    assert code == 1 and out == ""
    assert err == ("orbikt: BoundExceeded: group order 20000 exceeds "
                   "--max-order 512\n")
    assert parsed == []
    path.write_text("group 2\ntable\n0 1\n1 0 1\nvertices 3\nsimplex 1 x\n")
    code, out, err = run_cli(capsys, ["orbits", "--complex", str(path)])
    assert code == 1 and out == ""
    assert err == ("orbikt: ParseError: line 4: expected 2 entries in table "
                   "row\n")


@pytest.mark.parametrize("header, generators", [
    (4, _cycle_text(600)),
    (6, "1 0 2 3 4 5 6 7\n" + _cycle_text(8)),
], ids=["600-cycle", "s8"])
def test_generators_past_the_header_order_are_refused_while_composed(
        capsys, tmp_path, monkeypatch, header, generators):
    """The header's order bounds the composition walk: it stops at the
    element after that many, whatever the generators span.  Each element
    walked is composed with each generator by one map call."""
    import orbikt.groups as groups

    calls = []

    def counted_map(function, *iterables):
        calls.append(function)
        return map(function, *iterables)

    monkeypatch.setattr(groups, "map", counted_map, raising=False)
    path = tmp_path / "group.txt"
    degree = len(generators.split("\n")[0].split())
    path.write_text("group %d\nperm %d\n%s" % (header, degree, generators))
    code, out, err = run_cli(capsys, ["group", "--group", str(path)])
    assert code == 1 and out == ""
    assert err == ("orbikt: NotAGroup: permutation generators produce more "
                   "than %d elements\n" % header)
    assert len(calls) <= (header + 1) * generators.count("\n")


def test_a_perm_group_file_answers_up_to_max_order(capsys, tmp_path):
    """A cyclic group of order 600 from a group file answers as the builtin
    one does under --max-order 1000; only the identity's name differs."""
    path = tmp_path / "perm600.txt"
    path.write_text("group 600\nperm 600\n" + _cycle_text(600))
    payloads = []
    for group in (str(path), "builtin:cyclic:600"):
        code, out, err = run_cli(capsys, ["fiber", "--group", group,
                                          "--max-order", "1000",
                                          "--format", "json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)["payload"]
        assert len(payload.pop("stabilizer")) == 1
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["index"] == 600


def test_input_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, ["bc", "--fixture", "no-such-fixture"])
    assert code == 1 and "ParseError" in err
    code, _, err = run_cli(capsys, ["bc", "--fixture", "d4-torus",
                                    "--group", "builtin:cyclic:2"])
    assert code == 1 and "cannot be combined" in err
    code, _, err = run_cli(capsys, ["orbits"])
    assert code == 1 and "needs a group action" in err
    code, _, err = run_cli(capsys, ["betti", "--group", "builtin:cyclic:2"])
    assert code == 1 and "needs a complex" in err
    code, _, err = run_cli(capsys, ["group", "--fixture", "d4-torus",
                                    "--max-order", "4"])
    assert code == 1 and "BoundExceeded" in err
    code, _, err = run_cli(capsys, ["fixed", "Q", "--fixture", "z2-circle"])
    assert code == 1 and "NotAGroup" in err
    code, _, err = run_cli(capsys, ["no-such-command"])
    assert code == 1
    code, _, err = run_cli(capsys, [])
    assert code == 1


@pytest.mark.parametrize("spec, head", [
    ("cyclic:x", "cyclic"), ("dihedral:x", "dihedral"),
    ("product:cyclic:2:cyclic:x", "cyclic")])
def test_builtin_spec_errors_name_the_spec(capsys, spec, head):
    code, out, err = run_cli(capsys, ["group", "--group", "builtin:" + spec])
    assert (code, out) == (1, "")
    assert err == ("orbikt: ParseError: builtin spec %r: %s parameter must "
                   "be an integer, got 'x'\n" % (spec, head))


DEEP_SPEC = "product:" * 2000 + ":".join(["trivial"] * 2001)


def test_builtin_spec_of_any_depth_answers(capsys):
    """Nested products are read with a stack, not by recursion, so a spec
    deeper than the interpreter's recursion limit answers."""
    code, out, err = run_cli(capsys, ["group", "--group",
                                      "builtin:" + DEEP_SPEC,
                                      "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["order"] == 1


def test_deep_builtin_spec_cut_short_ends_with_one_line(capsys):
    cut = DEEP_SPEC[:-len(":trivial")]
    code, out, err = run_cli(capsys, ["group", "--group", "builtin:" + cut])
    assert (code, out) == (1, "")
    assert err == ("orbikt: ParseError: a builtin spec of %d characters ends"
                   " mid-expression\n" % len(cut))


@pytest.mark.parametrize("spec, message", [
    ("cyclic:" + "9" * 4301, "a builtin spec of 4308 characters: cyclic "
     "parameter must be an integer, got a token of 4301 characters"),
    ("x" * 5000, "unknown builtin group a token of 5000 characters "
     "(expected trivial, cyclic, dihedral, or product)"),
], ids=["long-parameter", "long-name"])
def test_a_long_builtin_spec_is_named_by_its_length(capsys, spec, message):
    code, out, err = run_cli(capsys, ["group", "--group", "builtin:" + spec])
    assert (code, out) == (1, "")
    assert err == "orbikt: ParseError: %s\n" % message
    assert len(err) < 200


def test_oversized_inputs_are_refused_before_allocation(capsys, tmp_path):
    path = tmp_path / "simplex22.txt"
    path.write_text("vertices 22\nsimplex %s\n"
                    % " ".join(str(v) for v in range(22)))
    for argv in (["complex", "--complex", str(path)],
                 ["group", "--group", "builtin:cyclic:100000"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 5
        assert code == 1 and out == ""
        assert err.startswith("orbikt: BoundExceeded: ")
        assert err.count("\n") == 1


def test_oversized_boundary_matrix_is_refused_before_allocation(capsys,
                                                               tmp_path):
    """A transposition of a 6-simplex has a quotient with f-vector
    (95, 1267, 6153, 14280, 17220, 10440, 2520), whose dense d3 and d4
    would hold 88M and 246M entries."""
    path = tmp_path / "flipped-simplex.txt"
    path.write_text("vertices 7\nsimplex 0 1 2 3 4 5 6\n"
                    "act 1 : 1 0 2 3 4 5 6\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["quotient", "--complex", str(path),
                                      "--group", "builtin:cyclic:2"])
    assert time.perf_counter() - start < 30
    assert code == 1 and out == ""
    assert err == ("orbikt: BoundExceeded: boundary matrix d3 would have"
                   " 6153 x 14280 entries, more than %d\n"
                   % orbikt.homology.MAX_MATRIX_ENTRIES)


def test_group_file_loading(capsys, tmp_path):
    path = tmp_path / "group.txt"
    path.write_text("group 2\ntable\n0 1\n1 0\n")
    code, out, _ = run_cli(capsys, ["group", "--group", str(path),
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["order"] == 2
    code, _, err = run_cli(capsys, ["group", "--group",
                                    str(tmp_path / "missing.txt")])
    assert code == 1 and "cannot read" in err


@pytest.mark.parametrize("argv", [
    ["group", "--group", "{path}"],
    ["complex", "--complex", "{path}"],
    ["filtration", "{path}", "--fixture", "z2-circle"],
], ids=["group", "complex", "filtration"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, argv):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run_cli(capsys, [a.format(path=path) for a in argv])
    assert code == 1 and out == ""
    assert err == ("orbikt: ParseError: cannot read %s: not UTF-8 text\n"
                   % path)


# One directive per line; each bundle has one bad line, in a different section.
BUNDLE = ["group 2", "table", "0 1", "1 0", "vertices 3", "simplex 0 1",
          "simplex 1 2", "act 1 : 1 0 2"]


@pytest.mark.parametrize("lineno, bad, message", [
    (4, "1 0 1", "line 4: expected 2 entries in table row"),
    (7, "simplex 1 x", "line 7: vertex must be an integer, got 'x'"),
    (8, "act 1 : 1 0 x", "line 8: vertex image must be an integer, got 'x'"),
], ids=["group", "complex", "action"])
def test_bundle_errors_name_the_line_of_the_file(capsys, tmp_path, lineno,
                                                 bad, message):
    """Sections are parsed apart, but each error names its line in the
    file, also when the sections interleave."""
    lines = list(BUNDLE)
    lines[lineno - 1] = bad
    for order in (lines, lines[4:7] + lines[:4] + lines[7:]):
        path = tmp_path / "bundle.txt"
        path.write_text("# comment\n\n" + "\n".join(order) + "\n")
        code, out, err = run_cli(capsys, ["orbits", "--complex", str(path)])
        where = order.index(bad) + 3
        assert code == 1 and out == ""
        assert err == "orbikt: ParseError: %s\n" % message.replace(
            "line %d" % lineno, "line %d" % where)


@pytest.mark.parametrize("argv, text, lineno, what", [
    (["prim", "--complex", "{path}"],
     "\n".join(BUNDLE[:-1] + ["act {big} : 1 0 2"]) + "\n", 8,
     "element index"),
    (["filtration", "{path}", "--fixture", "z2-circle"],
     "1: (0, 0)\n2: ({big}, 0)\n", 2, "stratum id"),
], ids=["act-element", "filtration-pair"])
def test_an_index_past_the_int_digit_limit_is_a_parse_error(
        capsys, tmp_path, argv, text, lineno, what):
    """int() refuses a string of more than 4,300 digits with a ValueError;
    an element index or a filtration pair id that long is one ParseError
    line naming its line and the token's length, not a traceback, and not
    an echo of the token."""
    big = "9" * 4301
    path = tmp_path / "input.txt"
    path.write_text(text.format(big=big))
    code, out, err = run_cli(capsys, [a.format(path=path) for a in argv])
    assert code == 1 and out == ""
    assert err == ("orbikt: ParseError: line %d: %s must be an integer, "
                   "got a token of 4301 characters\n" % (lineno, what))


LONG_TOKEN = "x" * 5000


@pytest.mark.parametrize("argv, text, message", [
    (["complex", "--complex", "{path}"],
     "vertices 2\nsimplex 0 1\n{long} 1\n",
     "ParseError: line 3: unrecognized directive a token of 5000 characters"),
    (["group", "--group", "{path}"], "group 2\n{long}\n",
     "ParseError: line 2: expected 'table' or 'perm <k>', got a token of 5000"
     " characters"),
    (["filtration", "{path}", "--fixture", "z2-circle"], "1: (0, 0) {long}\n",
     "ParseError: line 1: unparsable text a token of 5000 characters in"
     " step"),
    (["fixed", "{long}", "--fixture", "z2-circle"], None,
     "NotAGroup: unknown element a token of 5000 characters"),
    (["fiber", "{long}", "--fixture", "z2-circle"], None,
     "NotAGroup: unknown element a token of 5000 characters"),
], ids=["directive", "group-mode", "filtration-text", "fixed-element",
        "fiber-element"])
def test_a_long_token_is_named_by_its_length(capsys, tmp_path, argv, text,
                                             message):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text.format(long=LONG_TOKEN))
    code, out, err = run_cli(capsys, [a.format(path=path, long=LONG_TOKEN)
                                      for a in argv])
    assert (code, out) == (1, "")
    assert err == "orbikt: %s\n" % message
    assert len(err) < 200


def test_a_short_token_is_echoed_whole(capsys):
    code, _, err = run_cli(capsys, ["fixed", "Q", "--fixture", "z2-circle"])
    assert code == 1
    assert err == "orbikt: NotAGroup: unknown element 'Q'\n"


# -- argument parser ------------------------------------------------------------------


def test_commands_are_the_parsers_commands():
    from orbikt.cli import _COMMANDS

    assert list(_COMMANDS) == COMMANDS


def _parse_outcome(capsys, parser, argv):
    """(exit status or error message, stdout, stderr) of parsing argv."""
    try:
        parser.parse_args(argv)
        outcome = "parsed"
    except SystemExit as exc:
        outcome = exc.code
    except orbikt.ParseError as exc:
        outcome = str(exc)
    out, err = capsys.readouterr()
    return outcome, out, err


@pytest.mark.parametrize("argv", [
    *([command, option] for command in COMMANDS
      for option in ("--help", "--bogus")),
    ["--help"], ["bogus"], [],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_command_parser_parses_as_the_full_parser(capsys, argv):
    """The parser built for argv[0] alone gives the same help, errors and
    exit codes as the parser with every command."""
    from orbikt.cli import build_parser

    full = _parse_outcome(capsys, build_parser(), argv)
    assert full[0] != "parsed"
    assert _parse_outcome(capsys, build_parser(argv), argv) == full


# -- compute-once path of ktheory ---------------------------------------------------


def _count_calls(monkeypatch, modules, name, calls):
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


def _traced_ktheory(capsys, monkeypatch, argv):
    """The CLI imports each command's functions when it runs, so patching
    the module that defines a function (and the one that imports it at
    module level) catches every call."""
    import orbikt.complexes as complexes
    import orbikt.ktheory as ktheory

    bc_calls, quotient_calls = [], []
    _count_calls(monkeypatch, (ktheory,), "bc_decomposition", bc_calls)
    _count_calls(monkeypatch, (complexes,), "quotient_complex",
                 quotient_calls)
    code, _out, _err = run_cli(capsys, argv)
    return code, bc_calls, quotient_calls


def test_ktheory_decomposes_once(capsys, monkeypatch):
    code, bc_calls, quotient_calls = _traced_ktheory(
        capsys, monkeypatch, ["ktheory", "--fixture", "z4-torus"])
    assert code == 0
    # one decomposition over the 4 classes of Z4, each row read from orbit
    # cells: the default path builds no simplicial quotient
    assert len(bc_calls) == 1
    assert quotient_calls == []


def test_prim_derives_each_transport_and_matrix_once(capsys, monkeypatch):
    import orbikt.crossed as crossed
    from orbikt import subgroup_table

    calls = {"conjugate_irrep": [], "inclusion_multiplicities": [],
             "multiplicity": []}
    for name, seen in calls.items():
        def recorded(*args, _original=getattr(crossed, name), _seen=seen):
            _seen.append(args)
            return _original(*args)
        monkeypatch.setattr(crossed, name, recorded)
    code, _out, _err = run_cli(capsys, ["prim", "--fixture", "d4-torus",
                                        "--format", "json"])
    assert code == 0
    transports = [(sub.elements, g, sigma_id)
                  for g, sigma_id, sub in calls["conjugate_irrep"]]
    assert len(set(transports)) == len(transports) > 0
    pairs = [(sub.elements, ambient.elements)
             for _group, sub, ambient in calls["inclusion_multiplicities"]]
    assert len(set(pairs)) == len(pairs) > 0
    # every multiplicity is an entry of one of those matrices
    assert len(calls["multiplicity"]) == sum(
        len(subgroup_table(sub).irreps) * len(subgroup_table(ambient).irreps)
        for _group, sub, ambient in calls["inclusion_multiplicities"])


def test_orbit_pass_maps_each_orbit_once(monkeypatch):
    """The action check, admissibility and orbits come from one pass that
    maps the first simplex of each orbit under every element, when the
    G-complex is built: |G| * #orbits images, and none after it."""
    from orbikt import (GSimplicialComplex, complexes, fixture,
                        orbits_and_stabilizers)

    built = fixture("d4-torus")
    calls = []
    original = complexes._images

    def counted(columns, rep):
        images = original(columns, rep)
        calls.extend(images)
        return images

    monkeypatch.setattr(complexes, "_images", counted)
    gx = GSimplicialComplex(built.complex, built.group, built.vertex_action)
    assert len(calls) == gx.group.order * 33 == 264
    assert gx.admissibility_witness() == (True, None)
    od = orbits_and_stabilizers(gx)
    assert len(od) == 33
    assert len(calls) == 264


@pytest.mark.parametrize("command", [
    "bc", "ktheory", "identity-check", "euler --method bc",
    "euler --method isolated", "euler --method quotient-check"])
def test_commands_without_a_quotient_refuse_no_subdivide(capsys, monkeypatch,
                                                         command):
    """They read X/G and X^g/Z(g) from orbit cells, so there is nothing to
    forbid."""
    argv = command.split() + ["--fixture", "z4-torus"]
    code, out, err = run_cli(capsys, argv + ["--no-subdivide"])
    assert code == 1 and out == ""
    assert err == ("orbikt: ParseError: unrecognized arguments: "
                   "--no-subdivide\n")
    code, _bc_calls, quotient_calls = _traced_ktheory(capsys, monkeypatch,
                                                      argv)
    assert code == 0
    assert quotient_calls == []


# -- the program: python -m orbikt.cli ------------------------------------------------


def _program(python, argv, stdout=subprocess.PIPE, **options):
    """Run ``python [python...] -m orbikt.cli argv...`` in a fresh process."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(orbikt.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    options.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *python, "-m", "orbikt.cli", *argv],
        stdout=stdout, env=env, timeout=60, **options)


@pytest.mark.parametrize("argv, code, head", [
    (["ktheory", "--fixture", "d4-torus"], 2, "orbikt: NotIsolated: "),
    (["group", "--group", "builtin:cyclic:x"], 1, "orbikt: ParseError: "),
], ids=["refusal", "input-error"])
def test_program_failures_leave_one_stderr_line(argv, code, head):
    proc = _program([], argv)
    err = proc.stderr.decode()
    assert proc.returncode == code, err
    assert proc.stdout == b""
    assert err.startswith(head) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, code", [
    (["ktheory", "--fixture", "d4-torus"], 2),
    (["group", "--group", "builtin:cyclic:x"], 1),
    (["group", "--group", "builtin:cyclic:2"], 0),
], ids=["refusal", "input-error", "answer"])
def test_program_keeps_its_status_and_output_with_stderr_closed(argv, code):
    """``orbikt ... 2>&-``: the diagnostic line is lost, and the exit status
    and stdout are those of a run with stderr open."""
    proc = _program([], argv, stderr=subprocess.DEVNULL,
                    preexec_fn=lambda: os.close(2))
    assert proc.returncode == code
    assert proc.stdout == _program([], argv).stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
@pytest.mark.parametrize("stderr", ["closed-pipe", "none"])
@pytest.mark.parametrize("argv, code, stdout", [
    (["ktheory", "--fixture", "d4-torus"], 2, "file"),
    (["group", "--group", "builtin:cyclic:x"], 1, "file"),
    # the line that reports a failed stdout cannot be written either
    (["group", "--group", "builtin:cyclic:4", "--format", "json"], 1,
     "/dev/full"),
], ids=["refusal", "input-error", "output-error"])
def test_main_returns_the_status_when_stderr_fails(monkeypatch, tmp_path,
                                                   stderr, argv, code,
                                                   stdout):
    """main() never raises when its diagnostic line cannot be written, and
    never writes that line to stdout."""
    path = tmp_path / "out" if stdout == "file" else stdout
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as closed_pipe, open(path, "w") as out:
        monkeypatch.setattr(sys, "stderr",
                            closed_pipe if stderr == "closed-pipe" else None)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == code
    if stdout == "file":
        assert (tmp_path / "out").read_text() == ""


def test_program_help_exits_0_with_its_text():
    proc = _program([], ["--help"])
    assert proc.returncode == 0 and proc.stderr == b""
    out = proc.stdout.decode()
    assert out.startswith("usage: orbikt") and "identity-check" in out


@pytest.mark.parametrize("argv", [
    ["group", "--fixture", "z2-circle"],
    ["orbits", "--fixture", "z2-circle", "--format", "json"],
    # a reply of many pieces fails while they are written
    ["prim", "--complex", D4_TORUS_12, "--format", "json"],
], ids=["table", "json", "json-pieces"])
@pytest.mark.parametrize("python", [[], ["-u"]],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_with_one_stderr_line(argv, python, d4_torus_12):
    """A reader that closes the pipe (``orbikt ... | head -c 10``) gets exit
    1 and one diagnostic line, not a BrokenPipeError traceback.  Buffered,
    a short reply fails only when flushed; unbuffered, when printed."""
    argv = [d4_torus_12 if arg == D4_TORUS_12 else arg for arg in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _program(python, argv, stdout=write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert err.startswith("orbikt: ") and err.count("\n") == 1, err
    assert "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ["group", "--group", "builtin:cyclic:4", "--format", "json"],
    # a document larger than the output buffer fails while it is printed
    ["group", "--group", "builtin:cyclic:24", "--format", "json"],
    # a reply of many pieces fails while they are written
    ["prim", "--complex", D4_TORUS_12, "--format", "json"],
    ["group", "--fixture", "z2-circle"],
], ids=["json", "json-large", "json-pieces", "table"])
@pytest.mark.parametrize("python", [[], ["-u"]],
                         ids=["buffered", "unbuffered"])
def test_full_device_ends_with_one_stderr_line(argv, python, d4_torus_12):
    """Output to a full device (``orbikt ... > /dev/full``) gets exit 1 and
    one ``orbikt: OSError: ...`` line, not a traceback."""
    argv = [d4_torus_12 if arg == D4_TORUS_12 else arg for arg in argv]
    with open("/dev/full", "wb") as full:
        proc = _program(python, argv, stdout=full)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert err.startswith("orbikt: OSError: ") and err.count("\n") == 1, err
    assert "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
def test_failed_final_flush_is_reported_as_main_reports_it(monkeypatch,
                                                           capsys):
    """Output that main left buffered and that the exit's own flush cannot
    write ends with status 1 and one ``orbikt: OSError: ...`` line."""
    from orbikt import cli

    exits = []

    def fake_exit(code):
        exits.append(code)
        raise SystemExit(code)

    def main_leaving_output_buffered():
        sys.stdout.write("left over")
        return 0

    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        monkeypatch.setattr(cli, "main", main_leaving_output_buffered)
        monkeypatch.setattr(cli.os, "_exit", fake_exit)
        with pytest.raises(SystemExit):
            cli.entry()
    assert exits == [1]
    err = capsys.readouterr().err
    assert err.startswith("orbikt: OSError: ") and err.count("\n") == 1, err
