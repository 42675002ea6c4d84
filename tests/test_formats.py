import time

import pytest

from orbikt import (BadAction, BoundExceeded, NotAGroup, ParseError,
                    circle_complex, cyclic_group, dihedral_group,
                    parse_action_text, parse_builtin_spec, parse_bundle_text,
                    parse_complex_text, parse_filtration_text,
                    parse_group_text, serialize_action, serialize_bundle,
                    serialize_complex, serialize_filtration, serialize_group,
                    split_bundle_text)
from orbikt import complexes
from orbikt.complexes import GSimplicialComplex


# -- group files --------------------------------------------------------------------


def test_group_table_round_trip():
    g = dihedral_group(4)
    h = parse_group_text(serialize_group(g))
    assert h.mult == g.mult
    assert h.order == 8


def test_group_perm_form():
    text = """
group 4
perm 4
1 2 3 0
"""
    g = parse_group_text(text)
    assert g.order == 4
    assert g.is_abelian


def test_group_perm_form_order_mismatch():
    with pytest.raises(NotAGroup, match="order 2, but the header declares 4"):
        parse_group_text("group 4\nperm 4\n1 0 2 3\n")
    # a larger group is refused at the element past the header's order
    with pytest.raises(NotAGroup, match="more than 3 elements"):
        parse_group_text("group 3\nperm 4\n1 2 3 0\n")


def test_a_perm_file_is_expanded_up_to_its_header_or_the_library_cap():
    """max_order bounds the header, and the header the expansion; without
    max_order, GROUP_ORDER_BOUND bounds the expansion too."""
    text = ("group 600\nperm 600\n" + " ".join(map(str, range(1, 600)))
            + " 0\n")
    assert parse_group_text(text, max_order=1000).order == 600
    with pytest.raises(NotAGroup, match="more than 512 elements"):
        parse_group_text(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_group_text, "group 2\ntable\n0 1\n1 y 0x\n",
     "line 4: table entry must be an integer, got 'y'"),
    (parse_group_text, "group 2\nperm 2\n1 z\n",
     "line 3: image must be an integer, got 'z'"),
    (parse_complex_text, "vertices 3\nsimplex 0 a b\n",
     "line 2: vertex must be an integer, got 'a'"),
    (lambda text: parse_action_text(text, cyclic_group(2), circle_complex(3)),
     "\nact 1 : 0 2 q\n", "line 2: vertex image must be an integer, got 'q'"),
], ids=["table", "perm", "complex", "action"])
def test_a_line_of_integers_names_its_first_bad_token(parse, text, message):
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_group_file_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_group_text("# only a comment\n")
    with pytest.raises(ParseError, match="header"):
        parse_group_text("grp 2\ntable\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="2 table rows"):
        parse_group_text("group 2\ntable\n0 1\n")
    with pytest.raises(ParseError, match="entries"):
        parse_group_text("group 2\ntable\n0 1\n1\n")
    with pytest.raises(ParseError, match="integer"):
        parse_group_text("group 2\ntable\n0 x\n1 0\n")


def _act_on_a_point(text):
    return parse_action_text(text, cyclic_group(1), circle_complex(3))


@pytest.mark.parametrize("parse, text, message", [
    (parse_group_text, "group 0\ntable\n",
     "line 1: group order must be positive"),
    (parse_group_text, "# header only\ngroup 2\n",
     "group file ends after the header"),
    (parse_group_text, "group 1\ntable 1\n0\n",
     "line 2: 'table' takes no arguments"),
    (parse_group_text, "group 2\nperm\n1 0\n", "line 2: expected 'perm <k>'"),
    (parse_group_text, "group 1\nperm 0\n",
     "line 2: permutation degree must be positive"),
    (parse_group_text, "group 1\nperm 2\n",
     "'perm' group file lists no generators"),
    (parse_group_text, "group 2\nperm 2\n1 0 2\n",
     "line 3: expected 2 images"),
    (parse_group_text, "group 1\nlist\n0\n",
     "line 2: expected 'table' or 'perm <k>', got 'list'"),
    (_act_on_a_point, "# no lines\n\n", "empty action file"),
    (parse_bundle_text, "group 1\ntable\n0\nvertices 1\nsimplex 0\n",
     "bundle document lacks action lines"),
], ids=["order", "header-only", "table-args", "perm-args", "perm-degree",
        "perm-empty", "perm-images", "mode", "action-empty",
        "bundle-no-action"])
def test_malformed_input_messages(parse, text, message):
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_builtin_specs():
    assert parse_builtin_spec("trivial").order == 1
    assert parse_builtin_spec("cyclic:6").order == 6
    assert parse_builtin_spec("dihedral:4").order == 8
    p = parse_builtin_spec("product:cyclic:2:cyclic:2")
    assert p.order == 4 and p.is_abelian and p.exponent() == 2
    nested = parse_builtin_spec("product:product:cyclic:2:cyclic:2:cyclic:3")
    assert nested.order == 12


def test_builtin_spec_order_is_bounded_before_construction():
    assert parse_builtin_spec("dihedral:256", max_order=512).order == 512
    for spec in ("cyclic:513", "dihedral:257", "product:cyclic:30:cyclic:30",
                 "product:cyclic:2:product:cyclic:16:dihedral:9"):
        with pytest.raises(BoundExceeded):
            parse_builtin_spec(spec, max_order=512)


def test_group_file_order_is_bounded_from_its_header():
    """The header is checked before any row is read: these rows are not
    even a group."""
    assert parse_group_text("group 2\ntable\n0 1\n1 0\n",
                            max_order=2).order == 2
    for text in ("group 3\ntable\n", "group 3\nperm 2\n1 0\n"):
        with pytest.raises(BoundExceeded) as caught:
            parse_group_text(text, max_order=2)
        assert str(caught.value) == "group order 3 exceeds --max-order 2"


@pytest.mark.parametrize("length, shown", [
    (40, "'%s'" % ("x" * 40)), (41, "a token of 41 characters")])
def test_a_long_bad_token_is_named_by_its_length(length, shown):
    with pytest.raises(ParseError) as caught:
        parse_complex_text("vertices 3\nsimplex 0 %s\n" % ("x" * length))
    assert str(caught.value) == ("line 2: vertex must be an integer, got %s"
                                 % shown)


def test_builtin_spec_errors():
    with pytest.raises(ParseError, match="unknown builtin"):
        parse_builtin_spec("symmetric:4")
    with pytest.raises(ParseError, match="needs a parameter"):
        parse_builtin_spec("cyclic")
    with pytest.raises(ParseError, match="trailing"):
        parse_builtin_spec("cyclic:4:7")
    with pytest.raises(ParseError, match="mid-expression"):
        parse_builtin_spec("product:cyclic:2")
    with pytest.raises(ParseError, match="empty"):
        parse_builtin_spec(":")


# -- complex files ------------------------------------------------------------------


def test_complex_round_trip():
    x = circle_complex(8)
    y = parse_complex_text(serialize_complex(x))
    assert y.vertex_count == x.vertex_count
    assert sorted(y.maximal_simplices()) == sorted(x.maximal_simplices())


def test_complex_file_errors():
    with pytest.raises(ParseError, match="empty complex"):
        parse_complex_text("\n\n")
    with pytest.raises(ParseError, match="vertices"):
        parse_complex_text("points 3\nsimplex 0 1\n")
    with pytest.raises(ParseError, match="simplex"):
        parse_complex_text("vertices 3\nface 0 1\n")
    with pytest.raises(ParseError, match="empty simplex"):
        parse_complex_text("vertices 3\nsimplex\n")
    with pytest.raises(ParseError, match="line 3: repeated vertex 0 in"):
        parse_complex_text("vertices 2\nsimplex 0 1\nsimplex 0 0\n")


def test_complex_comments_and_blanks_ignored():
    text = "# a triangle\nvertices 3\n\nsimplex 0 1 2\n# end\n"
    x = parse_complex_text(text)
    assert x.f_vector() == (3, 3, 1)


# -- action files -------------------------------------------------------------------


def test_action_round_trip(z2_circle):
    text = serialize_action(z2_circle)
    gx = parse_action_text(text, z2_circle.group, z2_circle.complex)
    assert gx.vertex_action == z2_circle.vertex_action


def test_action_extends_from_generators(d4_torus):
    lines = []
    for g in (1, 4):  # a rotation and a reflection generate the group
        images = " ".join(str(v) for v in d4_torus.vertex_action[g])
        lines.append("act %d : %s" % (g, images))
    gx = parse_action_text("\n".join(lines) + "\n",
                           d4_torus.group, d4_torus.complex)
    assert gx.vertex_action == d4_torus.vertex_action


def test_action_closure_is_linear_in_the_group_order():
    """One act line for the generator of Z/512 on a 512-cycle (admitted by
    the default --max-order) is extended by |G| compositions, not by
    sweeps over every pair of elements."""
    g = cyclic_group(512)
    x = circle_complex(512)
    text = "act 1 : %s\n" % " ".join(str((v + 1) % 512) for v in range(512))
    start = time.perf_counter()
    gx = parse_action_text(text, g, x)
    assert time.perf_counter() - start < 3
    assert gx.vertex_action[5] == tuple((v + 5) % 512 for v in range(512))


def test_emitted_cyclic_bundle_parses_again_quickly():
    """serialize_action lists all 511 non-identity elements of Z/512; the
    closure runs over element 1 alone, which generates the group, and the
    other 510 lines are compared with it."""
    group = cyclic_group(512)
    action = [tuple((v + k) % 512 for v in range(512)) for k in range(512)]
    text = serialize_bundle(GSimplicialComplex(circle_complex(512), group,
                                               action, check=False))
    start = time.perf_counter()
    gx = parse_bundle_text(text)
    assert time.perf_counter() - start < 2
    assert gx.vertex_action == tuple(action)


def test_a_parsed_bundle_proves_its_action_once(monkeypatch):
    """The parser only reads act lines: the parsed and the direct G-complex
    each prove their action once, in one closure walk of
    GSimplicialComplex._validate and one orbit pass, which checks that it
    keeps the complex."""
    group = cyclic_group(12)
    action = [tuple((v + k) % 12 for v in range(12)) for k in range(12)]
    text = serialize_bundle(GSimplicialComplex(circle_complex(12), group,
                                               action, check=False))
    calls = []
    for owner, name in ((GSimplicialComplex, "_validate"),
                        (complexes, "_span"),
                        (complexes, "_orbit_pass")):
        original = getattr(owner, name)

        def spy(*args, name=name, original=original):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, spy)
    assert parse_bundle_text(text).vertex_action == tuple(action)
    assert calls == ["_validate", "_span", "_orbit_pass"]
    calls.clear()
    GSimplicialComplex(circle_complex(12), group, action)
    assert calls == ["_validate", "_span", "_orbit_pass"]


def test_a_line_outside_the_kept_generators_is_still_checked(d4_torus):
    """R is kept and generates R2 and R3, S is kept, and SR lies in the
    group they generate: two images swapped on its line are caught when
    the closure reaches SR."""
    lines = serialize_bundle(d4_torus).splitlines()
    index = next(i for i, line in enumerate(lines)
                 if line.startswith("act 5 :"))
    head, images = lines[index].split(":")
    images = images.split()
    images[0], images[1] = images[1], images[0]
    lines[index] = head + ": " + " ".join(images)
    with pytest.raises(BadAction, match="inconsistent"):
        parse_bundle_text("\n".join(lines) + "\n")


def test_action_closes_when_the_first_element_generates_a_subgroup(
        d4_torus):
    """R2 generates {E, R2}; S and then R are kept after it."""
    text = "".join(
        "act %d : %s\n" % (g, " ".join(map(str, d4_torus.vertex_action[g])))
        for g in (2, 4, 1))
    gx = parse_action_text(text, d4_torus.group, d4_torus.complex)
    assert gx.vertex_action == d4_torus.vertex_action


def test_action_names_the_first_unreachable_element():
    """g2 generates {e, g2} in Z/4: g is the first element not reached."""
    text = "act 2 : 2 3 0 1\n"
    with pytest.raises(BadAction) as info:
        parse_action_text(text, cyclic_group(4), circle_complex(4))
    assert str(info.value) == ("action file elements do not generate the "
                               "group (element g is unreachable)")


def test_action_requires_permutation():
    g = cyclic_group(2)
    x = circle_complex(4)
    with pytest.raises(BadAction, match="permutation"):
        parse_action_text("act 1 : 0 0 1 2\n", g, x)


def test_action_element_out_of_range():
    g = cyclic_group(2)
    x = circle_complex(4)
    with pytest.raises(BadAction, match="out of range"):
        parse_action_text("act 5 : 0 1 2 3\n", g, x)


def test_action_conflicting_lines():
    g = cyclic_group(2)
    x = circle_complex(4)
    text = "act 1 : 0 3 2 1\nact 1 : 0 1 2 3\n"
    with pytest.raises(BadAction, match="conflicting"):
        parse_action_text(text, g, x)


def test_action_inconsistent_with_table():
    g = cyclic_group(4)
    x = circle_complex(4)
    # act(1)^2 must equal act(2), but the file pins act(2) to the identity
    text = "act 1 : 1 2 3 0\nact 2 : 0 1 2 3\n"
    with pytest.raises(BadAction, match="inconsistent"):
        parse_action_text(text, g, x)


def test_action_must_generate():
    g = cyclic_group(2)
    x = circle_complex(4)
    with pytest.raises(BadAction, match="unreachable"):
        parse_action_text("act 0 : 0 1 2 3\n", g, x)


def test_action_file_parse_error():
    g = cyclic_group(2)
    x = circle_complex(4)
    with pytest.raises(ParseError):
        parse_action_text("apply 1 : 0 1 2 3\n", g, x)


# -- bundles ------------------------------------------------------------------------


def test_bundle_round_trip(z2_circle):
    gx = parse_bundle_text(serialize_bundle(z2_circle))
    assert gx.group.mult == z2_circle.group.mult
    assert gx.complex.f_vector() == z2_circle.complex.f_vector()
    assert gx.vertex_action == z2_circle.vertex_action


def test_bundle_round_trip_large(d4_torus):
    gx = parse_bundle_text(serialize_bundle(d4_torus))
    assert gx.group.order == 8
    assert gx.vertex_action == d4_torus.vertex_action


def test_bundle_section_routing(z2_circle):
    """Each section keeps its lines at their line numbers in the document,
    with every other line blank."""
    text = serialize_bundle(z2_circle)
    sections = split_bundle_text(text)
    assert sections["group"].lstrip("\n").startswith("group 2")
    assert sections["complex"].lstrip("\n").startswith("vertices 8")
    assert sections["action"].lstrip("\n").startswith("act 1")
    lines = text.splitlines()
    for section in sections.values():
        placed = section.splitlines()
        assert placed[-1] and all(line in ("", lines[i])
                                  for i, line in enumerate(placed))
    assert sum(bool(line) for section in sections.values()
               for line in section.splitlines()) == sum(
        1 for line in lines if line and not line.startswith("#"))


def test_bundle_unknown_directive():
    with pytest.raises(ParseError) as caught:
        split_bundle_text("frobnicate 3\n")
    assert str(caught.value) == "line 1: unrecognized directive 'frobnicate'"


def test_a_bundle_line_starting_with_an_integer_goes_to_the_group():
    """A line is routed by its first token alone, so a row with a bad
    token later on gets the group parser's message, naming its line."""
    assert split_bundle_text("3 x\n")["group"] == "3 x\n"
    text = ("group 2\ntable\n0 1\n3 x\n"
            "vertices 2\nsimplex 0 1\nact 1 : 1 0\n")
    with pytest.raises(ParseError) as caught:
        parse_bundle_text(text)
    assert str(caught.value) == ("line 4: table entry must be an integer, "
                                 "got 'x'")


def test_bundle_missing_sections():
    with pytest.raises(ParseError, match="group section"):
        parse_bundle_text("vertices 2\nsimplex 0 1\nact 1 : 1 0\n")
    with pytest.raises(ParseError, match="complex section"):
        parse_bundle_text("group 1\ntable\n0\n")


# -- filtration files ---------------------------------------------------------------


def test_filtration_parse_and_round_trip():
    steps = [[(0, 0), (1, 0)], [(0, 1)]]
    text = serialize_filtration(steps)
    assert text == "1: (0, 0) (1, 0)\n2: (0, 1)\n"
    assert parse_filtration_text(text) == steps


def test_filtration_tolerates_spacing():
    assert parse_filtration_text("1: ( 0 ,0 )  (2,3)\n") == [[(0, 0), (2, 3)]]


def test_filtration_errors():
    with pytest.raises(ParseError, match="in order"):
        parse_filtration_text("2: (0, 0)\n")
    with pytest.raises(ParseError, match="unparsable"):
        parse_filtration_text("1: (0, 0) junk\n")
    with pytest.raises(ParseError, match="no nodes"):
        parse_filtration_text("1:\n")
    with pytest.raises(ParseError, match="empty filtration"):
        parse_filtration_text("# nothing\n")
    with pytest.raises(ParseError, match="expected"):
        parse_filtration_text("step one (0,0)\n")
