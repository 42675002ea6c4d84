import pytest

from orbikt import (BadAction, BoundExceeded, GSimplicialComplex, NotAComplex,
                    NotAdmissible, SimplicialComplex,
                    barycentric_subdivide, complexes, cyclic_group,
                    dihedral_group, fixed_subcomplex, fixture, isotropy_strata,
                    orbits_and_stabilizers, parse_action_text,
                    quotient_complex, serialize_action, trivial_group)
from orbikt.complexes import faces
from orbikt.fixtures import FIXTURE_NAMES, circle_complex


def interval():
    return SimplicialComplex(2, [(0, 1)])


def two_point_circle():
    """Two vertices joined by two edges is not a simplicial complex;
    the closest simplicial model needs distinct edges, so use the square."""
    return SimplicialComplex(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def direct(complex, group, action):
    return GSimplicialComplex(complex, group, action)


def parsed(complex, group, action):
    """The same action read back from its act lines, as a bundle is read."""
    unchecked = GSimplicialComplex(complex, group, action, check=False)
    return parse_action_text(serialize_action(unchecked), group, complex)


def test_closure_generates_faces():
    c = SimplicialComplex(3, [(0, 1, 2)])
    assert c.f_vector() == (3, 3, 1)
    assert (0, 1) in c
    assert (2,) in c
    assert c.dimension == 2


def test_isolated_vertices_are_included():
    c = SimplicialComplex(4, [(0, 1)])
    assert c.f_vector() == (4, 1)


def test_bad_simplices_rejected():
    with pytest.raises(NotAComplex):
        SimplicialComplex(2, [(0, 2)])       # vertex out of range
    with pytest.raises(NotAComplex):
        SimplicialComplex(3, [()])           # empty simplex
    with pytest.raises(NotAComplex):
        SimplicialComplex(-1, [])            # negative vertex count
    # repeated vertices are normalized away, not rejected
    assert SimplicialComplex(3, [(0, 0, 1)]).f_vector() == (3, 1)


def test_face_count_bound_is_checked_before_listing_faces():
    # 20 vertices plus the 2^20 - 1 faces of one simplex on all of them
    with pytest.raises(BoundExceeded):
        SimplicialComplex(20, [range(20)])
    with pytest.raises(BoundExceeded):
        SimplicialComplex(2 ** 20 + 1, [])


def test_action_must_be_homomorphism():
    c = interval()
    g = cyclic_group(2)
    with pytest.raises(BadAction):
        # swapping vertices composed with itself is the identity, so sending
        # both elements to the swap is not a homomorphism
        GSimplicialComplex(c, g, [(1, 0), (1, 0)])


@pytest.mark.parametrize("action, message", [
    ([(0, 1, 2)], "need one vertex permutation per group element"),
    ([(0, 1, 2), (0, 0, 2)], "element 1 does not act by a permutation"),
], ids=["missing-row", "not-a-permutation"])
def test_action_rows_must_be_one_permutation_per_element(action, message):
    with pytest.raises(BadAction) as info:
        GSimplicialComplex(circle_complex(3), cyclic_group(2), action)
    assert str(info.value) == message


def test_identity_must_act_trivially():
    with pytest.raises(BadAction) as info:
        GSimplicialComplex(interval(), trivial_group(), [(1, 0)])
    assert str(info.value) == "identity does not act trivially"


@pytest.mark.parametrize("action", [
    [(0, 1, 2, 3), (1, 2, 3, 0), (0, 1, 2, 3), (3, 0, 1, 2)],
    [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (1, 2, 3, 0)],
    [(0, 1, 2, 3), (3, 0, 1, 2), (2, 3, 0, 1), (3, 0, 1, 2)],
], ids=["g2", "g3", "g3-after-g1"])
def test_a_non_homomorphism_has_one_message_on_both_routes(action):
    """The direct and the parsed route share one proof, so they refuse the
    same action with the same message."""
    messages = []
    for build in (direct, parsed):
        with pytest.raises(BadAction) as info:
            build(two_point_circle(), cyclic_group(4), action)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("action is not a homomorphism: "
                                  "inconsistent with the group table at")


@pytest.mark.parametrize("build, message", [
    (direct, "homomorphism"),
    (parsed, "inconsistent with the group table at element g%d")])
@pytest.mark.parametrize("bad", [2, 3])
def test_action_check_covers_non_generators(bad, build, message):
    # element 1 alone generates Z4, so the validator checks products with it
    # only; a wrong permutation on a non-generator must still be caught
    c = two_point_circle()
    rotations = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)]
    build(c, cyclic_group(4), rotations)
    wrong = list(rotations)
    wrong[bad] = (0, 1, 2, 3)
    with pytest.raises(BadAction, match=message.replace("%d", str(bad))):
        build(c, cyclic_group(4), wrong)


@pytest.mark.parametrize("build", [direct, parsed])
def test_action_must_preserve_simplices(build):
    # the swap of 1 and 2 is an involution, so only the edge check fails
    c = SimplicialComplex(3, [(0, 1)])
    g = cyclic_group(2)
    with pytest.raises(BadAction, match="outside the complex"):
        build(c, g, [(0, 1, 2), (0, 2, 1)])


@pytest.mark.parametrize("build", [direct, parsed])
def test_bad_simplex_message_names_first_simplex_in_order(build):
    """The given triangle (1, 2, 3) leaves the complex under the swap of 0
    and 3, and so do its edges (1, 3) and (2, 3); the message names the
    first of them in dimension-then-lex order, an edge."""
    c = SimplicialComplex(4, [(1, 2, 3)])
    with pytest.raises(BadAction) as info:
        build(c, cyclic_group(2), [(0, 1, 2, 3), (3, 1, 2, 0)])
    assert str(info.value) == \
        "element 1 maps simplex (1, 3) outside the complex"


def _c4_rotating_a_path():
    """C4 rotating four vertices, on the path (0, 1), (1, 2) and the point 3:
    the rotation by 1 maps (1, 2) to (2, 3), and the rotation by 2 maps the
    first edge (0, 1) there, neither of them an edge."""
    rotations = [tuple((v + k) % 4 for v in range(4)) for k in range(4)]
    return SimplicialComplex(4, [(0, 1), (1, 2)]), cyclic_group(4), rotations


@pytest.mark.parametrize("build", [direct, parsed])
def test_bad_simplex_message_names_the_least_element_moving_it_out(build):
    """The message names the first simplex with an image outside the
    complex, (0, 1), and the least element mapping it out, 2, though the
    generator 1 maps the later edge (1, 2) out."""
    with pytest.raises(BadAction) as info:
        build(*_c4_rotating_a_path())
    assert str(info.value) == \
        "element 2 maps simplex (0, 1) outside the complex"


def test_an_unchecked_action_is_checked_by_the_orbit_pass():
    """check=False takes the rows as given, but no orbits are read from an
    action that does not keep the complex: each call that needs them
    raises, as nothing is cached."""
    gx = GSimplicialComplex(*_c4_rotating_a_path(), check=False)
    for call in (GSimplicialComplex.admissibility_witness,
                 orbits_and_stabilizers):
        with pytest.raises(BadAction) as info:
            call(gx)
        assert str(info.value) == \
            "element 2 maps simplex (0, 1) outside the complex"
    assert gx._orbit_data is None


def test_action_check_maps_each_orbit_representative(monkeypatch):
    """Keeping the complex is checked inside the orbit pass: on d4-torus,
    one image per element and orbit representative, not per simplex."""
    built = fixture("d4-torus")
    images = []
    original = complexes._images

    def counted(columns, rep):
        out = original(columns, rep)
        images.extend([rep] * len(out))
        return out

    monkeypatch.setattr(complexes, "_images", counted)
    gx = GSimplicialComplex(built.complex, built.group, built.vertex_action)
    od = gx._orbit_data
    assert len(images) == built.group.order * len(od) == 264
    assert set(images) == {od.rep(i) for i in range(len(od))}


def test_reflection_of_interval_is_not_admissible():
    """A reflection fixing an edge setwise while swapping its endpoints is
    the minimal admissibility failure; the witness names the culprit."""
    c = interval()
    g = cyclic_group(2)
    gx = GSimplicialComplex(c, g, [(0, 1), (1, 0)])
    assert not gx.is_admissible()
    ok, (elt, simplex) = gx.admissibility_witness()
    assert not ok
    assert elt == 1
    assert simplex == (0, 1)
    assert gx.admissibility_witness() == (False, (1, (0, 1)))
    with pytest.raises(NotAdmissible):
        gx.require_admissible()


def test_square_reflection_is_admissible():
    c = two_point_circle()
    g = cyclic_group(2)
    # reflect across the diagonal through vertices 0 and 2
    gx = GSimplicialComplex(c, g, [(0, 1, 2, 3), (0, 3, 2, 1)])
    assert gx.is_admissible()


def test_subdivision_repairs_admissibility():
    gx = GSimplicialComplex(interval(), cyclic_group(2),
                            [(0, 1), (1, 0)])
    sd = barycentric_subdivide(gx)
    assert sd.is_admissible()
    # the subdivided interval has 3 vertices and 2 edges
    assert sd.complex.f_vector() == (3, 2)


def test_subdivision_counts_of_triangle():
    c = SimplicialComplex(3, [(0, 1, 2)])
    gx = GSimplicialComplex(c, trivial_group(), [(0, 1, 2)])
    sd = barycentric_subdivide(gx)
    # vertices = simplices of the original; each triangle gives 6 triangles
    assert sd.complex.f_vector() == (7, 12, 6)


@pytest.mark.parametrize("name, kind, elements", [
    ("d4-torus", "d4", range(8)),
    ("z4-torus", "z4", range(4)),
    ("z2-flip-torus", "z4", (0, 2))])
def test_torus_fixtures_match_the_benchmark_construction(name, kind, elements,
                                                         inputs):
    """bench/inputs.py builds the grid-4 torus actions on its own; each torus
    fixture acts as its elements there do, element by element."""
    built = fixture(name)
    independent = inputs.torus_action(kind, 4)
    assert built.complex == independent.complex
    assert built.vertex_action == tuple(independent.vertex_action[k]
                                        for k in elements)


def test_orbit_stabilizer_identity_on_fixtures(all_fixtures):
    for gx in all_fixtures.values():
        od = orbits_and_stabilizers(gx)
        for rep, members, stab, transporter in od.orbits:
            assert len(members) * stab.order == gx.group.order
            assert set(transporter) == set(members)
            # transported representative lands on each member
            for member, g in transporter.items():
                assert gx.simplex_image(g, rep) == member


def test_orbit_stabilizer_identity_catches_a_broken_action():
    # unchecked, the identity of Z2 swaps the two points: each point has one
    # image and no stabilizer, so |orbit| * |Stab| = 0 differs from |G| = 2
    gx = GSimplicialComplex(SimplicialComplex(2, []), cyclic_group(2),
                            [(1, 0), (1, 0)], check=False)
    with pytest.raises(NotAdmissible, match="orbit-stabilizer identity"):
        orbits_and_stabilizers(gx)


def _oracle_cases():
    """(id, function of the bench inputs module) for every G-complex the
    orbit pass is compared with the old pass on."""
    cases = [(name, lambda inputs, name=name: fixture(name))
             for name in FIXTURE_NAMES]
    cases += [("%s-grid%d-seed%d" % spec,
               lambda inputs, spec=spec: inputs.relabel_action(
                   inputs.torus_action(*spec[:2]), spec[2]))
              for spec in (("d4", 4, 0), ("d4", 6, 1), ("d4", 6, 13),
                           ("z4", 4, 5), ("z4", 6, 13))]
    cases += [
        ("sd(z4-torus)", lambda inputs: fixture("z4-torus").subdivision()),
        # not admissible: the swap leaves the edge invariant
        ("interval-reflection", lambda inputs: GSimplicialComplex(
            interval(), cyclic_group(2), [(0, 1), (1, 0)])),
        # Z4 through Z2: elements 0 and 2 fix every vertex, 1 and 3 swap
        ("interval-reflection-via-z4", lambda inputs: GSimplicialComplex(
            interval(), cyclic_group(4), [(0, 1), (1, 0)] * 2)),
        # S3 through Z2 on the 8-cycle: the rotations fix every vertex
        ("s3-circle", lambda inputs: GSimplicialComplex(
            circle_complex(8), dihedral_group(3),
            [tuple(range(8))] * 3 + [(4, 5, 6, 7, 0, 1, 2, 3)] * 3)),
        # not admissible in dimension 3, where images are sorted tuples
        ("tetrahedron-rotation", lambda inputs: GSimplicialComplex(
            SimplicialComplex(4, [(0, 1, 2, 3)]), cyclic_group(4),
            [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)])),
        # the swap of 0 and 3 maps (1, 2, 3) to (0, 1, 2), not a simplex
        ("not-kept", lambda inputs: GSimplicialComplex(
            SimplicialComplex(4, [(1, 2, 3)]), cyclic_group(2),
            [(0, 1, 2, 3), (3, 1, 2, 0)], check=False)),
        # an identity that moves points breaks |orbit| * |Stab| = |G|
        ("broken-identity", lambda inputs: GSimplicialComplex(
            SimplicialComplex(2, []), cyclic_group(2), [(1, 0), (1, 0)],
            check=False)),
        # ... also when the images are distinct and none of them is rep
        ("broken-identity-distinct", lambda inputs: GSimplicialComplex(
            SimplicialComplex(3, []), cyclic_group(2),
            [(1, 2, 0), (2, 0, 1)], check=False)),
    ]
    return cases


def _pass_outcome(orbit_pass, gx, *check):
    """What one pass gives on a copy of gx whose pass has not run: None,
    the error it raises, or every field of its OrbitData."""
    fresh = GSimplicialComplex(gx.complex, gx.group, gx.vertex_action,
                               check=False)
    try:
        od = orbit_pass(fresh, *check)
    except (BadAction, NotAdmissible) as error:
        return type(error).__name__, str(error)
    if od is None:
        return None
    return ([(rep, members, stab.elements, transporter)
             for rep, members, stab, transporter in od.orbits],
            list(od.orbit_of.items()), od.facets, od.witness)


@pytest.mark.parametrize("name, build", _oracle_cases(),
                         ids=[name for name, _ in _oracle_cases()])
def test_orbit_pass_matches_the_old_pass(name, build, inputs):
    """Images read from vertex image columns give the orbits the old pass
    read from one simplex_image call per element (tests/orbit_oracle.py):
    the same representatives, members, stabilizers and least transporters,
    the same orbit_of (in its order), facets and witness, with and without
    the old pass's check.  Where that check finds an image outside the
    complex, the pass raises BadAction instead."""
    from orbit_oracle import _orbit_pass as old_pass

    gx = build(inputs)
    new = _pass_outcome(complexes._orbit_pass, gx)
    checked = _pass_outcome(old_pass, gx, True)
    if name == "not-kept":
        assert checked is None
        assert new == ("BadAction",
                       "element 1 maps simplex (1, 3) outside the complex")
    else:
        assert new == checked == _pass_outcome(old_pass, gx, False)
        assert new is not None
    if name.startswith("broken-identity"):
        assert new == ("NotAdmissible",
                       "orbit-stabilizer identity fails for (0,)")
    if name in ("interval-reflection", "interval-reflection-via-z4",
                "tetrahedron-rotation"):
        assert new[3] is not None


def test_orbits_with_one_stabilizer_share_one_subgroup(d4_torus):
    od = orbits_and_stabilizers(d4_torus)
    stabs = [od.stabilizer(i) for i in range(len(od))]
    assert len({id(stab) for stab in stabs}) == len(
        {stab.elements for stab in stabs}) == 6 < len(od)


def test_orbit_inventory_of_dihedral_torus(d4_torus):
    od = orbits_and_stabilizers(d4_torus)
    inventory = {}
    for rep, members, stab, _t in od.orbits:
        key = (len(rep) - 1, stab.order)
        inventory[key] = inventory.get(key, 0) + 1
    assert inventory == {
        (0, 8): 2,   # two full-stabilizer corners
        (0, 4): 1,   # the half-shift pair
        (0, 2): 5,   # reflection-axis vertices
        (0, 1): 1,   # free vertex orbit
        (1, 2): 8,   # edges along reflection axes
        (1, 1): 8,   # free edges
        (2, 1): 8,   # free triangles
    }


def test_stabilizer_subgroups_on_torus(d4_torus):
    g = d4_torus.group
    od = orbits_and_stabilizers(d4_torus)
    stabs = {od.orbits[i][2].elements for i in range(len(od))}
    # representative stabilizers: G, H, <S>, <SR2>, <SR3>, trivial.  The
    # anti-diagonal reflection <SR> stabilizes only non-representative
    # members (orbit reps land on the main diagonal), so it never appears.
    assert stabs == {
        tuple(range(8)), (0, 2, 4, 6), (0, 4), (0, 6), (0, 7), (0,),
    }


def test_fixed_subcomplex_of_half_turn_is_four_points(d4_torus):
    fixed = fixed_subcomplex(d4_torus, [2])
    assert fixed.complex.f_vector() == (4,)


def test_fixed_subcomplex_of_reflection_is_two_circles(d4_torus):
    fixed = fixed_subcomplex(d4_torus, [4])
    assert fixed.complex.f_vector() == (8, 8)


def test_fixed_subcomplex_of_two_generators_is_intersection(d4_torus):
    fixed = fixed_subcomplex(d4_torus, [2, 4])
    assert fixed.complex.f_vector() == (4,)


def test_fixed_points_of_circle_reflection(z2_circle):
    fixed = fixed_subcomplex(z2_circle, [1])
    assert fixed.complex.f_vector() == (2,)
    assert fixed.vertex_embedding == (0, 4)


def test_quotient_of_dihedral_torus_is_disk(d4_torus):
    q = quotient_complex(d4_torus)
    assert q.subdivisions == 0
    assert q.complex.f_vector() == (9, 16, 8)


def test_quotient_of_rotation_torus_needs_one_subdivision(z4_torus):
    q = quotient_complex(z4_torus)
    assert q.subdivisions == 1


def test_quotient_projection_is_surjective(z2_circle):
    q = quotient_complex(z2_circle)
    assert q.complex.f_vector() == (5, 4)
    image = {q.project(s) for s in z2_circle.complex.all_simplices()}
    assert image == set(q.complex.all_simplices())


def test_strata_counts(all_fixtures):
    expected = {"d4-torus": 7, "z4-torus": 4, "z2-flip-torus": 5,
                "z2-circle": 3}
    for name, gx in all_fixtures.items():
        assert len(isotropy_strata(gx)) == expected[name]


def test_strata_partition_orbits(d4_torus):
    od = orbits_and_stabilizers(d4_torus)
    strata = isotropy_strata(d4_torus)
    seen = sorted(oid for st in strata for oid in st.orbit_ids)
    assert seen == list(range(len(od)))


def test_strata_have_constant_stabilizer_order(all_fixtures):
    for gx in all_fixtures.values():
        od = orbits_and_stabilizers(gx)
        for st in isotropy_strata(gx):
            orders = {od.stabilizer(oid).order for oid in st.orbit_ids}
            assert len(orders) == 1


def _strata_by_conjugacy(gx):
    """The strata by the older rule, kept as an oracle: orbits are keyed by
    the smallest element tuple among the conjugates of their stabilizer,
    and two orbits with one key are adjacent when the representative of one
    is a face of a member of the other."""
    od = orbits_and_stabilizers(gx)
    n = len(od)
    key = [min(od.stabilizer(i).conjugate(g).elements
               for g in range(gx.group.order)) for i in range(n)]
    adjacent = [set() for _ in range(n)]
    for a in range(n):
        faces_a = {f for m in od.members(a) for f in faces(m)}
        for b in range(n):
            if key[a] == key[b] and od.rep(b) in faces_a:
                adjacent[a].add(b)
                adjacent[b].add(a)
    strata, seen = [], set()
    for i in range(n):
        if i in seen:
            continue
        component, stack = set(), [i]
        while stack:
            x = stack.pop()
            if x not in component:
                component.add(x)
                stack.extend(adjacent[x])
        seen |= component
        ids = tuple(sorted(component))
        strata.append((len(strata), od.stabilizer(ids[0]).elements, ids))
    return strata


def _strata_cases():
    cases = [pytest.param(("fixture", name), id=name)
             for name in FIXTURE_NAMES]
    cases += [pytest.param(("torus", kind, grid, seed),
                           id="%s-%d-seed%d" % (kind, grid, seed))
              for kind in ("d4", "z4") for grid in (4, 6)
              for seed in range(4)]
    return cases + [pytest.param(("s3-circle",), id="s3-circle")]


@pytest.mark.parametrize("case", _strata_cases())
def test_strata_match_the_conjugacy_rule(case, inputs, s3_circle):
    if case[0] == "fixture":
        gx = fixture(case[1])
    elif case[0] == "torus":
        _, kind, grid, seed = case
        gx = inputs.relabel_action(inputs.torus_action(kind, grid), seed)
    else:
        gx = s3_circle
    strata = [(st.stratum_id, st.stabilizer_rep.elements, st.orbit_ids)
              for st in isotropy_strata(gx)]
    assert strata == _strata_by_conjugacy(gx)


def test_diagonal_stratum_of_torus_has_seven_orbits(d4_torus):
    strata = isotropy_strata(d4_torus)
    sizes = sorted(len(st.orbit_ids) for st in strata)
    assert sizes == [1, 1, 1, 3, 3, 7, 17]


def test_centralizer_fixed_action_restricts(d4_torus):
    from orbikt import centralizer_fixed_action
    cfa = centralizer_fixed_action(d4_torus, 2)  # half turn is central
    assert cfa.centralizer.order == 8
    assert cfa.gcomplex.complex.f_vector() == (4,)
    assert cfa.gcomplex.is_admissible()
