import importlib.util
import os
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import orbikt.crossed as crossed
from orbikt import (CharacterTable, InternalInconsistency,
                    NonConstantStabilizer, NotOpen, NotSubgroup, PrimNode, PrimPoset, aggregate_strata,
                    conjugate_irrep, cyclic_group, dihedral_group,
                    fiber_decomposition, filtration_report,
                    inclusion_multiplicities, ix_nodes, fixture,
                    orbits_and_stabilizers, parse_bundle_text,
                    specialization, subgroup_table)
from orbikt.complexes import (GSimplicialComplex, SimplicialComplex,
                               barycentric_subdivide, faces)
from orbikt.fixtures import FIXTURE_NAMES

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
INPUTS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "bench", "inputs.py")


# -- fiber block decompositions ---------------------------------------------------


def test_fiber_blocks_over_reflection_point():
    g = dihedral_group(4)
    decomp = fiber_decomposition(g, g.subgroup([4]))
    assert [(dim, mult) for _rid, dim, mult in decomp.blocks] == \
        [(4, 1), (4, 1)]


def test_fiber_blocks_over_half_shift_point():
    g = dihedral_group(4)
    decomp = fiber_decomposition(g, g.subgroup([2, 4]))
    assert [(dim, mult) for _rid, dim, mult in decomp.blocks] == \
        [(2, 1)] * 4


def test_fiber_blocks_over_full_stabilizer_point():
    g = dihedral_group(4)
    decomp = fiber_decomposition(g, g.full_subgroup())
    assert [(dim, mult) for _rid, dim, mult in decomp.blocks] == \
        [(1, 1), (1, 1), (1, 1), (1, 1), (2, 2)]


def test_fiber_blocks_over_free_point():
    g = dihedral_group(4)
    decomp = fiber_decomposition(g, g.subgroup([]))
    assert [(dim, mult) for _rid, dim, mult in decomp.blocks] == [(8, 1)]


def test_fiber_block_sizes_always_sum_to_group_order():
    g = dihedral_group(4)
    for gens in ([], [1], [2], [4], [5], [2, 4], [1, 4]):
        decomp = fiber_decomposition(g, g.subgroup(gens))
        assert sum(dim * mult for _r, dim, mult in decomp.blocks) == 8


def test_fiber_checks_block_sum_against_group_order(monkeypatch):
    """A table with one wrong degree makes the blocks overfill l2(G)."""
    real = crossed.subgroup_table

    def one_degree_off(sub):
        table = real(sub)
        irreps = [(rid, d + (rid == 0), values)
                  for rid, d, values in table.irreps]
        return CharacterTable(table.group, table.conductor, irreps)

    monkeypatch.setattr(crossed, "subgroup_table", one_degree_off)
    g = dihedral_group(4)
    with pytest.raises(InternalInconsistency,
                       match=r"fiber blocks sum to 20, expected \|G\| = 8"):
        fiber_decomposition(g, g.subgroup([4]))


def test_fiber_rejects_foreign_subgroup():
    g = dihedral_group(4)
    other = cyclic_group(2)
    with pytest.raises(NotSubgroup):
        fiber_decomposition(g, other.subgroup([1]))


# -- inclusion multiplicities -----------------------------------------------------
#
# Ambient column ids for the order-8 dihedral table: 0 = trivial, 3 = the
# linear character trivial on rotations, 1 and 2 = the other linear
# characters (1 is positive on the diagonal reflections, 2 on the axis
# ones), 4 = the degree-2 character.


def test_restriction_rows_from_full_group_to_diagonal_reflection():
    g = dihedral_group(4)
    m = inclusion_multiplicities(g, g.subgroup([7]), g.full_subgroup())
    assert m.row(0) == (1, 1, 0, 0, 1)   # trivial appears in ids 0, 1, 4
    assert m.row(1) == (0, 0, 1, 1, 1)   # sign appears in ids 2, 3, 4


def test_restriction_rows_from_full_group_to_axis_reflection():
    g = dihedral_group(4)
    m = inclusion_multiplicities(g, g.subgroup([4]), g.full_subgroup())
    assert m.row(0) == (1, 0, 1, 0, 1)
    assert m.row(1) == (0, 1, 0, 1, 1)


def test_restriction_rows_from_full_group_to_half_shift_stabilizer():
    g = dihedral_group(4)
    h = g.subgroup([2, 4])
    m = inclusion_multiplicities(g, h, g.full_subgroup())
    # row ids of the order-4 table: 0 trivial; 3 nontrivial only on
    # reflections; 1, 2 nontrivial on the half turn (the two components of
    # the degree-2 character)
    assert m.row(0) == (1, 0, 1, 0, 0)
    assert m.row(3) == (0, 1, 0, 1, 0)
    assert m.row(1) == (0, 0, 0, 0, 1)
    assert m.row(2) == (0, 0, 0, 0, 1)


def test_restriction_rows_within_chain():
    g = dihedral_group(4)
    h = g.subgroup([2, 4])
    k = g.subgroup([4])
    m = inclusion_multiplicities(g, k, h)
    assert m.row(0) == (1, 0, 1, 0)
    assert m.row(1) == (0, 1, 0, 1)


def test_restriction_degree_identity_from_rotations():
    g = dihedral_group(4)
    rot = g.subgroup([1])
    m = inclusion_multiplicities(g, rot, g.full_subgroup())
    # each ambient column's degree equals sum of mult * row degree
    row_deg = [subgroup_table(rot).degree(i) for i in range(4)]
    col_deg = [subgroup_table(g.full_subgroup()).degree(j) for j in range(5)]
    for j in range(5):
        assert sum(m.row(i)[j] * row_deg[i] for i in range(4)) == col_deg[j]
    # each row irrep induced to D4 has degree [D4:C4] times its own
    for i in range(4):
        assert sum(m.row(i)[j] * col_deg[j] for j in range(5)) == \
            2 * row_deg[i]


def test_frobenius_identity_sees_a_swap_the_degree_identity_misses(
        monkeypatch):
    """Swapping two degree-1 rows within one column keeps every column sum,
    so only the row identity can see it."""
    g = dihedral_group(4)
    rot = g.subgroup([1])
    rows = subgroup_table(rot)
    trivial = subgroup_table(g.full_subgroup()).character(0)
    swap = {rows.character(0): rows.character(1),
            rows.character(1): rows.character(0)}
    original = crossed.multiplicity

    def mutant(chi, psi, sub):
        return original(chi, swap.get(psi, psi) if chi == trivial else psi,
                        sub)

    monkeypatch.setattr(crossed, "multiplicity", mutant)
    with pytest.raises(InternalInconsistency,
                       match="Frobenius identity fails for row 0"):
        inclusion_multiplicities(g, rot, g.full_subgroup())


def test_inclusion_requires_containment():
    g = dihedral_group(4)
    with pytest.raises(NotSubgroup):
        inclusion_multiplicities(g, g.subgroup([4]), g.subgroup([1]))


# -- specialization poset ---------------------------------------------------------


def test_prim_node_count_is_sum_of_irrep_counts(z2_circle):
    nodes = specialization(z2_circle).nodes
    # 2 fixed vertices with 2 irreps each + 7 free orbits with 1 each
    assert len(nodes) == 11


def test_specialization_is_partial_order_on_fixtures(all_fixtures):
    for gx in all_fixtures.values():
        poset = specialization(gx)
        assert poset.is_antisymmetric()


def test_trivial_irrep_nodes_form_open_set(all_fixtures):
    for gx in all_fixtures.values():
        poset = specialization(gx)
        members = ix_nodes(poset)
        assert members == [i for i, n in enumerate(poset.nodes)
                           if n.irrep_id == 0]
        assert poset.is_open(members)


def test_raw_node_counts(all_fixtures):
    expected = {"d4-torus": 57, "z4-torus": 57, "z2-flip-torus": 102,
                "z2-circle": 11}
    for name, gx in all_fixtures.items():
        assert len(specialization(gx).nodes) == expected[name]


def test_sign_nodes_lie_below_adjacent_free_edge_only(z2_circle):
    poset = specialization(z2_circle)
    # a sign node at a fixed vertex specializes from exactly one node: the
    # adjacent free edge orbit (whose special fiber carries every block)
    sign = [i for i, n in enumerate(poset.nodes) if n.irrep_id == 1]
    assert len(sign) == 2
    for i in sign:
        above = [j for j in poset.above[i] if j != i]
        assert len(above) == 1
        (j,) = above
        assert poset.stabilizer_orders[j] == 1
        assert poset.nodes[j].irrep_id == 0


def test_closure_sizes_of_free_edge_nodes(z2_circle):
    from orbikt import orbits_and_stabilizers
    poset = specialization(z2_circle)
    od = orbits_and_stabilizers(z2_circle)
    sizes = []
    for i, node in enumerate(poset.nodes):
        if (poset.stabilizer_orders[i] == 1
                and len(od.rep(node.orbit_id)) == 2):
            closure = poset.closure([i])
            sizes.append(len(closure))
            # edges touching a fixed vertex pick up both of its irreps
            signs = [k for k in closure if poset.nodes[k].irrep_id == 1]
            assert len(signs) == (1 if len(closure) == 4 else 0)
    assert sorted(sizes) == [3, 3, 4, 4]


def _corrupt_one_multiplicity(monkeypatch, wrong):
    """Make the first multiplicity m with wrong(m) != m come out as wrong(m)."""
    original = crossed.multiplicity
    corrupted = []

    def mutant(chi, psi, sub):
        m = original(chi, psi, sub)
        if not corrupted and wrong(m) != m:
            corrupted.append(m)
            return wrong(m)
        return m

    monkeypatch.setattr(crossed, "multiplicity", mutant)
    return corrupted


@pytest.mark.parametrize("wrong", [lambda m: 0, lambda m: m + 1],
                         ids=["dropped", "inflated"])
def test_specialization_checks_every_restriction_entry(d4_torus, monkeypatch,
                                                       wrong):
    corrupted = _corrupt_one_multiplicity(monkeypatch, wrong)
    with pytest.raises(InternalInconsistency, match="identity fails"):
        specialization(d4_torus)
    assert corrupted


def test_specialization_refuses_cell_stabilizer_outside_face(d4_torus,
                                                             monkeypatch):
    def escaped(g, sigma_id, sub):
        return sub.parent.full_subgroup(), 0

    monkeypatch.setattr(crossed, "conjugate_irrep", escaped)
    with pytest.raises(InternalInconsistency,
                       match="face stabilizer does not contain cell "
                             "stabilizer"):
        specialization(d4_torus)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_specialization_checks_the_matrix_of_every_face_translate(
        name, monkeypatch):
    """specialization reads translates from the facets of representatives;
    it must still build, and check, one restriction matrix per pair
    (Stab(rep_s), Stab(m)) over every simplex m with rep_s as a
    codimension-1 face."""
    gx = fixture(name)
    od = orbits_and_stabilizers(gx)
    expected = set()
    for s in gx.complex.all_simplices():
        stab_m = tuple(g for g in range(gx.group.order)
                       if gx.simplex_image(g, s) == s)
        for face in combinations(s, len(s) - 1) if len(s) > 1 else ():
            s_orb = od.orbit_of[face]
            if od.rep(s_orb) == face:
                expected.add((od.stabilizer(s_orb).elements, stab_m))
    built = []
    original = crossed.inclusion_multiplicities

    def spy(group, sub, ambient):
        built.append((ambient.elements, sub.elements))
        return original(group, sub, ambient)

    monkeypatch.setattr(crossed, "inclusion_multiplicities", spy)
    specialization(gx)
    assert sorted(built) == sorted(expected)


def test_specialization_reads_each_orbit_table_once(monkeypatch):
    """One walk over the orbits builds the nodes, orders and degrees; the
    other reads are of the restriction matrices and the facet triples."""
    gx = fixture("d4-torus")
    orbits = len(orbits_and_stabilizers(gx))
    calls = []
    table = crossed.subgroup_table

    def spy(sub):
        calls.append(sub)
        return table(sub)

    monkeypatch.setattr(crossed, "subgroup_table", spy)
    specialization(gx)
    assert (orbits, len(calls)) == (33, 74)


def _specialization_by_definition(gx):
    """above[(s, sigma)] over every element g and every face of g.rep_t
    that is rep_s: (t, tau) is above when sigma restricted to Stab(g.rep_t)
    contains the transport g.tau."""
    od = orbits_and_stabilizers(gx)
    above = {}
    for t in range(len(od)):
        stab_t = od.stabilizer(t)
        for g in range(gx.group.order):
            for face in faces(gx.simplex_image(g, od.rep(t))):
                s = od.orbit_of[face]
                if od.rep(s) != face:
                    continue
                stab_s = od.stabilizer(s)
                for tau, _, _ in subgroup_table(stab_t).irreps:
                    sub_m, tau_m = conjugate_irrep(g, tau, stab_t)
                    row = inclusion_multiplicities(gx.group, sub_m,
                                                   stab_s).row(tau_m)
                    for sigma, m in enumerate(row):
                        if m > 0:
                            above.setdefault((s, sigma), set()).add((t, tau))
    return above


def _subdivided_simplex_action(rows):
    """sd of the 3-simplex under the vertex permutations in rows, a cyclic
    group in order of powers."""
    simplex = GSimplicialComplex(SimplicialComplex(4, [(0, 1, 2, 3)]),
                                 cyclic_group(len(rows)), rows)
    return barycentric_subdivide(simplex)


def _definition_case(name):
    if name == "relabeled":
        with open(os.path.join(GOLDEN_DIR, "d4-torus-6-seed3.txt")) as f:
            return parse_bundle_text(f.read())
    if name == "z2-swapped-3-simplex-sd":
        return _subdivided_simplex_action([(0, 1, 2, 3), (1, 0, 2, 3)])
    if name == "z4-cycled-3-simplex-sd":
        return _subdivided_simplex_action(
            [tuple((v + k) % 4 for v in range(4)) for k in range(4)])
    if name in FIXTURE_NAMES:
        return fixture(name)
    kind, grid, seed = name.split("-")
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.relabel_action(inputs.torus_action(kind, int(grid)),
                                 int(seed[len("seed"):]))


@pytest.mark.parametrize(
    "name", list(FIXTURE_NAMES) + ["relabeled"]
    + ["%s-%d-seed%d" % (kind, grid, seed) for kind in ("d4", "z4")
       for grid in (4, 6) for seed in range(3)]
    + ["z2-swapped-3-simplex-sd", "z4-cycled-3-simplex-sd"])
def test_specialization_matches_its_definition(name):
    """specialization works each (Stab(rep_s), Stab(rep_t), k^-1) triple out
    once and closes the facet relations transitively; on the relabeled
    grid-6 D4 torus, faces with the same stabilizer pair need different
    k^-1, and on the subdivided 3-simplices some relations go through faces
    of codimension 2 and 3 only."""
    gx = _definition_case(name)
    poset = specialization(gx)
    want = _specialization_by_definition(gx)
    got = {tuple(poset.nodes[a]): {tuple(poset.nodes[b]) for b in up}
           for a, up in enumerate(poset.above)}
    assert got == want


def _poset_of(leq):
    """A PrimPoset on nodes 0..n-1 from a dense boolean relation."""
    n = len(leq)
    return PrimPoset([PrimNode(i, 0) for i in range(n)],
                     [[b for b in range(n) if leq[a][b]] for a in range(n)],
                     [1] * n, [1] * n)


@st.composite
def preorder_and_subset(draw):
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(node, node), max_size=2 * n))
    leq = [[a == b or (a, b) in pairs for b in range(n)] for a in range(n)]
    for k in range(n):  # Warshall: the transitive closure
        for a in range(n):
            for b in range(n):
                leq[a][b] = leq[a][b] or (leq[a][k] and leq[k][b])
    return leq, draw(st.sets(node))


@settings(max_examples=80, deadline=None)
@given(preorder_and_subset())
def test_up_set_queries_match_dense_definitions(case):
    leq, subset = case
    n = len(leq)
    poset = _poset_of(leq)
    assert poset.closure(subset) == {
        a for a in range(n) if any(leq[a][b] for b in subset)}
    inside = set(subset)
    witness = next(((a, b) for a in inside for b in range(n)
                    if leq[a][b] and b not in inside), None)
    assert poset.open_violation(subset) == witness
    assert poset.is_open(subset) == (witness is None)
    assert poset.is_antisymmetric() == all(
        not (leq[a][b] and leq[b][a])
        for a in range(n) for b in range(n) if a != b)
    assert poset.relation_pairs() == [
        (a, b) for a in range(n) for b in range(n) if a != b and leq[a][b]]


def test_poset_rejects_relations_that_are_not_preorders():
    nodes = [PrimNode(i, 0) for i in range(3)]
    with pytest.raises(InternalInconsistency, match="not reflexive"):
        PrimPoset(nodes, [{0}, {1, 2}, set()], [1] * 3, [1] * 3)
    with pytest.raises(InternalInconsistency,
                       match=r"not transitive at \(0, 1, 2\)"):
        PrimPoset(nodes, [{0, 1}, {1, 2}, {2}], [1] * 3, [1] * 3)


# -- aggregation -------------------------------------------------------------------


def test_aggregated_node_counts(all_fixtures):
    expected = {"d4-torus": 21, "z4-torus": 11, "z2-flip-torus": 9,
                "z2-circle": 5}
    for name, gx in all_fixtures.items():
        agg = aggregate_strata(specialization(gx), gx)
        assert len(agg) == expected[name]
        assert agg.aggregated


def test_aggregated_ix_sizes(all_fixtures):
    expected = {"d4-torus": 7, "z4-torus": 4, "z2-flip-torus": 5,
                "z2-circle": 3}
    for name, gx in all_fixtures.items():
        agg = aggregate_strata(specialization(gx), gx)
        assert len(ix_nodes(agg)) == expected[name]


def test_aggregation_preserves_openness_of_trivial_set(d4_torus):
    agg = aggregate_strata(specialization(d4_torus), d4_torus)
    assert agg.is_open(ix_nodes(agg))


def test_closure_of_diagonal_trivial_node_at_corner(d4_torus):
    """At a full-stabilizer corner, exactly the three characters positive on
    the diagonal reflection lie in the closure of the adjacent edge
    stratum's trivial node."""
    agg = aggregate_strata(specialization(d4_torus), d4_torus)
    idx = agg.index_of((3, 0))  # diagonal stratum, trivial irrep
    closure = agg.closure([idx])
    corner = sorted(agg.nodes[i].irrep_id for i in closure
                    if agg.nodes[i].orbit_id == 0)
    assert corner == [0, 1, 4]


def test_aggregation_refuses_irreps_that_swap_around_a_stratum(s3_circle):
    """On the S3 circle the poset puts (3, 1) below (5, 2): going around the
    stratum swaps the two non-trivial irreps of Z3, so one class would hold
    two nodes of orbit 0."""
    poset = specialization(s3_circle)
    assert poset.index_of((5, 2)) in poset.above[poset.index_of((3, 1))]
    with pytest.raises(NonConstantStabilizer) as info:
        aggregate_strata(poset, s3_circle)
    assert info.value.witness == ((0, 1), (0, 2))
    assert str(info.value) == ("stratum 0 joins nodes (0, 1) and (0, 2) of "
                               "one orbit")


# -- filtrations -------------------------------------------------------------------


THREE_STEP_LADDER = [
    [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)],
    [(1, 1), (3, 1), (4, 1), (0, 3), (5, 3), (2, 3)],
    [(0, 1), (0, 2), (0, 4), (5, 1), (5, 2), (5, 4), (2, 1), (2, 2)],
]


def test_three_step_filtration_is_valid(d4_torus):
    agg = aggregate_strata(specialization(d4_torus), d4_torus)
    report = filtration_report(agg, d4_torus, THREE_STEP_LADDER)
    assert report.step_counts == (7, 6, 8)
    assert report.cumulative_counts == (7, 13, 21)


def test_filtration_block_dimensions(d4_torus):
    agg = aggregate_strata(specialization(d4_torus), d4_torus)
    report = filtration_report(agg, d4_torus, THREE_STEP_LADDER)
    # first step: free stratum gives the full 8-dimensional block, the
    # corner strata give 1-dimensional blocks
    dims = {tuple(key): block for key, _deg, block in report.steps[0]}
    assert dims[(6, 0)] == 8   # free stratum
    assert dims[(0, 0)] == 1   # corner
    assert dims[(2, 0)] == 2   # half-shift pair
    assert dims[(3, 0)] == 4   # diagonal stratum
    # last step: the degree-2 corner node gives a 2-dimensional block
    dims3 = {tuple(key): block for key, _deg, block in report.steps[2]}
    assert dims3[(0, 4)] == 2


def test_ix_nodes_reports_a_closed_trivial_set_as_a_bug():
    """(0, 0) below (1, 1) is impossible in a specialization order, so
    ix_nodes takes it for an internal inconsistency, not a refusal."""
    poset = PrimPoset([PrimNode(0, 0), PrimNode(1, 1)], [[0, 1], [1]],
                      [2, 1], [1, 1])
    with pytest.raises(InternalInconsistency,
                       match=r"not open: \(0, 0\) lies below \(1, 1\)"):
        ix_nodes(poset)


def test_filtration_refuses_non_open_step(d4_torus):
    agg = aggregate_strata(specialization(d4_torus), d4_torus)
    with pytest.raises(NotOpen) as info:
        filtration_report(agg, d4_torus, [[(0, 4)]])
    assert info.value.step == 1
    assert info.value.witness[0] == (0, 4)
    assert all(type(key) is tuple for key in info.value.witness)
    assert str(info.value).startswith(
        "step 1 is not open: node (0, 4) lies in the closure of (")


def test_filtration_refuses_unknown_and_repeated_nodes(d4_torus):
    agg = aggregate_strata(specialization(d4_torus), d4_torus)
    with pytest.raises(NotOpen):
        filtration_report(agg, d4_torus, [[(99, 0)]])
    with pytest.raises(NotOpen):
        filtration_report(agg, d4_torus,
                          [THREE_STEP_LADDER[0], [(0, 0)]])


def test_index_of_accepts_nodes_and_tuples(d4_torus):
    agg = aggregate_strata(specialization(d4_torus), d4_torus)
    assert agg.index_of((0, 0)) == agg.index_of(PrimNode(0, 0))
    assert agg.index_of((99, 99)) is None
