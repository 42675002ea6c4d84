"""Two routes to X/G.

quotient_complex reads sd(X)/G from the orbits of X instead of building
sd(X).  The oracle below is the loop that builds every subdivision and runs
the Bredon check on it; both must give the same quotient, vertex map and
subdivision count, or the same refusal.  Two subdivisions always make X/G
simplicial: on every case, and on small drawn G-complexes, both answer.

bc_decomposition and the quotient command read H_*(X^g/Z(g)) and H_*(X/G)
from the cellular chains of the orbit cells (homology.quotient_homology);
the homology of the simplicial quotient is their oracle on every class row
and on every quotient payload.  The Euler routes through X/G count its
orbit cells; the Euler characteristic of the simplicial quotient is their
oracle."""

import importlib.util
import json
import os
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbikt import (FiniteGroup, GSimplicialComplex, SimplicialComplex,
                    centralizer_fixed_action, complexes, conjugacy_data,
                    cyclic_group, equivariant_euler, euler_characteristic,
                    euler_quotient_check, fixture, homology,
                    homology_integral, quotient_complex, quotient_homology)
from orbikt.cli import main
from orbikt.complexes import (MAX_SUBDIVISIONS, _bredon_witness,
                              barycentric_subdivide, orbits_and_stabilizers)
from orbikt.errors import (BoundExceeded, InternalInconsistency, NotIsolated,
                           OrbiktError)
from orbikt.fixtures import FIXTURE_NAMES, _torus_permutation, torus_complex
from orbikt.formats import serialize_bundle

INPUTS = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "bench", "inputs.py")


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def materialized_quotient(gx):
    """X/G with every subdivision built and checked by _bredon_witness,
    projected through the vertex orbits of the last one."""
    subdivisions = 0
    while True:
        ok, _ = gx.admissibility_witness()
        witness = _bredon_witness(gx) if ok else "not admissible"
        if witness is None:
            break
        if subdivisions >= MAX_SUBDIVISIONS:
            raise InternalInconsistency(
                "quotient is not simplicial (%s); subdivision exhausted"
                % (witness,))
        gx = barycentric_subdivide(gx)
        subdivisions += 1
    od = orbits_and_stabilizers(gx)
    vertex_orbits = sorted(od.orbit_of[(v,)]
                           for v in range(gx.complex.vertex_count))
    new_id = {o: i for i, o in enumerate(dict.fromkeys(vertex_orbits))}
    vertex_map = tuple(new_id[od.orbit_of[(v,)]]
                       for v in range(gx.complex.vertex_count))
    complex = SimplicialComplex(
        len(new_id), [[vertex_map[v] for v in s]
                      for s in gx.complex.maximal_simplices()])
    return complex, vertex_map, subdivisions


def _outcome(build):
    try:
        result = build()
    except OrbiktError as exc:
        return type(exc).__name__, str(exc)
    return tuple(result)


def rotated_cycle(n):
    """Z_n turning the n-cycle; X/G needs two subdivisions."""
    complex = SimplicialComplex(n, [(i, (i + 1) % n) for i in range(n)])
    action = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    return GSimplicialComplex(complex, cyclic_group(n), action)


def reflected_cycle(n):
    """Z_2 reflecting the n-cycle through vertex 0."""
    complex = SimplicialComplex(n, [(i, (i + 1) % n) for i in range(n)])
    action = [tuple(range(n)), tuple(-i % n for i in range(n))]
    return GSimplicialComplex(complex, cyclic_group(2), action)


def rotated_triangle():
    """Z_3 turning a filled triangle: not admissible."""
    return GSimplicialComplex(SimplicialComplex(3, [(0, 1, 2)]),
                              cyclic_group(3),
                              [(0, 1, 2), (1, 2, 0), (2, 0, 1)])


def flipped_interval():
    return GSimplicialComplex(SimplicialComplex(2, [(0, 1)]), cyclic_group(2),
                              [(0, 1), (1, 0)])


def flipped_simplex(n):
    """Z_2 swapping two vertices of one (n - 1)-simplex."""
    swap = (1, 0) + tuple(range(2, n))
    return GSimplicialComplex(SimplicialComplex(n, [tuple(range(n))]),
                              cyclic_group(2), [tuple(range(n)), swap])


def swapped_simplices_and_cycle():
    """Z_2 swapping two 6-simplices and turning a 4-cycle by a half turn:
    admissible, not Bredon-regular, and sd(X) exceeds MAX_SIMPLICES."""
    complex = SimplicialComplex(
        18, [tuple(range(7)), tuple(range(7, 14)),
             (14, 15), (15, 16), (16, 17), (14, 17)])
    turn = tuple(range(7, 14)) + tuple(range(7)) + (16, 17, 14, 15)
    return GSimplicialComplex(complex, cyclic_group(2),
                              [tuple(range(18)), turn])


SMALL = {
    **{"rotated-%d-cycle" % n: (lambda n=n: rotated_cycle(n))
       for n in range(3, 7)},
    **{"reflected-%d-cycle" % n: (lambda n=n: reflected_cycle(n))
       for n in range(3, 7)},
    "rotated-triangle": rotated_triangle,
    "flipped-interval": flipped_interval,
    "flipped-8-simplex": lambda: flipped_simplex(8),
    "swapped-simplices-and-cycle": swapped_simplices_and_cycle,
}


def _cases():
    cases = [pytest.param(("fixture", name), id=name)
             for name in FIXTURE_NAMES]
    cases += [pytest.param(("torus", kind, grid, seed),
                           id="%s-%d-seed%d" % (kind, grid, seed))
              for kind in ("z4", "d4") for grid in (4, 6)
              for seed in range(4)]
    cases += [pytest.param(("small", name), id=name) for name in SMALL]
    return cases


def _build(inputs, case):
    if case[0] == "fixture":
        return fixture(case[1])
    if case[0] == "torus":
        _, kind, grid, seed = case
        return inputs.relabel_action(inputs.torus_action(kind, grid), seed)
    return SMALL[case[1]]()


def _quotient_command(gx, tmp_path, capsys):
    """The exit code, payload (or None) and stderr of ``quotient`` on gx."""
    path = tmp_path / "bundle.txt"
    path.write_text(serialize_bundle(gx))
    code = main(["quotient", "--complex", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    return code, json.loads(out)["payload"] if out else None, err


@pytest.mark.parametrize("case", _cases())
def test_quotient_equals_the_materialized_subdivision(inputs, case, tmp_path,
                                                      capsys):
    expected = _outcome(lambda: materialized_quotient(_build(inputs, case)))
    assert _outcome(lambda: quotient_complex(_build(inputs, case))) == expected
    # the command reads the homology from orbit cells, the oracle from the
    # materialized quotient
    code, payload, err = _quotient_command(_build(inputs, case), tmp_path,
                                           capsys)
    if isinstance(expected[0], str):
        assert (code, payload, err) == (1, None, "orbikt: %s: %s\n"
                                        % expected)
        return
    hom = homology_integral(expected[0])
    assert code == 0 and err == ""
    assert payload == {"subdivisions": expected[2],
                       "f_vector": list(expected[0].f_vector()),
                       "betti": list(hom.betti),
                       "torsion": [list(t) for t in hom.torsion],
                       "euler": euler_characteristic(expected[0])}
    gx = _build(inputs, case)
    if not gx.is_admissible():
        return
    # the Euler routes through X/G read it from its orbit cells
    euler = euler_characteristic(expected[0])
    assert euler_quotient_check(gx).lhs == euler
    od = orbits_and_stabilizers(gx)
    singular = [i for i in range(len(od)) if od.stabilizer(i).order > 1]
    if any(len(od.rep(i)) > 1 for i in singular):
        with pytest.raises(NotIsolated):
            equivariant_euler(gx, "isolated")
    else:
        assert equivariant_euler(gx, "isolated") == euler + sum(
            len(conjugacy_data(od.stabilizer(i).group).classes) - 1
            for i in singular)


def test_the_cases_cover_every_route(inputs):
    """0, 1 and 2 subdivisions and the size refusal occur among the
    cases."""
    seen = set()
    for case in _cases():
        outcome = _outcome(lambda: quotient_complex(
            _build(inputs, case.values[0])))
        seen.add(outcome[0] if isinstance(outcome[0], str) else outcome[2])
    assert seen == {0, 1, 2, "BoundExceeded"}


def _condition_a_violation(gx):
    """A simplex and an element that maps one of its vertices to another of
    its vertices (Bredon's condition (A) fails there), or None."""
    for s in gx.complex.all_simplices():
        members = set(s)
        for g, row in enumerate(gx.vertex_action):
            if any(row[v] != v and row[v] in members for v in s):
                return s, g
    return None


def _subdivided(inputs, case):
    """sd(X) of the case, or None where sd(X) is past the size bound; there
    quotient_complex refuses the case with the same message."""
    try:
        return barycentric_subdivide(_build(inputs, case))
    except BoundExceeded as exc:
        assert _outcome(lambda: quotient_complex(_build(inputs, case))) == (
            "BoundExceeded", str(exc))
        return None


@pytest.mark.parametrize("case", _cases())
def test_one_subdivision_satisfies_condition_a(inputs, case):
    """The vertices of a simplex of sd(X) are simplices of X of distinct
    dimensions, so no element maps one of them to another."""
    sd = _subdivided(inputs, case)
    assert sd is None or _condition_a_violation(sd) is None


@pytest.mark.parametrize("case", _cases())
def test_a_subdivided_input_needs_at_most_one_more(inputs, case):
    """sd(X) satisfies condition (A), so sd(sd(X)) is regular: the quotient
    of sd(X) needs at most one subdivision, on both routes."""
    sd = _subdivided(inputs, case)
    if sd is None:
        return
    quotient = quotient_complex(sd)
    assert quotient.subdivisions <= 1
    assert tuple(quotient) == materialized_quotient(sd)


def test_running_out_of_subdivisions_is_an_internal_inconsistency(
        monkeypatch):
    """The rotated 3-cycle needs two subdivisions; with one allowed, the
    loop runs out, which only a bug could make it do."""
    monkeypatch.setattr(complexes, "MAX_SUBDIVISIONS", 1)
    with pytest.raises(InternalInconsistency) as info:
        quotient_complex(rotated_cycle(3))
    assert str(info.value).startswith("quotient is not simplicial (")
    assert str(info.value).endswith("); subdivision exhausted")


def _permutation_span(gens, limit):
    """The group the permutations generate, identity first, or None when
    it has more than limit elements."""
    elements = [tuple(range(len(gens[0])))]
    for p in elements:  # grows while it is walked
        for q in gens:
            pq = tuple(p[v] for v in q)
            if pq not in elements:
                if len(elements) == limit:
                    return None
                elements.append(pq)
    return elements


@st.composite
def small_g_complex(draw):
    """A cyclic or two-generator permutation group on at most 7 points (two
    generators only while they span at most 24 elements), acting on a
    complex of dimension at most 2 made of the images of drawn simplices."""
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    elements = (_permutation_span(gens, 24)
                or _permutation_span(gens[:1], 24))
    index = {p: i for i, p in enumerate(elements)}
    mult = [[index[tuple(a[v] for v in b)] for b in elements]
            for a in elements]
    seeds = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=3), min_size=1, max_size=3))
    simplices = {tuple(sorted(p[v] for v in s))
                 for s in seeds for p in elements}
    return GSimplicialComplex(SimplicialComplex(n, simplices),
                              FiniteGroup(mult), elements)


@settings(max_examples=150, deadline=None)
@given(small_g_complex())
def test_two_subdivisions_make_every_quotient_simplicial(gx):
    quotient = quotient_complex(gx)
    assert quotient.subdivisions <= 2
    assert tuple(quotient) == materialized_quotient(gx)


def _count_subdivisions(monkeypatch):
    calls = []
    original = complexes.barycentric_subdivide

    def spy(gx):
        calls.append(gx)
        return original(gx)

    monkeypatch.setattr(complexes, "barycentric_subdivide", spy)
    return calls


@pytest.mark.parametrize("build, built, subdivisions", [
    (lambda: fixture("z4-torus"), 0, 1),
    (lambda: rotated_cycle(4), 1, 2),
    (rotated_triangle, 1, 2),
], ids=["z4-torus", "rotated-4-cycle", "rotated-triangle"])
def test_only_the_last_subdivision_is_virtual(monkeypatch, build, built,
                                              subdivisions):
    """A subdivision is built only for a complex that is not admissible or
    whose subdivision fails the chain check."""
    gx = build()
    calls = _count_subdivisions(monkeypatch)
    assert quotient_complex(gx).subdivisions == subdivisions
    assert len(calls) == built


def test_quotient_command_builds_the_subdivision_once(monkeypatch, tmp_path,
                                                     capsys):
    """The rotated triangle is not admissible: the command reads H_*(X/G)
    from the orbit cells of the sd(X) that quotient_complex built."""
    calls = _count_subdivisions(monkeypatch)
    code, payload, err = _quotient_command(rotated_triangle(), tmp_path,
                                           capsys)
    assert code == 0 and err == ""
    assert len(calls) == 1
    assert payload["subdivisions"] == 2
    assert payload["betti"] == [1, 0, 0]


@pytest.mark.parametrize("build, bound", [
    (lambda: flipped_simplex(8), 10281855),
    (swapped_simplices_and_cycle, 1280446),
], ids=["flipped-8-simplex", "swapped-simplices-and-cycle"])
def test_subdivision_bound_is_checked_before_any_flag(monkeypatch, build,
                                                      bound):
    """The bound is the one SimplicialComplex would check on sd(X), and it
    is raised before sd(X) or any chain of it is built."""
    gx = build()
    built = []
    monkeypatch.setattr(complexes, "SimplicialComplex",
                        lambda *args: built.append(args))
    with pytest.raises(BoundExceeded) as info:
        quotient_complex(gx)
    assert str(info.value) == ("complex may have up to %d simplices, more"
                               " than %d" % (bound, complexes.MAX_SIMPLICES))
    assert built == []


def test_euler_routes_answer_where_the_subdivision_is_refused():
    """sd(X) would exceed MAX_SIMPLICES, but the orbit cells of X/G are one
    6-simplex and a circle of two vertices and two edges."""
    gx = swapped_simplices_and_cycle()
    with pytest.raises(BoundExceeded):
        quotient_complex(gx)
    assert equivariant_euler(gx, "isolated") == 1
    assert tuple(euler_quotient_check(gx)) == (1, 1, True)


# -- orbit cells against the simplicial quotient ------------------------------------


def glide_reflected_torus():
    """Z_2 acting freely on the grid-4 torus by (s, t) -> (s + 1/2, -t);
    X/G is the Klein bottle, with H_1 = Z + Z/2."""
    glide = _torus_permutation(lambda s, t: (s + Fraction(1, 2), -t))
    return GSimplicialComplex(torus_complex(), cyclic_group(2),
                              [tuple(range(32)), glide])


def _route_cases():
    """Fixtures and the glide are relabeled too: at seed 0 every transporter
    happens to keep the vertex order of the face it reaches, so every
    orientation sign is +1 there."""
    cases = [pytest.param(("relabeled", name, seed),
                          id="%s-seed%d" % (name, seed))
             for name in (*FIXTURE_NAMES, "glide-reflected-torus")
             for seed in range(4)]
    cases += [pytest.param(("torus", kind, grid, seed),
                           id="%s-%d-seed%d" % (kind, grid, seed))
              for kind in ("z4", "d4") for grid in (4, 6)
              for seed in range(4)]
    cases += [pytest.param(("small", name), id=name) for name in
              ["rotated-%d-cycle" % n for n in range(3, 7)]
              + ["reflected-%d-cycle" % n for n in (4, 6)]]
    return cases


def _build_route_case(inputs, case):
    if case[0] == "relabeled":
        _, name, seed = case
        gx = (glide_reflected_torus() if name == "glide-reflected-torus"
              else fixture(name))
        return inputs.relabel_action(gx, seed)
    return _build(inputs, case)


@pytest.mark.parametrize("case", _route_cases())
def test_orbit_cells_give_the_homology_of_every_class_quotient(inputs, case):
    gx = _build_route_case(inputs, case)
    for rep in conjugacy_data(gx.group).reps:
        sub = centralizer_fixed_action(gx, rep).gcomplex
        assert quotient_homology(sub) == homology_integral(
            quotient_complex(sub).complex), rep


def test_the_oracle_sees_the_orientation_signs(inputs, monkeypatch):
    """With every sign e_i forced to +1, relabeled RP^2 no longer answers
    H_1 = Z/2: there the wrong signs break d o d, and the route refuses."""
    def outcome():
        gx = inputs.relabel_action(fixture("z2-antipodal-sphere"), 1)
        return _outcome(lambda: quotient_homology(gx))

    expected = homology_integral(quotient_complex(
        inputs.relabel_action(fixture("z2-antipodal-sphere"), 1)).complex)
    assert expected.torsion == ((), (2,), ())
    assert outcome() == expected
    monkeypatch.setattr(homology, "_sorting_sign", lambda values: 1)
    assert outcome() != expected


def test_grid_32_ktheory_answers(inputs, tmp_path, capsys):
    """sd(X)/G of the grid-32 Z4 torus needs a d2 of 9216 x 6144 entries,
    above MAX_MATRIX_ENTRIES; the orbit cells of X/G need 1536 x 1024."""
    path = tmp_path / "z4-torus-32.txt"
    path.write_text(serialize_bundle(inputs.torus_action("z4", 32)))
    code = main(["ktheory", "--complex", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    payload = json.loads(out)["payload"]
    assert payload["k0"] == {"rank": 9, "torsion": []}
    assert payload["k1"] == {"rank": 0, "torsion": []}
    assert payload["quotient_k0"] == {"rank": 2, "torsion": []}


def test_grid_32_quotient_answers(inputs, tmp_path, capsys):
    """The command keeps the simplicial quotient's face counts but reads
    its homology from the 1536 x 1024 d2 of the orbit cells."""
    code, payload, err = _quotient_command(inputs.torus_action("z4", 32),
                                           tmp_path, capsys)
    assert code == 0 and err == ""
    assert payload["betti"] == [1, 0, 1]
    assert payload["f_vector"] == [3074, 9216, 6144]
    assert payload["subdivisions"] == 1


def test_quotient_builds_no_chain_complex_of_the_quotient(monkeypatch,
                                                          capsys):
    calls = []
    for owner, name in ((homology.ChainComplex, "from_complex"),
                        (homology, "homology_integral")):
        def spy(*args, _name=name, _original=getattr(owner, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, spy)
    code = main(["quotient", "--fixture", "z4-torus", "--format", "json"])
    assert code == 0 and capsys.readouterr().err == ""
    assert calls == []


def test_quotient_checks_euler_against_the_orbit_cells(monkeypatch, capsys):
    """Betti numbers that disagree with the face counts of the simplicial
    quotient are an internal inconsistency, not an answer."""
    original = homology.quotient_homology

    def shifted(gx):
        hom = original(gx)
        return hom._replace(betti=(hom.betti[0] + 1,) + hom.betti[1:])

    monkeypatch.setattr(homology, "quotient_homology", shifted)
    code = main(["quotient", "--fixture", "z4-torus", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("orbikt: InternalInconsistency: ")
    assert err.count("\n") == 1


def test_orbit_complex_is_refused_before_allocation(inputs, monkeypatch):
    """With the bound at the size of d1, d2 is refused before any matrix,
    d1 included, is built: d1 alone would take more than 6 MB."""
    gx = inputs.torus_action("z4", 32)
    orbits_and_stabilizers(gx)
    monkeypatch.setattr(homology, "MAX_MATRIX_ENTRIES", 514 * 1536)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded) as info:
            quotient_homology(gx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == ("boundary matrix d2 would have 1536 x 1024"
                               " entries, more than %d" % (514 * 1536))
    assert peak < 2 ** 20
