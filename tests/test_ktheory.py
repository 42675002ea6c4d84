import pytest

from orbikt import (InternalInconsistency, NotApplicable, NotIsolated,
                    bc_cross_check, bc_decomposition, bc_vs_count_identity,
                    equivariant_euler, euler_quotient_check, homology_integral,
                    isolated_k_theory, quotient_complex)
from transfer_oracle import invariants_check


# -- localization decomposition ----------------------------------------------------


def test_bc_per_class_dihedral_torus(d4_torus):
    decomp = bc_decomposition(d4_torus)
    names = d4_torus.group.element_names
    by_class = [(names[rep], even, odd)
                for rep, even, odd in decomp.ranks_by_class()]
    assert by_class == [
        ("E", 1, 0),
        ("R2", 3, 0),
        ("R", 2, 0),
        ("S", 2, 0),
        ("SR", 1, 0),
    ]
    assert (decomp.totals.even, decomp.totals.odd) == (9, 0)


def test_bc_per_class_rotation_torus(z4_torus):
    decomp = bc_decomposition(z4_torus)
    ranks = [(even, odd) for _rep, even, odd in decomp.ranks_by_class()]
    assert ranks == [(2, 0), (2, 0), (3, 0), (2, 0)]
    assert (decomp.totals.even, decomp.totals.odd) == (9, 0)


def test_bc_totals_all_fixtures(all_fixtures):
    expected = {"d4-torus": (9, 0), "z4-torus": (9, 0),
                "z2-flip-torus": (6, 0), "z2-circle": (3, 0)}
    for name, gx in all_fixtures.items():
        totals = bc_decomposition(gx).totals
        assert (totals.even, totals.odd) == expected[name]


def test_bc_identity_class_sees_plain_quotient(z2_flip_torus):
    decomp = bc_decomposition(z2_flip_torus)
    idx, rep, hom = decomp.per_class[0]
    assert rep == z2_flip_torus.group.identity
    # quotient of the torus by the flip is a sphere
    assert hom == ((1, 0, 1), ((), (), ()))
    assert hom.k_ranks() == (2, 0)
    assert hom == homology_integral(quotient_complex(z2_flip_torus).complex)


def test_bc_reads_the_identity_row_from_x_itself(monkeypatch):
    """X^e = X and Z(e) = G, so the identity's row reuses the orbit pass made
    when gx was built: bc maps simplices only in the orbit passes of the
    nontrivial classes, |Z(g)| images per orbit of X^g, and none for X."""
    from orbikt import (centralizer_fixed_action, complexes, conjugacy_data,
                        fixture, orbits_and_stabilizers)

    gx = fixture("d4-torus")
    expected = sum(
        sub.group.order * len(orbits_and_stabilizers(sub))
        for sub in (centralizer_fixed_action(gx, rep).gcomplex
                    for rep in conjugacy_data(gx.group).reps
                    if rep != gx.group.identity))
    calls = []
    original = complexes._images

    def counted(columns, rep):
        images = original(columns, rep)
        calls.extend(images)
        return images

    monkeypatch.setattr(complexes, "_images", counted)
    bc_decomposition(gx)
    # a second orbit pass over a copy of X would add 8 * 33 = 264
    assert len(calls) == expected == 108


# -- Euler characteristic routes ---------------------------------------------------


EULER = {"d4-torus": 9, "z4-torus": 9, "z2-flip-torus": 6, "z2-circle": 3}


def test_euler_bc_route(all_fixtures):
    for name, gx in all_fixtures.items():
        assert equivariant_euler(gx, method="bc") == EULER[name]


def test_euler_commuting_pairs_route(all_fixtures):
    for name, gx in all_fixtures.items():
        assert equivariant_euler(gx, method="commuting_pairs") == EULER[name]


def test_euler_isolated_route_where_applicable(all_fixtures):
    for name in ("z4-torus", "z2-flip-torus", "z2-circle"):
        assert equivariant_euler(all_fixtures[name],
                                 method="isolated") == EULER[name]


def test_euler_isolated_route_refuses_positive_dim_singular(d4_torus):
    with pytest.raises(NotIsolated, match="dimension 1"):
        equivariant_euler(d4_torus, method="isolated")


def test_euler_unknown_method(z2_circle):
    with pytest.raises(ValueError):
        equivariant_euler(z2_circle, method="magic")


def test_quotient_check_all_fixtures(all_fixtures):
    expected = {"d4-torus": 1, "z4-torus": 2, "z2-flip-torus": 2,
                "z2-circle": 1}
    for name, gx in all_fixtures.items():
        check = euler_quotient_check(gx)
        assert check.integral
        assert check.equal
        assert check.lhs == check.rhs == expected[name]


# -- counting identity -------------------------------------------------------------


def test_count_identity_rotation_torus(z4_torus):
    ident = bc_vs_count_identity(z4_torus)
    assert ident.equal
    assert (ident.lhs, ident.rhs) == (7, 7)


def test_count_identity_flip_and_circle(z2_flip_torus, z2_circle):
    ident = bc_vs_count_identity(z2_flip_torus)
    assert (ident.lhs, ident.rhs) == (4, 4)
    ident = bc_vs_count_identity(z2_circle)
    assert (ident.lhs, ident.rhs) == (2, 2)


def test_count_identity_refuses_positive_dim_fixed_set(d4_torus):
    with pytest.raises(NotApplicable, match="1-dimensional"):
        bc_vs_count_identity(d4_torus)


# -- integral K-theory in the isolated regime --------------------------------------


def test_isolated_k_rotation_torus(z4_torus):
    res = isolated_k_theory(z4_torus)
    assert res.k0 == (9, ())
    assert res.k1 == (0, ())
    assert res.quotient_k0 == (2, ())
    assert res.quotient_k1 == (0, ())
    assert res.boundary_status == "provably-zero"
    assert not res.dimension_capped
    stars = sorted(star for _i, _stab, star in res.singular_orbits)
    assert stars == [1, 3, 3]
    orders = sorted(order for _i, order in res.torsion_bounds)
    assert orders == [2, 4, 4]


def test_isolated_k_flip_torus(z2_flip_torus):
    res = isolated_k_theory(z2_flip_torus)
    assert res.k0 == (6, ())
    assert res.k1 == (0, ())
    assert res.quotient_k0 == (2, ())
    assert len(res.singular_orbits) == 4
    assert all(stab.order == 2 for _i, stab, _s in res.singular_orbits)


def test_isolated_k_circle(z2_circle):
    res = isolated_k_theory(z2_circle)
    assert res.k0 == (3, ())
    assert res.k1 == (0, ())
    assert res.quotient_k0 == (1, ())
    assert res.boundary_status == "provably-zero"


def test_isolated_k_refuses_dihedral_torus(d4_torus):
    with pytest.raises(NotIsolated) as info:
        isolated_k_theory(d4_torus)
    assert "stabilizer of order 2" in str(info.value)


def test_bc_cross_check_agrees(z4_torus, z2_flip_torus, z2_circle):
    for gx in (z4_torus, z2_flip_torus, z2_circle):
        res = isolated_k_theory(gx)
        totals = bc_cross_check(bc_decomposition(gx), res)
        assert (totals.even, totals.odd) == (res.k0[0], res.k1[0])


def test_bc_cross_check_does_not_recompute(z2_flip_torus, monkeypatch):
    import orbikt.complexes as complexes
    import orbikt.ktheory as ktheory

    res = isolated_k_theory(z2_flip_torus)
    decomp = res.decomposition

    def no_recompute(*args, **kwargs):
        raise AssertionError("bc_cross_check recomputed the decomposition")

    monkeypatch.setattr(ktheory, "bc_decomposition", no_recompute)
    monkeypatch.setattr(complexes, "quotient_complex", no_recompute)
    monkeypatch.setattr(ktheory, "quotient_homology", no_recompute)
    totals = bc_cross_check(decomp, res)
    assert totals == decomp.totals


def test_isolated_k_theory_builds_quotients_only_in_bc(z4_torus,
                                                       monkeypatch):
    """H_*(X/G) comes from the decomposition's identity row: every homology
    call happens inside the one bc_decomposition, on orbit cells, with no
    simplicial quotient, and the result is cross-checked once."""
    import orbikt.complexes as complexes
    import orbikt.homology as homology
    import orbikt.ktheory as ktheory

    depth, calls = [0], []

    def watched(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, depth[0]))
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(module, name, wrapper)

    # quotient_complex and homology_integral are watched where they are
    # defined: ktheory does not import them
    for module, name in ((ktheory, "bc_decomposition"),
                         (complexes, "quotient_complex"),
                         (homology, "homology_integral"),
                         (ktheory, "quotient_homology"),
                         (ktheory, "bc_cross_check")):
        watched(module, name)
    res = isolated_k_theory(z4_torus)
    assert res.k0 == (9, ())
    assert sorted(calls) == sorted(
        [("bc_decomposition", 0), ("bc_cross_check", 0)]
        + [("quotient_homology", 1)] * 4)
    totals = res.decomposition.totals
    assert (totals.even, totals.odd) == (res.k0[0], res.k1[0])


def test_bc_cross_check_runs_inside_isolated_k_theory(z2_circle, monkeypatch):
    """A decomposition whose totals disagree is refused by the library
    itself, not only by the CLI."""
    import orbikt.ktheory as ktheory

    original = ktheory.bc_decomposition

    def off_by_one(*args, **kwargs):
        decomp = original(*args, **kwargs)
        even = decomp.totals.even + 1
        return decomp._replace(totals=decomp.totals._replace(even=even))

    monkeypatch.setattr(ktheory, "bc_decomposition", off_by_one)
    with pytest.raises(InternalInconsistency, match="localization totals"):
        isolated_k_theory(z2_circle)


def test_bc_totals_are_checked_against_the_prim_node_count(d4_torus,
                                                           monkeypatch):
    """d4-torus is outside the isolated regime, so bc_cross_check never
    sees it; the prim-node Euler count inside bc_decomposition still
    refuses one wrong class row."""
    import orbikt.ktheory as ktheory

    original = ktheory.quotient_homology
    rows = []

    def one_wrong_row(sub):
        hom = original(sub)
        rows.append(hom)
        if len(rows) == 2:
            return hom._replace(betti=(hom.betti[0] + 1,) + hom.betti[1:])
        return hom

    assert bc_decomposition(d4_torus).totals == (9, 0)
    monkeypatch.setattr(ktheory, "quotient_homology", one_wrong_row)
    with pytest.raises(InternalInconsistency,
                       match="prim nodes count Euler characteristic 9, "
                             "bc totals 10"):
        bc_decomposition(d4_torus)
    assert len(rows) == 5


# -- invariant cohomology against quotient Betti numbers ---------------------------


def test_invariants_check_rows(all_fixtures):
    expected = {
        "d4-torus": [(0, 1, 1), (1, 0, 0), (2, 0, 0)],
        "z4-torus": [(0, 1, 1), (1, 0, 0), (2, 1, 1)],
        "z2-flip-torus": [(0, 1, 1), (1, 0, 0), (2, 1, 1)],
        "z2-circle": [(0, 1, 1), (1, 0, 0)],
    }
    for name, gx in all_fixtures.items():
        check = invariants_check(gx)
        assert list(check.rows) == expected[name]
        assert check.all_equal
