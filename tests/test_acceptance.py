"""Acceptance gate: eight end-to-end criteria, each printing one PASS line.

Every expected value is exact (integers, no tolerance) and each timed
criterion enforces its wall-clock budget, including fixture construction.
"""

import json
import time

from fractions import Fraction

from orbikt import (ChainComplex, Cyclotomic, aggregate_strata,
                    barycentric_subdivide, bc_decomposition,
                    bc_vs_count_identity, boundary_matrix, character_table,
                    cyclic_group, dihedral_group, equivariant_euler,
                    euler_quotient_check, fiber_decomposition,
                    filtration_report, fixture, fraction_free_rank,
                    homology_integral, inclusion_multiplicities,
                    induced_character, multiplicity, quotient_complex,
                    smith_invariant_factors, specialization, subgroup_table)
from orbikt.cli import main
from linalg_oracle import rational_rank
from transfer_oracle import invariants_check


def _report(num, label):
    print("ACCEPTANCE CRITERION %d: PASS (%s)" % (num, label))


def _run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out, _err = capsys.readouterr()
    assert code == 0, "command %r exited %d" % (argv, code)
    return json.loads(out)


def test_criterion_1_bc_totals_on_dihedral_torus(capsys):
    start = time.monotonic()
    doc = _run_json(capsys, ["bc", "--fixture", "d4-torus"])
    elapsed = time.monotonic() - start
    per_class = [(row["even"], row["odd"]) for row in doc["payload"]["per_class"]]
    assert per_class == [(1, 0), (3, 0), (2, 0), (2, 0), (1, 0)]
    assert [row["rep"] for row in doc["payload"]["per_class"]] == \
        ["E", "R2", "R", "S", "SR"]
    assert doc["payload"]["totals"] == {"even": 9, "odd": 0}
    assert elapsed < 60.0, "budget exceeded: %.1fs" % elapsed
    _report(1, "d4-torus localization totals (9, 0), per-class exact, "
               "%.1fs < 60s" % elapsed)


def test_criterion_2_integral_k_theory_of_rotation_torus(capsys):
    start = time.monotonic()
    doc = _run_json(capsys, ["ktheory", "--fixture", "z4-torus"])
    bc_doc = _run_json(capsys, ["bc", "--fixture", "z4-torus"])
    elapsed = time.monotonic() - start
    assert doc["payload"]["k0"] == {"rank": 9, "torsion": []}
    assert doc["payload"]["k1"] == {"rank": 0, "torsion": []}
    assert doc["payload"]["boundary_status"] == "provably-zero"
    assert doc["flags"] == [{"type": "paper-discrepancy",
                             "example": "ex-sphere",
                             "published_k0_rank": 8,
                             "computed_k0_rank": 9}]
    assert bc_doc["payload"]["totals"] == {"even": 9, "odd": 0}
    assert elapsed < 30.0, "budget exceeded: %.1fs" % elapsed
    _report(2, "z4-torus K0 = Z^9 torsion-free, K1 = 0, discrepancy "
               "flagged, %.1fs < 30s" % elapsed)


def test_criterion_3_reflection_circle(capsys):
    start = time.monotonic()
    doc = _run_json(capsys, ["ktheory", "--fixture", "z2-circle"])
    prim = _run_json(capsys, ["prim", "--aggregate", "--fixture",
                              "z2-circle"])
    group = cyclic_group(2)
    endpoint = fiber_decomposition(group, group.full_subgroup())
    interior = fiber_decomposition(group, group.subgroup([]))
    elapsed = time.monotonic() - start
    assert doc["payload"]["k0"] == {"rank": 3, "torsion": []}
    assert doc["payload"]["k1"] == {"rank": 0, "torsion": []}
    assert len(prim["payload"]["nodes"]) == 5
    assert prim["payload"]["ix"] == [0, 2, 3]  # verified open by the command
    assert [(d, m) for _r, d, m in endpoint.blocks] == [(1, 1), (1, 1)]
    assert [(d, m) for _r, d, m in interior.blocks] == [(2, 1)]
    assert elapsed < 5.0, "budget exceeded: %.1fs" % elapsed
    _report(3, "z2-circle K0 = Z^3, 5 nodes with open size-3 ideal set, "
               "fiber blocks 1+1 / 2x2, %.1fs < 5s" % elapsed)


def test_criterion_4_fiber_block_inventory():
    g = dihedral_group(4)
    cases = {
        "reflection": (g.subgroup([4]), [(4, 1), (4, 1)]),
        "order-4": (g.subgroup([2, 4]), [(2, 1), (2, 1), (2, 1), (2, 1)]),
        "full": (g.full_subgroup(),
                 [(1, 1), (1, 1), (1, 1), (1, 1), (2, 2)]),
        "trivial": (g.subgroup([]), [(8, 1)]),
    }
    for label, (sub, want) in cases.items():
        decomp = fiber_decomposition(g, sub)
        got = [(dim, mult) for _r, dim, mult in decomp.blocks]
        assert got == want, "%s: %r != %r" % (label, got, want)
        assert sum(d * m for d, m in got) == 8
    _report(4, "dihedral fiber blocks: 2xM4 / 4xM2 / 4xM1 + M2 mult 2 / M8, "
               "all summing to 8")


def test_criterion_5_restriction_tables():
    g = dihedral_group(4)
    h = g.subgroup([2, 4])
    full = g.full_subgroup()
    cases = [
        (g.subgroup([7]), full, ((1, 1, 0, 0, 1), (0, 0, 1, 1, 1))),
        (g.subgroup([5]), full, ((1, 1, 0, 0, 1), (0, 0, 1, 1, 1))),
        (g.subgroup([4]), full, ((1, 0, 1, 0, 1), (0, 1, 0, 1, 1))),
        (g.subgroup([4]), h, ((1, 0, 1, 0), (0, 1, 0, 1))),
        (h, full, ((1, 0, 1, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 0, 1),
                   (0, 1, 0, 1, 0))),
    ]
    for sub, ambient, want in cases:
        m = inclusion_multiplicities(g, sub, ambient)
        assert m.entries == want, "%r != %r" % (m.entries, want)
    _report(5, "all dihedral restriction matrices entrywise exact "
               "(5 subgroup pairs)")


def test_criterion_6_prim_poset_and_filtration():
    start = time.monotonic()
    gx = fixture("d4-torus")
    agg = aggregate_strata(specialization(gx), gx)
    ladder = [
        [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)],
        [(1, 1), (3, 1), (4, 1), (0, 3), (5, 3), (2, 3)],
        [(0, 1), (0, 2), (0, 4), (5, 1), (5, 2), (5, 4), (2, 1), (2, 2)],
    ]
    report = filtration_report(agg, gx, ladder)
    closure = agg.closure([agg.index_of((3, 0))])
    corner = sorted(agg.nodes[i].irrep_id for i in closure
                    if agg.nodes[i].orbit_id == 0)
    elapsed = time.monotonic() - start
    assert len(agg) == 21
    assert report.step_counts == (7, 6, 8)
    assert report.cumulative_counts == (7, 13, 21)
    assert corner == [0, 1, 4]
    assert elapsed < 60.0, "budget exceeded: %.1fs" % elapsed
    _report(6, "21 aggregated nodes, open 3-step filtration 7/6/8, corner "
               "closure irreps {0, 1, 4}, %.1fs < 60s" % elapsed)


def test_criterion_7_euler_cross_checks():
    expected = {"d4-torus": 9, "z4-torus": 9, "z2-flip-torus": 6,
                "z2-circle": 3}
    quotient_euler = {"d4-torus": 1, "z4-torus": 2, "z2-flip-torus": 2,
                      "z2-circle": 1}
    isolated_names = ("z4-torus", "z2-flip-torus", "z2-circle")
    identities = {"z4-torus": 7, "z2-flip-torus": 4, "z2-circle": 2}
    for name, want in expected.items():
        gx = fixture(name)
        assert equivariant_euler(gx, "bc") == want
        assert equivariant_euler(gx, "commuting_pairs") == want
        if name in isolated_names:
            assert equivariant_euler(gx, "isolated") == want
        check = euler_quotient_check(gx)
        assert check.equal and check.lhs == quotient_euler[name]
        if name in identities:
            identity = bc_vs_count_identity(gx)
            assert identity.equal
            assert identity.lhs == identities[name]
    _report(7, "all Euler routes agree on every fixture (incl. z4-torus "
               "7 = 7 count identity)")


def _orthogonality(group):
    table = character_table(group)
    assert sum(d * d for _, d, _ in table.irreps) == group.order
    sizes = [len(c) for c in table.conjugacy.classes]
    for a in range(len(table)):
        for b in range(len(table)):
            acc = Cyclotomic.zero(table.conductor)
            va, vb = table.values(a), table.values(b)
            for i, size in enumerate(sizes):
                acc = acc + va[i] * vb[i].conjugate() * size
            assert acc.is_rational()
            want = Fraction(group.order if a == b else 0)
            assert acc.rational_value() == want


def _all_subgroups(group):
    seen = {}
    elements = range(group.order)
    for a in elements:
        for b in elements:
            sub = group.subgroup([a, b])
            seen[sub.elements] = sub
    return list(seen.values())


def _frobenius(group):
    big = character_table(group)
    full = group.full_subgroup()
    for sub in _all_subgroups(group):
        small = subgroup_table(sub)
        for i in range(len(big)):
            chi = big.character(i)
            for j in range(len(small)):
                psi = small.character(j)
                induced = induced_character(psi, sub)
                assert (multiplicity(chi, psi, sub)
                        == multiplicity(induced, big.character(i), full))


def test_criterion_8_property_families():
    start = time.monotonic()
    names = ("d4-torus", "z4-torus", "z2-flip-torus", "z2-circle")
    fixtures = {name: fixture(name) for name in names}

    for gx in fixtures.values():
        _orthogonality(gx.group)          # orthogonality and sum d^2 = |G|
        _frobenius(gx.group)              # reciprocity on all subgroup pairs
        ChainComplex.from_complex(gx.complex)          # boundary^2 = 0 ...
        ChainComplex.from_complex(quotient_complex(gx).complex)
        for k in range(1, gx.complex.dimension + 1):   # two-oracle ranks
            matrix = boundary_matrix(gx.complex, k)
            rank = rational_rank(matrix)
            assert fraction_free_rank(matrix) == rank
            assert len(smith_invariant_factors(matrix)) == rank
        assert invariants_check(gx).all_equal
        specialization(gx)  # constructor verifies reflexive + transitive

    # subdivision invariance of homology and of localization totals
    gx = fixtures["z2-circle"]
    sd = barycentric_subdivide(gx)
    assert homology_integral(gx.complex).betti == \
        homology_integral(sd.complex).betti
    before = bc_decomposition(gx).totals
    after = bc_decomposition(sd).totals
    assert (before.even, before.odd) == (after.even, after.odd) == (3, 0)

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, "budget exceeded: %.1fs" % elapsed
    _report(8, "property families exact on all fixtures, %.1fs < 300s"
               % elapsed)
