import time
from fractions import Fraction

import pytest

from orbikt import (ChainComplex, HomologyResult, InternalInconsistency,
                    KRanks, SimplicialComplex, boundary_matrix,
                    euler_characteristic, fixture, fraction_free_rank,
                    homology_integral, smith_invariant_factors)
from linalg_oracle import rational_rank
from transfer_oracle import (chain_map_matrix, induced_homology_matrix,
                             invariant_cohomology_dims)


def sphere2():
    """Boundary of the tetrahedron."""
    return SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def projective_plane():
    """The 6-vertex triangulation (antipodal quotient of the icosahedron):
    15 edges, 10 triangles, every edge in exactly two of them."""
    return SimplicialComplex(6, [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ])


def test_disagreeing_rank_oracles_are_an_internal_inconsistency(
        monkeypatch, capsys):
    """Every rank is taken by both oracles; a fraction-free rank one too
    high stops the computation, and the command ends in one line."""
    from orbikt import homology
    from orbikt.cli import main

    rank = homology.fraction_free_rank
    monkeypatch.setattr(homology, "fraction_free_rank",
                        lambda matrix: rank(matrix) + 1)
    with pytest.raises(InternalInconsistency) as info:
        homology_integral(sphere2())
    assert str(info.value) == ("rank oracles disagree: SNF 3 vs "
                               "fraction-free 4")
    assert main(["betti", "--fixture", "z4-torus"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("orbikt: InternalInconsistency: rank oracles disagree: "
                   "SNF 31 vs fraction-free 32\n")


def test_boundary_of_boundary_is_zero():
    for complex in (sphere2(), projective_plane(),
                    fixture("d4-torus").complex):
        ChainComplex.from_complex(complex)  # constructor asserts dd = 0


def test_nonzero_boundary_of_boundary_is_refused():
    with pytest.raises(InternalInconsistency, match="degree 2"):
        ChainComplex((1, 1, 1), [[], [{0: 1}], [{0: 1}]])


def test_boundary_matrix_signs():
    c = SimplicialComplex(3, [(0, 1, 2)])
    # edges ordered (0,1), (0,2), (1,2); boundary of the triangle
    assert boundary_matrix(c, 2) == [[1], [-1], [1]]


def test_smith_normal_form_diagonal_cases():
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[1, 0], [0, 0]]) == [1]
    assert smith_invariant_factors([[0]]) == []
    assert smith_invariant_factors([[2, 4], [4, 8]]) == [2]
    assert smith_invariant_factors([[4, 2], [2, 4]]) == [2, 6]


def test_smith_divisibility_chain():
    m = [[6, 4, 2], [4, 6, 8], [2, 8, 6]]
    factors = smith_invariant_factors(m)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_rank_oracles_agree_on_random_like_matrices():
    mats = [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 0], [0, 0]],
        [[5]],
        [[2, 3], [4, 6]],
        [[1, 0, 2], [0, 1, 3]],
    ]
    for m in mats:
        snf_rank = len(smith_invariant_factors(m))
        assert snf_rank == fraction_free_rank(m)
        assert snf_rank == rational_rank(m)


def test_homology_of_interval():
    c = SimplicialComplex(2, [(0, 1)])
    h = homology_integral(c)
    assert h.betti == (1, 0)
    assert h.torsion == ((), ())


def test_homology_of_circle():
    h = homology_integral(fixture("z2-circle").complex)
    assert h.betti == (1, 1)
    assert h.torsion == ((), ())


def test_homology_of_sphere():
    h = homology_integral(sphere2())
    assert h.betti == (1, 0, 1)
    assert h.torsion == ((), (), ())


def test_homology_of_torus():
    h = homology_integral(fixture("d4-torus").complex)
    assert h.betti == (1, 2, 1)
    assert h.torsion == ((), (), ())


def test_homology_of_projective_plane_has_torsion():
    h = homology_integral(projective_plane())
    assert h.betti == (1, 0, 0)
    assert h.torsion == ((), (2,), ())


def klein_bottle(n):
    """The grid-n torus triangulation (a centre vertex per square) with
    (i, j + n) identified with (-i mod n, j) instead of (i, j)."""
    def corner(i, j):
        if j == n:
            i, j = -i, 0
        return (i % n) * n + j

    triangles = []
    for i in range(n):
        for j in range(n):
            c00, c10 = corner(i, j), corner(i + 1, j)
            c11, c01 = corner(i + 1, j + 1), corner(i, j + 1)
            m = n * n + i * n + j
            triangles += [(c00, c10, m), (c10, c11, m),
                          (c11, c01, m), (c01, c00, m)]
    return SimplicialComplex(2 * n * n, triangles)


def test_homology_of_grid_16_klein_bottle_is_fast():
    """d2 is 1536 x 1024: the unit pass, then the 2-torsion core."""
    complex = klein_bottle(16)
    start = time.perf_counter()
    h = homology_integral(complex)
    elapsed = time.perf_counter() - start
    assert h.betti == (1, 1, 0)
    assert h.torsion == ((), (2,), ())
    assert elapsed < 3.0


def test_one_dense_boundary_matrix_at_a_time(inputs):
    """A chain complex keeps sparse columns and makes each d_k dense only
    for its rank oracles, so the peak stays below the dense pointers of all
    the d_k together (8 bytes an entry): on the grid-12 torus, about 5.4 MiB
    against 5.7 MiB, where holding every d_k at once peaked at 7.1 MiB."""
    import tracemalloc

    complex = inputs.torus_action("d4", 12).complex
    dims = complex.f_vector()
    all_dense = 8 * sum(dims[k - 1] * dims[k] for k in range(1, len(dims)))
    tracemalloc.start()
    try:
        homology_integral(complex)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * all_dense


def test_euler_characteristics():
    assert euler_characteristic(sphere2()) == 2
    assert euler_characteristic(projective_plane()) == 1
    assert euler_characteristic(fixture("d4-torus").complex) == 0


def test_k_ranks_sum_betti_by_parity():
    kr = homology_integral(fixture("d4-torus").complex).k_ranks()
    assert (kr.even, kr.odd) == (2, 2)
    kr = homology_integral(projective_plane()).k_ranks()
    assert (kr.even, kr.odd) == (1, 0)


def test_result_records_add_compare_and_print_as_before():
    total = KRanks(1, 2) + KRanks(3, 4)
    assert total == (4, 6) and total == KRanks(4, 6)
    assert repr(total) == "KRanks(even=4, odd=6)"
    h = homology_integral(projective_plane())
    assert repr(h) == ("HomologyResult(betti=(1, 0, 0), "
                       "torsion=((), (2,), ()))")
    assert h == HomologyResult((1, 0, 0), ((), (2,), ()))


def test_induced_map_on_top_homology_detects_orientation():
    gx = fixture("z2-flip-torus")
    # the half turn preserves orientation of the torus: +1 on degree 2,
    # -1 on each degree-1 generator pair determinant... check traces instead
    m2 = induced_homology_matrix(gx, 1, 2)
    assert m2 == [[Fraction(1)]]
    m0 = induced_homology_matrix(gx, 1, 0)
    assert m0 == [[Fraction(1)]]
    m1 = induced_homology_matrix(gx, 1, 1)
    # the flip negates both circle factors
    assert m1 == [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def test_chain_maps_are_signed_permutations_commuting_with_boundaries(
        d4_torus):
    """g_# d = d g_# on every degree, for every element of D4."""
    complex = d4_torus.complex
    for g in range(d4_torus.group.order):
        maps = [chain_map_matrix(d4_torus, g, k) for k in range(3)]
        for matrix in maps:
            assert all(sorted(map(abs, row)) == [0] * (len(row) - 1) + [1]
                       for row in matrix)
        for k in (1, 2):
            d = boundary_matrix(complex, k)
            assert _product(d, maps[k]) == _product(maps[k - 1], d)


def test_identity_induces_identity(z2_circle):
    m = induced_homology_matrix(z2_circle, 0, 1)
    assert m == [[Fraction(1)]]


def test_invariant_cohomology_dimensions(all_fixtures):
    expected = {
        "d4-torus": (1, 0, 0),
        "z4-torus": (1, 0, 1),
        "z2-flip-torus": (1, 0, 1),
        "z2-circle": (1, 0),
    }
    for name, gx in all_fixtures.items():
        assert invariant_cohomology_dims(gx) == expected[name]


def test_homology_is_subdivision_invariant():
    from orbikt import barycentric_subdivide
    gx = fixture("z2-circle")
    sd = barycentric_subdivide(gx)
    assert homology_integral(sd.complex).betti == \
        homology_integral(gx.complex).betti
