import time
from fractions import Fraction

import pytest

from orbikt import (BoundExceeded, Cyclotomic, InternalInconsistency,
                    NotSubgroup, character_table, conjugate_irrep,
                    cyclic_group, dihedral_group, induced_character,
                    multiplicity, product_group, restrict_character,
                    subgroup_table, trivial_group)
from orbikt import characters
from orbikt.characters import Character, CharacterTable, _verify_table
from orbikt.groups import conjugacy_data


def chars_as_strings(table):
    return [(rid, d, [str(v) for v in vals]) for rid, d, vals in table.irreps]


def test_trivial_group_table():
    t = character_table(trivial_group())
    assert chars_as_strings(t) == [(0, 1, ["1"])]


def test_cyclic4_table_frozen():
    t = character_table(cyclic_group(4))
    assert chars_as_strings(t) == [
        (0, 1, ["1", "1", "1", "1"]),
        (1, 1, ["1", "-1", "1", "-1"]),
        (2, 1, ["1", "-z4", "-1", "z4"]),
        (3, 1, ["1", "z4", "-1", "-z4"]),
    ]


def test_cyclic3_table_frozen():
    t = character_table(cyclic_group(3))
    assert chars_as_strings(t) == [
        (0, 1, ["1", "1", "1"]),
        (1, 1, ["1", "-1 - z3", "z3"]),
        (2, 1, ["1", "z3", "-1 - z3"]),
    ]


def test_dihedral4_table_frozen():
    """Classes in order [E], [R2], [R], [S], [SR]; the four linear rows and
    one degree-2 row, trivial first."""
    g = dihedral_group(4)
    t = character_table(g)
    assert chars_as_strings(t) == [
        (0, 1, ["1", "1", "1", "1", "1"]),
        (1, 1, ["1", "1", "-1", "-1", "1"]),
        (2, 1, ["1", "1", "-1", "1", "-1"]),
        (3, 1, ["1", "1", "1", "-1", "-1"]),
        (4, 2, ["2", "-2", "0", "0", "0"]),
    ]


def test_klein_four_table_all_linear():
    t = character_table(product_group(cyclic_group(2), cyclic_group(2)))
    degrees = [d for _rid, d, _v in t.irreps]
    assert degrees == [1, 1, 1, 1]


def test_dihedral3_table_frozen():
    t = character_table(dihedral_group(3))
    assert [(rid, d) for rid, d, _ in t.irreps] == [(0, 1), (1, 1), (2, 2)]
    assert [str(v) for v in t.values(2)] == ["2", "-1", "0"]


def test_sum_of_degree_squares_is_group_order():
    for g in (cyclic_group(5), dihedral_group(4), dihedral_group(6),
              product_group(cyclic_group(2), cyclic_group(4))):
        t = character_table(g)
        assert sum(d * d for _rid, d, _v in t.irreps) == g.order


def test_row_orthogonality_dihedral4():
    g = dihedral_group(4)
    t = character_table(g)
    cd = conjugacy_data(g)
    n = len(t.irreps)
    for i in range(n):
        for j in range(n):
            acc = Cyclotomic.zero(t.conductor)
            for c, members in enumerate(cd.classes):
                acc = acc + (t.values(i)[c] * t.values(j)[c].conjugate()
                             * len(members))
            expected = g.order if i == j else 0
            assert acc == Cyclotomic.from_rational(t.conductor, expected)


def test_character_value_on_element():
    g = dihedral_group(4)
    t = character_table(g)
    chi = t.character(4)
    assert str(chi.value_on_element(0)) == "2"
    assert str(chi.value_on_element(2)) == "-2"
    for elt in (1, 3, 4, 5, 6, 7):
        assert chi.value_on_element(elt).is_zero()


def test_degree_one_bound_exceeded(monkeypatch):
    monkeypatch.setattr(characters, "CHARACTER_TABLE_BOUND", 3)
    with pytest.raises(BoundExceeded):
        character_table(cyclic_group(4))


def test_subgroup_table_uses_parent_exponent():
    g = dihedral_group(4)
    h = g.subgroup([2, 4])
    t = subgroup_table(h)
    assert t.conductor == g.exponent()


def test_restriction_multiplicities_of_plane_representation():
    """The degree-2 row restricted to the rotation subgroup splits into the
    two primitive linear characters, missing the trivial and order-2 ones."""
    g = dihedral_group(4)
    rot = g.subgroup([1])
    t = character_table(g)
    chi = t.character(4)
    mults = [multiplicity(chi, subgroup_table(rot).character(j), rot)
             for j in range(4)]
    assert mults == [0, 0, 1, 1]


def test_restriction_of_linear_characters_to_reflection():
    g = dihedral_group(4)
    k = g.subgroup([4])  # <S>
    t = character_table(g)
    tk = subgroup_table(k)
    triv, sign = tk.character(0), tk.character(1)
    # rows with value +1 at S contain the trivial character of <S>
    assert [multiplicity(t.character(i), triv, k) for i in range(5)] == \
        [1, 0, 1, 0, 1]
    assert [multiplicity(t.character(i), sign, k) for i in range(5)] == \
        [0, 1, 0, 1, 1]


def test_restrict_character_values():
    g = dihedral_group(4)
    h = g.subgroup([2, 4])
    chi = character_table(g).character(4)
    res = restrict_character(chi, h)
    assert [str(v) for v in res.values] == ["2", "-2", "0", "0"]


def test_conjugate_irrep_transports_between_conjugate_subgroups():
    g = dihedral_group(4)
    k = g.subgroup([4])       # <S>
    conj_sub, tau = conjugate_irrep(1, 1, k)  # transport sign along R
    assert conj_sub.elements == (0, 6)        # <SR2>
    assert tau == 1  # sign goes to sign
    conj_sub, tau = conjugate_irrep(1, 0, k)
    assert tau == 0  # trivial goes to trivial


def test_frobenius_reciprocity_examples():
    g = dihedral_group(4)
    t = character_table(g)
    full = g.full_subgroup()
    for sub in (g.subgroup([4]), g.subgroup([1]), g.subgroup([2, 4])):
        ts = subgroup_table(sub)
        for sid, _d, _v in ts.irreps:
            psi = ts.character(sid)
            induced = induced_character(psi, sub)
            for rid, _dd, _vv in t.irreps:
                chi = t.character(rid)
                lhs = multiplicity(induced, chi, full)
                rhs = multiplicity(chi, psi, sub)
                assert lhs == rhs


def test_induced_character_degree():
    g = dihedral_group(4)
    k = g.subgroup([4])
    psi = subgroup_table(k).character(1)
    ind = induced_character(psi, k)
    assert ind.degree_value == g.order // k.order


def test_tables_are_cached():
    g = dihedral_group(4)
    assert character_table(g) is character_table(g)
    h1, h2 = g.subgroup([4]), g.subgroup([4])
    assert subgroup_table(h1) is subgroup_table(h2)


def test_restrict_character_rejects_foreign_subgroup():
    chi = character_table(dihedral_group(4)).character(4)
    other = dihedral_group(4).subgroup([1])
    with pytest.raises(NotSubgroup):
        restrict_character(chi, other)


def test_character_rejects_wrong_value_count():
    g = dihedral_group(4)
    with pytest.raises(InternalInconsistency):
        Character(g, character_table(g).values(4)[:-1])


def _with_value(table, rid, cls, value):
    """A copy of the table with one value of irrep rid replaced."""
    irreps = list(table.irreps)
    _, d, vals = irreps[rid]
    vals = list(vals)
    vals[cls] = value
    irreps[rid] = (rid, d, tuple(vals))
    return CharacterTable(table.group, table.conductor, irreps)


# C24 and D4xD4 (|G| <= 64) check every pair of rows; D8xC6 (|G| = 96)
# checks the diagonal pairs and the trivial row against each other row.
MUTATED_GROUPS = {
    "C24": (lambda: cyclic_group(24), 23 * 23),
    "D4xD4": (lambda: product_group(dihedral_group(4), dihedral_group(4)),
              24 * 24),
    "D8xC6": (lambda: product_group(dihedral_group(8), cyclic_group(6)),
              41 * 41),
}


@pytest.mark.parametrize("name", sorted(MUTATED_GROUPS))
def test_verify_table_catches_every_single_value_change(name):
    """Adding zeta to any one non-identity value of any non-trivial row
    breaks orthogonality, whichever set of pairs is checked."""
    build, expected = MUTATED_GROUPS[name]
    g = build()
    table = character_table(g)
    _verify_table(table)
    zeta = Cyclotomic.root_of_unity(table.conductor, 1)
    identity = conjugacy_data(g).class_of[g.identity]
    caught = 0
    for rid, _d, vals in table.irreps[1:]:
        for cls, value in enumerate(vals):
            if cls == identity:
                continue
            with pytest.raises(InternalInconsistency):
                _verify_table(_with_value(table, rid, cls, value + zeta))
            caught += 1
    assert caught == expected


@pytest.mark.parametrize("name", ["C24", "D4xD4"])
def test_verify_table_checks_pairs_of_non_trivial_rows(name):
    """A repeated linear row keeps every degree, norm and inner product
    with the trivial row; only the pair of the two copies shows it."""
    g = MUTATED_GROUPS[name][0]()
    table = character_table(g)
    assert table.degree(1) == table.degree(2) == 1
    irreps = list(table.irreps)
    irreps[2] = (2, 1, table.values(1))
    with pytest.raises(InternalInconsistency, match=r"orthogonality"):
        _verify_table(CharacterTable(g, table.conductor, irreps))


def _with_degrees(table, degrees):
    """A copy of the table with the degree records replaced."""
    return CharacterTable(table.group, table.conductor,
                          [(rid, d, vals) for (rid, _, vals), d
                           in zip(table.irreps, degrees)])


@pytest.mark.parametrize("mutate, message", [
    (lambda t: CharacterTable(t.group, t.conductor, t.irreps[:-1]),
     "irrep count != class count"),
    (lambda t: _with_degrees(t, [1, 1, 1, 1, 3]),
     "sum of squared degrees != |G|"),
    (lambda t: CharacterTable(t.group, t.conductor, [
        (0, 1, t.values(1)), (1, 1, t.values(0)), *t.irreps[2:]]),
     "irrep 0 is not the trivial character"),
    (lambda t: CharacterTable(t.group, t.conductor, [
        t.irreps[0], (1, 1, t.values(4)), *t.irreps[2:]]),
     "degree disagrees with identity value"),
], ids=["count", "squares", "trivial", "identity-value"])
def test_verify_table_checks_the_shape_of_the_table(mutate, message):
    """Each mutant of the D4 table passes the checks made before the one
    it names."""
    table = character_table(dihedral_group(4))
    assert [d for _, d, _ in table.irreps] == [1, 1, 1, 1, 2]
    with pytest.raises(InternalInconsistency) as info:
        _verify_table(mutate(table))
    assert str(info.value) == message


def test_verify_table_checks_that_each_degree_divides_the_order():
    """D11 has degrees 1, 1, 2, 2, 2, 2, 2; the records 1, 4, 1, 1, 1, 1, 1
    keep the count and the sum of squares 22, but 4 does not divide 22."""
    table = character_table(dihedral_group(11))
    assert [d for _, d, _ in table.irreps] == [1, 1, 2, 2, 2, 2, 2]
    with pytest.raises(InternalInconsistency) as info:
        _verify_table(_with_degrees(table, [1, 4, 1, 1, 1, 1, 1]))
    assert str(info.value) == "degree does not divide |G|"


def test_each_character_value_is_converted_once(monkeypatch):
    """The rows are sorted on the values' own coefficients, so only
    _verify_table converts them, once per value object."""
    group = product_group(dihedral_group(8), cyclic_group(6))
    seen = []
    convert = characters._integer_coefficients

    def spy(value):
        seen.append(value)
        return convert(value)

    monkeypatch.setattr(characters, "_integer_coefficients", spy)
    character_table(group)
    assert len(seen) == len({id(v) for v in seen}) == 24


def test_verify_table_rejects_non_integral_value():
    g = dihedral_group(4)
    table = character_table(g)
    half = table.values(4)[2] + Fraction(1, 2)
    with pytest.raises(InternalInconsistency, match="algebraic integer"):
        _verify_table(_with_value(table, 4, 2, half))


# -- the Dixon split and lift ------------------------------------------------


def _class_matrix(cd, group, i):
    """N_i[j][k] = #{(x, y) in C_i x C_j : xy = rep_k}, from the definition."""
    r = len(cd.classes)
    n = [[0] * r for _ in range(r)]
    for k, z in enumerate(cd.reps):
        for x in cd.classes[i]:
            for y in range(group.order):
                if group.mult[x][y] == z:
                    n[cd.class_of[y]][k] += 1
    return n


@pytest.mark.parametrize("name", sorted(MUTATED_GROUPS))
def test_combination_matrix_is_the_combination_of_class_matrices(name):
    g = MUTATED_GROUPS[name][0]()
    cd = conjugacy_data(g)
    p = 193
    coeffs = [(7 * i * i + 3) % p for i in range(len(cd.classes))]
    want = [[0] * len(cd.classes) for _ in cd.classes]
    for i, c in enumerate(coeffs):
        for row, n_row in zip(want, _class_matrix(cd, g, i)):
            for k, x in enumerate(n_row):
                row[k] = (row[k] + c * x) % p
    assert characters._combination_matrix(cd, g, coeffs, p) == want


def test_split_that_never_separates_raises(monkeypatch):
    """With every coefficient equal, the combination is the sum of all class
    sums, which separates only the trivial character: the rounds run out
    and the split refuses instead of looping."""
    def constant(p):
        while True:
            yield 1
    monkeypatch.setattr(characters, "_coefficient_stream", constant)
    with pytest.raises(InternalInconsistency, match="did not fully split"):
        characters._dixon_rows(cyclic_group(5), 5)


def test_galois_derived_values_are_checked_mod_p(monkeypatch):
    """Deriving chi(g^k) with the inverse exponent (t -> t k^-1) disagrees
    with the eigenvectors' values mod p and is refused."""
    real = characters._galois_orbits

    def inverted(group, cd):
        source = real(group, cd)
        return [(i, k if powers else pow(k, -1, len(source[i][2])), powers)
                for i, k, powers in source]
    monkeypatch.setattr(characters, "_galois_orbits", inverted)
    with pytest.raises(InternalInconsistency, match="Galois-derived"):
        characters._dixon_rows(cyclic_group(5), 5)


def test_galois_orbits_of_cyclic_group():
    g = cyclic_group(12)
    source = characters._galois_orbits(g, conjugacy_data(g))
    reps = [i for i, (j, _, powers) in enumerate(source) if powers]
    # one rational class per divisor of 12
    assert len(reps) == 6
    for j, (i, k, powers) in enumerate(source):
        o = len(source[i][2])
        assert g.power(conjugacy_data(g).reps[i], k) == conjugacy_data(g).reps[j]
        assert (powers is None) == (i != j)
        assert powers is None or (len(powers) == o and k == 1)


def test_cyclic_128_table_within_ten_seconds():
    start = time.perf_counter()
    table = character_table(cyclic_group(128))
    assert time.perf_counter() - start < 10
    assert len(table) == 128 and table.conductor == 128
