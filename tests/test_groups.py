import time

import pytest

from orbikt import (FiniteGroup, NotAGroup, NotSubgroup, commuting_pairs,
                    conjugacy_data, cyclic_group, dihedral_group,
                    group_from_permutations, product_group, trivial_group)
from orbikt import groups
from orbikt.formats import parse_group_text
from orbikt.groups import Subgroup


def test_trivial_group():
    g = trivial_group()
    assert g.order == 1 and g.identity == 0


def test_cyclic_group_structure():
    g = cyclic_group(6)
    assert g.order == 6
    assert g.is_abelian
    assert g.exponent() == 6
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.inverse(1) == 5


def test_dihedral_group_relations():
    g = dihedral_group(4)
    assert g.order == 8
    assert not g.is_abelian
    assert g.exponent() == 4
    R, S = 1, 4
    # S R S^-1 = R^-1
    assert g.conj(S, R) == g.inverse(R)
    assert g.element_order(S) == 2
    assert g.element_order(R) == 4
    # reflections square to the identity
    for k in range(4):
        assert g.element_order(4 + k) == 2


def test_dihedral_names_resolve():
    g = dihedral_group(4)
    assert g.name_of(0) == "E"
    assert g.element_index("R2") == 2
    assert g.element_index("SR3") == 7
    assert g.element_index("5") == 5
    with pytest.raises(NotAGroup):
        g.element_index("bogus")


def test_product_group_is_componentwise():
    g = product_group(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.is_abelian
    assert g.exponent() == 6


def test_bad_table_rejected():
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1], [1, 2]])  # entry out of range
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1], [0, 1]])  # rows not permutations
    # associative magma with identity but non-invertible rows is impossible
    # for Latin squares, so break associativity instead:
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])


def _closure(degree, perms):
    """The elements of <perms>, breadth first from the identity, each
    element's products with the generators in generator order."""
    elements = [tuple(range(degree))]
    for p in elements:
        for q in perms:
            composed = tuple(p[q[i]] for i in range(degree))
            if composed not in elements:
                elements.append(composed)
    return elements


def test_group_from_permutations_dihedral():
    perms = [(1, 2, 3, 0), (0, 3, 2, 1)]
    g = group_from_permutations(4, perms)
    assert g.order == 8
    assert not g.is_abelian
    elements = _closure(4, perms)
    for a, x in enumerate(elements):
        for b, y in enumerate(elements):
            assert elements[g.mult[a][b]] == tuple(x[y[i]] for i in range(4))


def test_permutation_group_of_large_degree_parses_quickly():
    """One 512-cycle on 2048 points: the table is filled by lookups along
    the expansion, not by composing 512^2 permutations of degree 2048."""
    cycle = [(i + 1) % 512 for i in range(512)] + list(range(512, 2048))
    text = "group 512\nperm 2048\n%s\n" % " ".join(map(str, cycle))
    start = time.perf_counter()
    g = parse_group_text(text)
    assert time.perf_counter() - start < 2
    assert g.order == 512 and g.is_abelian
    assert g.element_order(1) == 512


def test_subgroup_closure_and_index():
    g = dihedral_group(4)
    h = g.subgroup([2, 4])
    assert h.elements == (0, 2, 4, 6)
    assert h.order == 4
    assert h.index_in_parent == 2
    assert g.subgroup([]).elements == (0,)
    assert g.subgroup([1]).elements == (0, 1, 2, 3)


def test_subgroup_spans_its_generators_once(monkeypatch):
    """subgroup() lists the span of its generators with one _span walk and
    does not walk it again to prove it closed; a generator out of range is
    refused before any walk."""
    g = cyclic_group(12)
    calls = []
    original = groups._span

    def spy(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(groups, "_span", spy)
    assert g.subgroup([4, 6]).elements == (0, 2, 4, 6, 8, 10)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(NotSubgroup) as info:
        g.subgroup([4, 12])
    assert str(info.value) == "generator index 12 out of range"
    assert calls == []


def test_subgroup_order_needs_a_common_parent():
    g = dihedral_group(4)
    assert g.subgroup([2]) <= g.subgroup([1])
    with pytest.raises(NotSubgroup):
        g.subgroup([2]) <= dihedral_group(4).subgroup([1])


def test_subgroup_reification_is_canonical():
    g = dihedral_group(4)
    a = g.subgroup([2, 4])
    b = g.subgroup([4, 6])
    assert a == b
    assert a.group is b.group  # same reified object, not just equal


def test_subgroup_reification_multiplication_matches_parent():
    g = dihedral_group(4)
    h = g.subgroup([2, 4])
    inner = h.group
    for i, a in enumerate(h.elements):
        for j, b in enumerate(h.elements):
            assert h.elements[inner.mult[i][j]] == g.mult[a][b]


def test_conjugate_subgroup():
    g = dihedral_group(4)
    k = g.subgroup([4])        # <S>
    conj = k.conjugate(1)      # R <S> R^-1 = <SR2>
    assert conj.elements == (0, 6)


def test_conjugacy_classes_of_dihedral4():
    g = dihedral_group(4)
    cd = conjugacy_data(g)
    assert [g.name_of(r) for r in cd.reps] == ["E", "R2", "R", "S", "SR"]
    assert [len(c) for c in cd.classes] == [1, 1, 2, 2, 2]
    # class_of is consistent with the classes
    for i, members in enumerate(cd.classes):
        for m in members:
            assert cd.class_of[m] == i


def test_commuting_pairs_count():
    # sum over classes of |class| * |centralizer| = (number of classes) * |G|
    g = dihedral_group(4)
    assert len(list(commuting_pairs(g))) == 5 * 8


def test_centralizer_of_rotation():
    g = dihedral_group(4)
    assert g.centralizer(1).elements == (0, 1, 2, 3)
    assert g.centralizer(2).order == 8  # R2 is central


@pytest.mark.parametrize("elements, message", [
    ([0, 1, 5], "closed under product"),    # 1 + 1 = 2 is missing
    ([0, 2, 4, 1], "does not divide"),      # order 4 in C6
    ([0, 3, 6], "out of range"),
    ([1, 2, 3], "identity"),
])
def test_non_subgroups_are_refused(elements, message):
    g = cyclic_group(6)
    with pytest.raises(NotSubgroup, match=message):
        Subgroup(g, elements)


def test_closure_check_covers_non_abelian_products():
    g = dihedral_group(4)
    # {E, R2, S, SR}: closed under inverses, order 4 divides 8, but
    # S * SR = R is missing
    with pytest.raises(NotSubgroup, match="closed under product"):
        Subgroup(g, [0, 2, 4, 5])
    for h in range(g.order):
        assert Subgroup(g, g.centralizer(h).elements).elements == \
            g.centralizer(h).elements
