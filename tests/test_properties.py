"""Generated-input invariants: ring laws, orthogonality, reciprocity,
chain-complex identities, dual-oracle rank agreement, closure-operator laws,
and subdivision invariance."""

import functools
import json
import random
from fractions import Fraction
from unittest import mock
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orbikt import (Cyclotomic, FiniteGroup, GSimplicialComplex,
                    SimplicialComplex, Subgroup, barycentric_subdivide,
                    boundary_matrix, character_table, cyclic_group,
                    dihedral_group, fraction_free_rank, homology_integral,
                    induced_character, multiplicity, orbits_and_stabilizers,
                    product_group, smith_invariant_factors,
                    specialization, trivial_group)
from orbikt import cli
from orbikt.cli import _rows_text, json_pieces, report_json
from orbikt.errors import BadAction, NotAGroup, NotSubgroup
from linalg_oracle import Echelon, nullspace, rational_rank

SETTINGS = settings(max_examples=25, deadline=None)

CONDUCTORS = (1, 2, 3, 4, 6, 8, 12)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cyclo(draw, m):
    total = Cyclotomic.zero(m)
    for k, q in draw(st.lists(st.tuples(st.integers(0, m - 1), rationals),
                              max_size=3)):
        total = total + Cyclotomic.root_of_unity(m, k) * q
    return total


@st.composite
def cyclo_triple(draw):
    m = draw(st.sampled_from(CONDUCTORS))
    return draw(cyclo(m)), draw(cyclo(m)), draw(cyclo(m))


# -- exact cyclotomic arithmetic -----------------------------------------------------


@SETTINGS
@given(cyclo_triple())
def test_ring_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Cyclotomic.zero(a.conductor)
    assert a * Cyclotomic.one(a.conductor) == a


@SETTINGS
@given(cyclo_triple())
def test_conjugation_is_a_ring_involution(triple):
    a, b, _ = triple
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@SETTINGS
@given(st.sampled_from(CONDUCTORS), st.integers(-12, 12))
def test_root_powers_cycle(m, k):
    z = Cyclotomic.root_of_unity(m, k)
    assert z == Cyclotomic.root_of_unity(m, k % m)
    power = Cyclotomic.one(m)
    for _ in range(m):
        power = power * z
    assert power == Cyclotomic.one(m)  # z^m = 1
    assert z * z.conjugate() == Cyclotomic.one(m)


# -- character tables on a spread of small groups -------------------------------------

GROUPS = (
    trivial_group(),
    cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(5),
    cyclic_group(6), cyclic_group(7), cyclic_group(8),
    dihedral_group(2), dihedral_group(3), dihedral_group(4),
    product_group(cyclic_group(2), cyclic_group(2)),
    product_group(cyclic_group(2), cyclic_group(4)),
    product_group(cyclic_group(2), cyclic_group(3)),
)


def _inner(group, table, va, vb):
    sizes = [len(c) for c in table.conjugacy.classes]
    acc = Cyclotomic.zero(table.conductor)
    for i, size in enumerate(sizes):
        acc = acc + va[i] * vb[i].conjugate() * size
    value = acc  # |G| times the inner product
    assert value.is_rational()
    return Fraction(value.rational_value(), group.order)


@SETTINGS
@given(st.sampled_from(GROUPS))
def test_character_table_orthogonality(group):
    table = character_table(group)
    assert sum(d * d for _, d, _ in table.irreps) == group.order
    for a in range(len(table)):
        for b in range(len(table)):
            want = Fraction(1 if a == b else 0)
            assert _inner(group, table, table.values(a),
                          table.values(b)) == want


@SETTINGS
@given(st.sampled_from(GROUPS[1:]),
       st.lists(st.integers(0, 31), max_size=2))
def test_frobenius_reciprocity(group, raw_gens):
    sub = group.subgroup([g % group.order for g in raw_gens])
    big = character_table(group)
    small_table = None
    from orbikt import subgroup_table
    small_table = subgroup_table(sub)
    full = group.full_subgroup()
    for i in range(len(big)):
        chi = big.character(i)
        for j in range(len(small_table)):
            psi = small_table.character(j)
            induced = induced_character(psi, sub)
            assert (multiplicity(chi, psi, sub)
                    == multiplicity(induced, big.character(i), full))


# -- generated subgroups --------------------------------------------------------------


def _factor_order(factor):
    kind, n = factor
    return n if kind == "cyclic" else 2 * n


factors = (st.tuples(st.just("cyclic"), st.integers(1, 12))
           | st.tuples(st.just("dihedral"), st.integers(1, 6)))


@functools.lru_cache(maxsize=None)
def _builtin(factors):
    groups = [cyclic_group(n) if kind == "cyclic" else dihedral_group(n)
              for kind, n in factors]
    return groups[0] if len(groups) == 1 else product_group(*groups)


small_builtins = (factors.map(lambda f: (f,))
                  | st.tuples(factors, factors).filter(
                      lambda fs: _factor_order(fs[0]) * _factor_order(fs[1])
                      <= 48)).map(_builtin)


def _closure(group, elements):
    """All products of the elements and the identity, by brute force."""
    closed = {group.identity, *elements}
    while True:
        products = {group.mult[a][b] for a in closed for b in closed}
        if products <= closed:
            return closed
        closed |= products


@st.composite
def builtin_and_subset(draw):
    group = draw(small_builtins)
    subset = draw(st.sets(st.integers(0, group.order - 1), max_size=4))
    return group, subset


@SETTINGS
@given(builtin_and_subset())
def test_subgroup_is_the_closure_of_its_generators(data):
    group, subset = data
    assert group.subgroup(sorted(subset)).elements == tuple(
        sorted(_closure(group, subset)))


@settings(max_examples=100, deadline=None)
@given(builtin_and_subset(), st.sampled_from(["closure", "add", "remove",
                                              "as drawn"]),
       st.integers(0, 47))
def test_subgroup_check_accepts_exactly_the_closed_sets(data, how, pick):
    """Subgroup(G, T) is accepted exactly when T holds the identity and is
    closed under products."""
    group, subset = data
    if how != "as drawn":
        subset = _closure(group, subset)
    if how == "add":
        subset.add(pick % group.order)
    elif how == "remove":
        subset.discard(sorted(subset)[pick % len(subset)])
    closed = all(group.mult[a][b] in subset for a in subset for b in subset)
    if group.identity in subset and closed:
        assert Subgroup(group, subset).elements == tuple(sorted(subset))
    else:
        with pytest.raises(NotSubgroup):
            Subgroup(group, subset)


@SETTINGS
@given(small_builtins)
def test_generating_set_takes_the_least_element_outside_the_span(group):
    """Each generator is the least element outside the subgroup that the
    generators before it generate, and they generate the group."""
    for i, g in enumerate(group.generators):
        spanned = _closure(group, group.generators[:i])
        assert g == min(set(range(group.order)) - spanned)
    assert _closure(group, group.generators) == set(range(group.order))


def _next_latin_row(rng, rows, n):
    """A random row that extends the Latin rectangle rows: a perfect matching
    of symbols to columns (one exists by Hall's theorem), found by
    augmenting paths tried in random order."""
    column_of = {}

    def place(column, seen):
        for s in rng.sample(range(n), n):
            if s in seen or any(row[column] == s for row in rows):
                continue
            seen.add(s)
            if s not in column_of or place(column_of[s], seen):
                column_of[s] = column
                return True
        return False

    for column in rng.sample(range(n), n):
        place(column, set())
    row = [None] * n
    for s, column in column_of.items():
        row[column] = s
    return row


LATIN_GROUPS = {
    5: [cyclic_group(5)],
    6: [cyclic_group(6), dihedral_group(3)],
    7: [cyclic_group(7)],
    8: [cyclic_group(8), dihedral_group(4),
        product_group(cyclic_group(2), cyclic_group(4)),
        product_group(product_group(cyclic_group(2), cyclic_group(2)),
                      cyclic_group(2))],
}


def _random_loop(rng, n, from_group):
    """A Latin square with an identity: a relabeled group table, or a random
    Latin square L made a loop by x.y = L[R^-1(x)][C^-1(y)], where R and C
    read L's first column and row, so that L[0][0] is the identity."""
    if from_group:
        group = rng.choice(LATIN_GROUPS[n])
        label = rng.sample(range(n), n)
        table = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[label[a]][label[b]] = label[group.mult[a][b]]
        return table
    square = []
    while len(square) < n:
        square.append(_next_latin_row(rng, square, n))
    row_of = {square[i][0]: i for i in range(n)}
    column_of = {square[0][j]: j for j in range(n)}
    return [[square[row_of[x]][column_of[y]] for y in range(n)]
            for x in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(5, 8), st.booleans())
def test_latin_squares_are_groups_exactly_when_associative(seed, n,
                                                           from_group):
    table = _random_loop(random.Random(seed), n, from_group)
    associative = all(table[table[a][b]][c] == table[a][table[b][c]]
                      for a in range(n) for b in range(n) for c in range(n))
    if associative:
        assert FiniteGroup(table).order == n
    else:
        with pytest.raises(NotAGroup):
            FiniteGroup(table)


# -- chain complexes ------------------------------------------------------------------


@st.composite
def small_complex(draw):
    n = draw(st.integers(3, 6))
    count = draw(st.integers(1, 5))
    maximal = []
    for _ in range(count):
        size = draw(st.integers(1, 3))
        verts = draw(st.lists(st.integers(0, n - 1), min_size=size,
                              max_size=size, unique=True))
        maximal.append(tuple(sorted(verts)))
    return SimplicialComplex(n, maximal)


@st.composite
def ragged_complex(draw):
    """Non-pure complexes up to dimension 4: some vertices are used by no
    listed simplex, and short simplices may dangle off larger ones."""
    n = draw(st.integers(0, 8))
    maximal = []
    if n:
        for _ in range(draw(st.integers(0, 6))):
            maximal.append(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                         max_size=min(n, 5), unique=True)))
    return SimplicialComplex(n, maximal)


@SETTINGS
@given(ragged_complex())
def test_maximal_simplices_match_definition(complex):
    simplices = list(complex.all_simplices())
    brute = sorted((s for s in simplices
                    if not any(set(s) < set(t) for t in simplices)),
                   key=lambda s: (len(s), s))
    maximal = complex.maximal_simplices()
    assert maximal == brute
    assert SimplicialComplex(complex.vertex_count, maximal) == complex


@SETTINGS
@given(small_complex())
def test_boundary_of_boundary_vanishes(complex):
    for k in range(1, complex.dimension + 1):
        outer = boundary_matrix(complex, k)
        inner = boundary_matrix(complex, k + 1)
        if not inner or not inner[0]:
            continue
        for i in range(len(outer)):
            for j in range(len(inner[0])):
                entry = sum(outer[i][t] * inner[t][j]
                            for t in range(len(inner)))
                assert entry == 0


@SETTINGS
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_oracles_agree(matrix):
    rank = rational_rank(matrix)
    assert fraction_free_rank(matrix) == rank
    factors = smith_invariant_factors(matrix)
    assert len(factors) == rank
    assert len(nullspace(matrix, 3)) == 3 - rank
    # over F_p the rank drops by the invariant factors that p divides
    for p in (2, 3, 193):
        ech = Echelon(p)
        for row in matrix:
            ech.insert(row)
        assert ech.rank == sum(1 for d in factors if d % p)
        assert len(nullspace(matrix, 3, p)) == 3 - ech.rank


@st.composite
def sparse_matrix(draw, max_rows, max_cols):
    """Integer matrices of varying density whose entries include non-units."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    entry = st.one_of([st.just(0)] * draw(st.integers(0, 3))
                      + [st.integers(-6, 6)])
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))


def _det(matrix):
    """Determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:]
                                     for row in matrix[1:]])
               for j, x in enumerate(matrix[0]) if x)


@settings(max_examples=100, deadline=None)
@given(sparse_matrix(5, 5))
def test_smith_factors_match_determinantal_divisors(matrix):
    """d_1 * ... * d_k is the gcd of the k x k minors (0 beyond the rank)."""
    factors = smith_invariant_factors(matrix)
    m, n = len(matrix), len(matrix[0])
    product = 1
    for k in range(1, min(m, n) + 1):
        divisor = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                divisor = gcd(divisor, _det([[matrix[i][j] for j in cols]
                                             for i in rows]))
        product = product * factors[k - 1] if k <= len(factors) else 0
        assert divisor == product


@settings(max_examples=100, deadline=None)
@given(sparse_matrix(12, 12))
def test_fraction_free_rank_matches_rational_rank(matrix):
    rank = rational_rank(matrix)
    assert fraction_free_rank(matrix) == rank
    assert len(smith_invariant_factors(matrix)) == rank


@SETTINGS
@given(small_complex())
def test_euler_agrees_with_betti_alternation(complex):
    hom = homology_integral(complex)
    f = complex.f_vector()
    from_faces = sum((-1) ** k * c for k, c in enumerate(f))
    from_betti = sum((-1) ** k * b for k, b in enumerate(hom.betti))
    assert from_faces == from_betti


@SETTINGS
@given(small_complex())
def test_homology_survives_subdivision(complex):
    identity = tuple(range(complex.vertex_count))
    gx = GSimplicialComplex(complex, trivial_group(), [identity])
    sd = barycentric_subdivide(gx)
    before = homology_integral(complex)
    after = homology_integral(sd.complex)
    top = max(len(before.betti), len(after.betti))

    def padded(seq, fill):
        return list(seq) + [fill] * (top - len(seq))

    assert padded(before.betti, 0) == padded(after.betti, 0)
    assert padded(before.torsion, ()) == padded(after.torsion, ())


# -- admissibility and orbits of permutation actions ----------------------------------


@st.composite
def permutation_action(draw):
    """A permutation group on up to 5 points, its elements numbered in a
    drawn order (so the identity need not be element 0), acting on a complex
    closed under it.  Many of these actions are not admissible."""
    n = draw(st.integers(2, 5))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
    elements = [tuple(range(n))]
    for p in elements:
        for q in gens:
            pq = tuple(p[v] for v in q)
            if pq not in elements:
                elements.append(pq)
    elements = draw(st.permutations(elements))
    index = {p: i for i, p in enumerate(elements)}
    mult = [[index[tuple(a[v] for v in b)] for b in elements]
            for a in elements]
    seeds = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                          min_size=1, max_size=3))
    simplices = {tuple(sorted(p[v] for v in s))
                 for s in seeds for p in elements}
    return GSimplicialComplex(SimplicialComplex(n, simplices),
                              FiniteGroup(mult), elements)


def brute_admissibility_witness(gx):
    """The definition: the first element, in index order, that maps some
    simplex onto itself while moving one of its vertices, with the first
    such simplex in (dimension, lex) order."""
    for g, row in enumerate(gx.vertex_action):
        for s in gx.complex.all_simplices():
            if (tuple(sorted(row[v] for v in s)) == s
                    and any(row[v] != v for v in s)):
                return False, (g, s)
    return True, None


@settings(max_examples=200, deadline=None)
@given(permutation_action())
def test_admissibility_witness_matches_definition(gx):
    assert gx.admissibility_witness() == brute_admissibility_witness(gx)
    if not gx.is_admissible():
        return
    od = orbits_and_stabilizers(gx)
    reps = [orbit[0] for orbit in od.orbits]
    assert reps == sorted(reps, key=lambda r: (len(r), r))
    assert set(od.orbit_of) == set(gx.complex.all_simplices())
    for rep, members, stab, transporter in od.orbits:
        images = [tuple(sorted(row[v] for v in rep))
                  for row in gx.vertex_action]
        assert rep == min(images) and members == tuple(sorted(set(images)))
        assert stab.elements == tuple(g for g, t in enumerate(images)
                                      if t == rep)
        assert transporter == {t: images.index(t) for t in members}
        assert all(od.orbit_of[t] == od.orbit_of[rep] for t in members)


# -- closure operator laws on the specialization poset --------------------------------


@SETTINGS
@given(st.sets(st.integers(0, 10)))
def test_closure_operator_laws(z2_circle, indices):
    poset = specialization(z2_circle)
    subset = {i for i in indices if i < len(poset)}
    closure = poset.closure(subset)
    assert subset <= closure
    assert poset.closure(closure) == closure
    # the complement of a closed set is open
    complement = set(range(len(poset))) - closure
    assert poset.is_open(complement)


# -- the action check ---------------------------------------------------------------


@st.composite
def acted_complex(draw):
    """A complex, and a permutation group on its vertices (elements in a
    drawn order) that need not map the complex into itself."""
    gx = draw(permutation_action())
    n = gx.complex.vertex_count
    maximal = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1),
                            min_size=1, max_size=3))
    return SimplicialComplex(n, maximal), gx.group, gx.vertex_action


@settings(max_examples=200, deadline=None)
@given(acted_complex())
def test_action_check_names_the_first_simplex_sent_outside(data):
    """The check inside the orbit pass accepts exactly the actions that keep
    every simplex inside, and a refusal names the first generator, in
    generating-set order, and its first simplex in (dimension, lex) order
    that it sends outside."""
    complex, group, action = data
    outside = [(g, s) for g in group.generators
               for s in complex.all_simplices()
               if tuple(sorted(action[g][v] for v in s)) not in complex]
    if not outside:
        GSimplicialComplex(complex, group, action)
        return
    with pytest.raises(BadAction) as info:
        GSimplicialComplex(complex, group, action)
    assert str(info.value) == ("element %d maps simplex %r outside the "
                               "complex" % outside[0])


# -- the json writer ----------------------------------------------------------------

json_scalars = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
                | st.text(st.characters(max_codepoint=0x10FFFF)))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_values, json_values, json_values)
def test_report_json_writes_what_json_dumps_writes(meta, payload, flags):
    """Nested dicts and lists of str, int, bool and None, empty containers,
    non-ASCII text and control characters included."""
    doc = {"meta": meta, "payload": payload, "flags": flags}
    assert report_json(meta, payload, flags) == json.dumps(
        doc, sort_keys=True, indent=2)


row_ints = (st.integers(-2 ** 70, 2 ** 70)
            | st.sampled_from([0, -1, 2 ** 64, 2 ** 64 + 1, -2 ** 64 - 1]))
row_keys = st.text(st.sampled_from('a%d"\\\n\u00e9\u20ac\U0001f600'),
                   max_size=3)


@st.composite
def uniform_rows(draw, min_size=1):
    """Int lists of one width, or dicts with one set of str keys and int
    values."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 4))
        row = st.lists(row_ints, min_size=width, max_size=width)
    else:
        keys = draw(st.sets(row_keys, min_size=1, max_size=4))
        row = st.fixed_dictionaries({key: row_ints for key in keys})
    return draw(st.lists(row, min_size=min_size, max_size=6))


@st.composite
def near_miss_rows(draw):
    """Uniform rows with one change that leaves them not uniform: a row of
    another width, a missing or extra key, one bool, str or None value, or
    an empty first row."""
    rows = draw(uniform_rows(min_size=2))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    change = draw(st.sampled_from(["shape", "value", "empty first row"]))
    if change == "empty first row":
        rows.insert(0, type(row)())
    elif change == "value":
        at = draw(st.sampled_from(sorted(row) if type(row) is dict
                                  else range(len(row))))
        row[at] = draw(st.booleans() | st.none() | st.text(max_size=2))
    elif type(row) is list:
        if len(row) > 1 and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(row_ints))
    elif draw(st.booleans()):
        del row[draw(st.sampled_from(sorted(row)))]
    else:
        row[draw(row_keys.filter(lambda key: key not in row))] = 0
    return rows


def _written_as_json_dumps_writes(rows):
    meta, payload = {"rows": rows}, {"nested": [rows]}
    doc = {"meta": meta, "payload": payload, "flags": rows}
    assert report_json(meta, payload, rows) == json.dumps(
        doc, sort_keys=True, indent=2)


@settings(max_examples=300, deadline=None)
@given(uniform_rows())
def test_uniform_rows_are_written_from_one_template(rows):
    """Keys with %, quotes, backslashes, control and non-ASCII characters,
    negative values and values beyond 2**64."""
    assert _rows_text(rows, "\n") is not None
    _written_as_json_dumps_writes(rows)


@settings(max_examples=300, deadline=None)
@given(near_miss_rows())
def test_near_miss_rows_are_written_item_by_item(rows):
    assert _rows_text(rows, "\n") is None
    _written_as_json_dumps_writes(rows)


@settings(max_examples=300, deadline=None)
@given(json_values, uniform_rows() | near_miss_rows(), st.integers(1, 80),
       st.integers(1, 3))
def test_pieces_join_to_what_json_dumps_writes(payload, rows, piece_chars,
                                               batch_rows):
    """With a bound of a few characters and batches of a few rows, nearly
    every container is written as a list of strs, and long strs are cut:
    the pieces still join to what json.dumps writes, and none is longer
    than the bound."""
    meta, payload = {"rows": rows}, [payload, rows]
    doc = {"meta": meta, "payload": payload, "flags": rows}
    with mock.patch.multiple(cli, PIECE_CHARS=piece_chars,
                             _BATCH_ROWS=batch_rows):
        pieces = json_pieces(meta, payload, rows)
    assert "".join(pieces) == json.dumps(doc, sort_keys=True, indent=2)
    assert max(map(len, pieces)) <= piece_chars
