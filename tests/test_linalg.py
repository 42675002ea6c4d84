"""Properties of the exact elimination kernel over Q and F_p: kernels and
coordinates in a span; and the minimal polynomials of Krylov sequences that
the Dixon split reads with Berlekamp-Massey."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from orbikt.characters import _berlekamp_massey
from linalg_oracle import Echelon, nullspace

SETTINGS = settings(max_examples=40, deadline=None)

FIELDS = (None, 2, 3, 193)


def _entry(p):
    if p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(0, p - 1)


@st.composite
def field_matrix(draw):
    """(p, width, rows): a small matrix over Q (p None) or F_p."""
    p = draw(st.sampled_from(FIELDS))
    width = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_entry(p), min_size=width, max_size=width),
                         max_size=5))
    return p, width, rows


def _reduce(x, p):
    return x if p is None else x % p


def _dot(u, v, p):
    return _reduce(sum(a * b for a, b in zip(u, v)), p)


def _rank(rows, p):
    ech = Echelon(p)
    for row in rows:
        ech.insert(row)
    return ech.rank


@SETTINGS
@given(field_matrix())
def test_kernel_basis_over_q_and_fp(case):
    p, width, rows = case
    basis = nullspace(rows, width, p)
    for v in basis:
        assert len(v) == width
        assert all(_dot(row, v, p) == 0 for row in rows)
    # rows inserted one way, columns the other: rank-nullity ties them
    assert len(basis) == width - _rank(rows, p)
    assert _rank(basis, p) == len(basis)


@SETTINGS
@given(field_matrix(), st.data())
def test_coordinates_rebuild_the_span(case, data):
    p, width, rows = case
    ech = Echelon(p)
    independent = [row for row in rows if ech.insert(row)]
    # the span of the rows is exactly the annihilator of their kernel
    kernel = nullspace(rows, width, p)
    weights = data.draw(st.lists(_entry(p), min_size=len(rows),
                                 max_size=len(rows)))
    inside = [_reduce(sum(w * row[i] for w, row in zip(weights, rows)), p)
              for i in range(width)]
    units = [[int(i == j) for i in range(width)] for j in range(width)]
    for vec in [inside, *units]:
        coords = ech.coordinates(vec)
        in_span = all(_dot(k, vec, p) == 0 for k in kernel)
        assert (coords is not None) == in_span
        if coords is not None:
            assert len(coords) == len(independent)
            rebuilt = [_reduce(sum(c * u[i] for c, u in zip(coords,
                                                            independent)), p)
                       for i in range(width)]
            assert rebuilt == [_reduce(x, p) for x in vec]


def test_coordinates_of_a_dependent_vector_over_q():
    ech = Echelon()
    assert ech.insert([2, 4, 0])
    assert ech.insert([0, 1, 1])
    assert not ech.insert([2, 5, 1])
    assert ech.coordinates([4, 5, -3]) == [Fraction(2), Fraction(-3)]
    assert ech.coordinates([0, 0, 1]) is None


@st.composite
def square_mod_p(draw):
    p = draw(st.sampled_from(FIELDS[1:]))
    m = draw(st.integers(1, 5))
    # a few repeated rows make nontrivial minimal polynomials likely
    pool = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m,
                                  max_size=m), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return p, rows


def _mat_vec(a, v, p):
    return [sum(x * y for x, y in zip(row, v)) % p for row in a]


@SETTINGS
@given(square_mod_p(), st.data())
def test_berlekamp_massey_finds_the_minimal_recurrence(case, data):
    """For s_t = u A^t v (t < 2m) the polynomial is monic, annihilates the
    sequence, and its degree is the rank of the m x m Hankel matrix, the
    order of the shortest recurrence."""
    p, a = case
    m = len(a)
    u, v = (data.draw(st.lists(st.integers(0, p - 1), min_size=m,
                               max_size=m)) for _ in range(2))
    seq = []
    for _ in range(2 * m):
        seq.append(sum(x * y for x, y in zip(u, v)) % p)
        v = _mat_vec(a, v, p)
    poly = _berlekamp_massey(seq, p)
    deg = len(poly) - 1
    assert poly[-1] == 1
    assert deg == _rank([seq[i:i + m] for i in range(m)], p)
    for t in range(2 * m - deg):
        assert sum(c * s for c, s in zip(poly, seq[t:])) % p == 0
