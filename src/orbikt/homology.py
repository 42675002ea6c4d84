"""Exact integral/rational homology of simplicial complexes and of their
orbit spaces.

Integer Smith normal form gives Betti numbers and torsion; every rank is
independently recomputed by fraction-free (integer, division-free) Gaussian
elimination and the two must agree.  A chain complex stores sparse columns,
and the oracles eliminate on sparse rows built from one dense d_k at a time.
A chain complex comes either from the simplices of a complex or, for the
orbit space X/G of an admissible action, from its simplex orbits: X/G is
then a CW complex with one cell per orbit, so its homology needs no
subdivision and no simplicial quotient.
Also: Euler characteristics and rational K-ranks (even/odd Betti sums) of
compact polyhedra.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, compress
from math import gcd
from typing import NamedTuple

from .complexes import (GSimplicialComplex, SimplicialComplex,
                        orbits_and_stabilizers)
from .errors import BoundExceeded, InternalInconsistency

# Most entries a dense boundary matrix may have, checked before any column is
# built.  Only one dense d_k exists at a time: ``ChainComplex.homology`` makes
# each from its sparse columns just before the rank oracles read it.
# d2 of `betti` on the grid-32 torus of bench/inputs.py is 6144 x 4096
# (25.2M); `quotient` on its Z4 action reads the orbit cells, 1536 x 1024.
MAX_MATRIX_ENTRIES = 2 ** 25


def _check_matrix_bound(dims):
    """Refuse before allocation any d_k with more than MAX_MATRIX_ENTRIES."""
    for k in range(1, len(dims)):
        if dims[k - 1] * dims[k] > MAX_MATRIX_ENTRIES:
            raise BoundExceeded(
                "boundary matrix d%d would have %d x %d entries, more"
                " than %d" % (k, dims[k - 1], dims[k], MAX_MATRIX_ENTRIES))


def _boundary_columns(complex: SimplicialComplex, k):
    """d_k as sparse columns: per k-simplex, {(k-1)-simplex index: sign}."""
    row_id = {s: i for i, s in enumerate(complex.simplices[k - 1])}
    return [{row_id[s[:drop] + s[drop + 1:]]: -1 if drop % 2 else 1
             for drop in range(len(s))}
            for s in complex.simplices[k]]


def _dense(columns, height):
    """The height x len(columns) matrix with the given sparse columns."""
    matrix = [[0] * len(columns) for _ in range(height)]
    for j, column in enumerate(columns):
        for i, x in column.items():
            matrix[i][j] = x
    return matrix


def boundary_matrix(complex: SimplicialComplex, k):
    """The boundary map C_k -> C_{k-1}: rows (k-1)-simplices, columns k-simplices."""
    if k <= 0 or k > complex.dimension:
        return []
    return _dense(_boundary_columns(complex, k), len(complex.simplices[k - 1]))


class ChainComplex:
    """Integer chain complex of sparse columns; checks d_{k-1} d_k = 0."""

    def __init__(self, dims, columns):
        self.dims = tuple(dims)
        # columns[k][j]: column j of d_k: C_k -> C_{k-1}, as {row: coefficient}
        self.columns = columns
        for k in range(2, len(self.dims)):
            lower = columns[k - 1]
            for column in columns[k]:
                acc = {}
                for t, coeff in column.items():
                    for i, val in lower[t].items():
                        acc[i] = acc.get(i, 0) + val * coeff
                if any(acc.values()):
                    raise InternalInconsistency(
                        "boundary of boundary is nonzero in degree %d" % k)

    @classmethod
    def from_complex(cls, complex: SimplicialComplex):
        dims = complex.f_vector()
        _check_matrix_bound(dims)
        columns = [_boundary_columns(complex, k) if k else []
                   for k in range(len(dims))]
        return cls(dims, columns)

    @classmethod
    def from_orbits(cls, gx: GSimplicialComplex):
        """The cellular chain complex of X/G, which is C_*(X)_G.

        An admissible action makes X a G-CW complex, so X/G is a CW complex
        with one k-cell per orbit of k-simplices (tom Dieck, *Transformation
        Groups*, II.1).  Its generators are the orbits, in OrbitData order
        within each dimension, each standing for its representative.  Face
        i of rep_t is k.rep_s for the transporter k of its facet, and
        d[rep_t] = sum_i (-1)^i e_i [rep_s], where e_i is the sign of the
        permutation that sorts (k(w_0), ..., k(w_{n-1})) for
        rep_s = (w_0, ..., w_{n-1}): k carries the orientation of rep_s to
        e_i times that of the face.  e_i does not depend on the choice of
        k: if k' also carries rep_s onto the face, k^-1 k' leaves rep_s
        invariant and so, by admissibility, fixes it pointwise; k and k'
        then agree on every vertex of rep_s.  For the same reason no element
        reverses the orientation of a simplex it keeps, so each orbit spans
        a free summand of the coinvariants.  Faces in one orbit add up.
        """
        od = orbits_and_stabilizers(gx)
        dims = [0] * (gx.complex.dimension + 1)
        for rep, *_ in od.orbits:
            dims[len(rep) - 1] += 1
        _check_matrix_bound(dims)
        first = [sum(dims[:k]) for k in range(len(dims))]
        columns = [[{} for _ in range(dims[k])] if k else []
                   for k in range(len(dims))]
        action = gx.vertex_action
        for t, record in enumerate(od.facets):
            if not record:
                continue
            k = len(record) - 1
            column = columns[k][t - first[k]]
            for i, (s, g) in enumerate(record):
                sign = _sorting_sign([action[g][v] for v in od.rep(s)])
                row = s - first[k - 1]
                column[row] = column.get(row, 0) + (-sign if i % 2 else sign)
        return cls(dims, columns)

    def homology(self) -> HomologyResult:
        """Betti numbers and torsion from the checked ranks of each d_k."""
        dims = self.dims
        top = len(dims)
        ranks = [0] * (top + 1)
        factors = [[] for _ in range(top + 1)]
        for k in range(1, top):
            ranks[k], factors[k] = _checked_rank(
                _dense(self.columns[k], dims[k - 1]))
        betti = tuple(dims[k] - ranks[k] - ranks[k + 1] for k in range(top))
        torsion = tuple(tuple(d for d in factors[k + 1] if d > 1)
                        for k in range(top))
        return HomologyResult(betti, torsion)


def _sorting_sign(values):
    """The sign of the permutation that sorts distinct values."""
    return -1 if sum(a > b for a, b in combinations(values, 2)) % 2 else 1


def _add_multiple(rows, cols, dst, src, q):
    """rows[dst] += q * rows[src], keeping the column index ``cols`` exact;
    a row that cancels to zero is removed."""
    target = rows[dst]
    for j, y in rows[src].items():
        x = target.get(j, 0) + q * y
        if x:
            if j not in target:
                cols[j].add(dst)
            target[j] = x
        elif j in target:
            del target[j]
            cols[j].discard(dst)
    if not target:
        del rows[dst]


def _drop_row(rows, cols, r):
    """Remove row r, and its entries from the column index ``cols``."""
    for j in rows.pop(r):
        cols[j].discard(r)


def smith_invariant_factors(matrix):
    """Invariant factors (positive, divisibility chain) of an integer matrix.

    Works on sparse ``{column: value}`` rows with a row set per column, so no
    dense copy of the matrix is made.  Two stages, one elimination:

    1. Unit pass.  The columns are walked in order; in each, the pivot is a
       +-1 entry of the shortest row that has one (Markowitz-style: the
       fewest entries to spread), and row operations clear the rest of the
       column.  The pivot row and column are then dropped, contributing one
       factor 1.  This is exact: with the column cleared, the column
       operations that would clear the pivot row touch no other row, so the
       remaining rows are the rest of the Smith form unchanged.  A column
       with no unit entry at its turn is left for the core.
    2. Core.  What remains (where any torsion lives) is reduced by pivoting
       on an entry of least absolute value: row and column operations leave
       remainders smaller than the pivot, which become the next pivot, until
       the pivot is alone in its row and column.  A non-unit pivot that does
       not divide every remaining entry first absorbs a row holding such an
       entry, so the factors come out as a divisibility chain; the chain is
       checked again before returning.

    Independent of ``fraction_free_rank`` (no shared helper, different pivot
    rule, column operations), so ``_checked_rank`` compares two algorithms.
    """
    n = len(matrix[0]) if matrix else 0
    positions = range(n)
    rows = {}
    cols = [set() for _ in positions]
    for i, row in enumerate(matrix):
        support = {j: row[j] for j in compress(positions, row)}
        if support:
            rows[i] = support
            for j in support:
                cols[j].add(i)
    factors = []
    for c in positions:
        units = [i for i in cols[c] if rows[i][c] in (1, -1)]
        if not units:
            continue
        r = min(units, key=lambda i: (len(rows[i]), i))
        p = rows[r][c]
        for i in cols[c] - {r}:
            _add_multiple(rows, cols, i, r, -rows[i][c] * p)
        _drop_row(rows, cols, r)
        factors.append(1)
    while rows:
        best = None
        for i, row in rows.items():
            for j, x in row.items():
                if best is None or abs(x) < best:
                    best, r, c = abs(x), i, j
            if best == 1:
                break
        while True:
            p = rows[r][c]
            # clear column c by row operations; a remainder is a smaller pivot
            moved = False
            for i in cols[c] - {r}:
                _add_multiple(rows, cols, i, r, -(rows[i][c] // p))
                if c in rows.get(i, ()):
                    r, moved = i, True
                    break
            if moved:
                continue
            # clear row r by column operations; column c is zero outside
            # row r, so each one changes row r only
            pivot_row = rows[r]
            for j in pivot_row.keys() - {c}:
                x = pivot_row[j] % p
                if x:
                    pivot_row[j] = x
                    c, moved = j, True
                    break
                del pivot_row[j]
                cols[j].discard(r)
            if moved:
                continue
            if p not in (1, -1):
                stuck = next((i for i, row in rows.items()
                              if any(x % p for x in row.values())), None)
                if stuck is not None:
                    _add_multiple(rows, cols, r, stuck, 1)
                    continue
            break
        _drop_row(rows, cols, r)
        factors.append(abs(p))
    factors.sort()
    for i in range(len(factors) - 1):
        if factors[i + 1] % factors[i]:
            raise InternalInconsistency("invariant factors fail divisibility")
    return factors


def fraction_free_rank(matrix):
    """Rank over Q by division-free integer Gaussian elimination.

    Sparse ``{column: value}`` rows.  The pivot is the shortest remaining
    row, at its lowest column; every other row holding that column becomes
    p*row_i - a_ic*row_pivot, divided by the gcd of its entries, so the
    arithmetic never leaves the integers.  Row operations only, and no
    helper shared with ``smith_invariant_factors``: each boundary matrix
    goes through two distinct algorithms.
    """
    n = len(matrix[0]) if matrix else 0
    positions = range(n)
    rows = {}
    cols = [set() for _ in positions]
    for i, row in enumerate(matrix):
        support = {j: row[j] for j in compress(positions, row)}
        if support:
            rows[i] = support
            for j in support:
                cols[j].add(i)
    queue = [(len(row), i) for i, row in rows.items()]
    heapify(queue)
    rank = 0
    while queue:
        length, r = heappop(queue)
        pivot_row = rows.get(r)
        if pivot_row is None or len(pivot_row) != length:
            continue  # stale entry: the row changed or was used
        del rows[r]
        c = min(pivot_row)
        p = pivot_row[c]
        for j in pivot_row:
            cols[j].discard(r)
        for i in list(cols[c]):
            row = rows[i]
            f = row[c]
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, y in pivot_row.items():
                x = row.get(j, 0) - f * y
                if x:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = x
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
                continue
            g = 0
            for x in row.values():
                g = gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                for j in row:
                    row[j] //= g
            heappush(queue, (len(row), i))
        rank += 1
    return rank


def _checked_rank(matrix):
    """Rank via SNF, cross-checked against the independent elimination oracle."""
    factors = smith_invariant_factors(matrix)
    snf_rank = len(factors)
    alt_rank = fraction_free_rank(matrix)
    if snf_rank != alt_rank:
        raise InternalInconsistency(
            "rank oracles disagree: SNF %d vs fraction-free %d"
            % (snf_rank, alt_rank))
    return snf_rank, factors


class KRanks(NamedTuple):
    """Rational K-theory ranks of a compact polyhedron: (even, odd) Betti sums."""

    even: int
    odd: int

    def __add__(self, other):
        return KRanks(self.even + other.even, self.odd + other.odd)


class HomologyResult(NamedTuple):
    """Integral homology: per-degree Betti numbers and invariant factors > 1."""

    betti: tuple
    torsion: tuple  # per degree, a tuple of invariant factors

    def k_ranks(self) -> KRanks:
        return KRanks(sum(self.betti[0::2]), sum(self.betti[1::2]))


def homology_integral(complex: SimplicialComplex) -> HomologyResult:
    return ChainComplex.from_complex(complex).homology()


def quotient_homology(gx: GSimplicialComplex) -> HomologyResult:
    """H_*(X/G) from the cellular chains of the orbit cells."""
    return ChainComplex.from_orbits(gx).homology()


def euler_characteristic(complex: SimplicialComplex) -> int:
    return sum((-1) ** k * d for k, d in enumerate(complex.f_vector()))
