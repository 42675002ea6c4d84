"""Exact integral/rational homology of simplicial complexes.

Integer Smith normal form gives Betti numbers and torsion; every rank is
independently recomputed by fraction-free (integer, division-free) Gaussian
elimination and the two must agree.  Also: induced chain maps of group
elements, invariant cohomology dimensions, Euler characteristics, and
rational K-ranks (even/odd Betti sums) of compact polyhedra.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .complexes import GSimplicialComplex, SimplicialComplex
from .errors import InternalInconsistency
from .linalg import Echelon, nullspace


def boundary_matrix(complex: SimplicialComplex, k):
    """The boundary map C_k -> C_{k-1}: rows (k-1)-simplices, columns k-simplices."""
    if k <= 0 or k > complex.dimension:
        return []
    rows = complex.simplices[k - 1]
    cols = complex.simplices[k]
    row_id = {s: i for i, s in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1:]
            matrix[row_id[face]][j] = -1 if drop % 2 else 1
    return matrix


class ChainComplex:
    """Integer chain complex of a simplicial complex; checks boundary-squared-zero."""

    def __init__(self, dims, boundaries):
        self.dims = tuple(dims)
        self.boundaries = boundaries  # boundaries[k] maps C_k -> C_{k-1}
        for k in range(2, len(self.dims)):
            a, b = boundaries[k - 1], boundaries[k]
            if not a or not b:
                continue
            # sparse check: apply the outer boundary to each column's support
            a_cols = [[(i, a[i][j]) for i in range(len(a)) if a[i][j]]
                      for j in range(len(a[0]))]
            for j in range(len(b[0])):
                acc = {}
                for t in range(len(b)):
                    if b[t][j]:
                        for i, val in a_cols[t]:
                            acc[i] = acc.get(i, 0) + val * b[t][j]
                if any(acc.values()):
                    raise InternalInconsistency(
                        "boundary of boundary is nonzero in degree %d" % k)

    @classmethod
    def from_complex(cls, complex: SimplicialComplex):
        dims = complex.f_vector()
        boundaries = [boundary_matrix(complex, k) for k in range(len(dims))]
        return cls(dims, boundaries)


def smith_invariant_factors(matrix):
    """Invariant factors (positive, divisibility chain) of an integer matrix.

    Classic elimination with pivoting on a smallest nonzero entry (unit
    entries found by early exit, the common case for boundary matrices).
    """
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < m and t < n:
        pivot = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    x = abs(x)
                    if best is None or x < best:
                        pivot, best = (i, j), x
                        if x == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        reduced = False
        for i in range(t + 1, m):
            if a[i][t] % p:
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                reduced = True
                break
        if reduced:
            continue
        for j in range(t + 1, n):
            if a[t][j] % p:
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
                reduced = True
                break
        if reduced:
            continue
        pivot_row = a[t]
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
        if any(pivot_row[j] for j in range(t + 1, n)):
            for j in range(t + 1, n):
                if pivot_row[j]:
                    q = pivot_row[j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
        if abs(p) != 1:
            stuck = None
            for i in range(t + 1, m):
                row = a[i]
                if any(row[j] % p for j in range(t + 1, n)):
                    stuck = i
                    break
            if stuck is not None:
                a[t] = [x + y for x, y in zip(a[t], a[stuck])]
                continue
        diag.append(abs(p))
        t += 1
    diag.sort()
    for i in range(len(diag) - 1):
        if diag[i + 1] % diag[i]:
            raise InternalInconsistency("invariant factors fail divisibility")
    return diag


def fraction_free_rank(matrix):
    """Rank over Q by division-free integer Gaussian elimination.

    Row operation row_i <- p*row_i - a[i][c]*row_t with gcd normalization;
    never leaves the integers.  Independent of the Smith-normal-form route.
    """
    rows = [row[:] for row in matrix if any(row)]
    rank = 0
    n = len(matrix[0]) if matrix else 0
    for c in range(n):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                new = [p * x - f * y for x, y in zip(rows[i], rows[rank])]
                g = 0
                for x in new:
                    g = gcd(g, x)
                    if g == 1:
                        break
                rows[i] = [x // g for x in new] if g > 1 else new
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


class HomologyResult:
    """Integral homology: per-degree Betti numbers and invariant factors > 1."""

    def __init__(self, betti, torsion):
        self.betti = tuple(betti)
        self.torsion = tuple(tuple(t) for t in torsion)

    def __repr__(self):
        return "HomologyResult(betti=%r, torsion=%r)" % (self.betti,
                                                         self.torsion)


class KRanks:
    """Rational K-theory ranks of a compact polyhedron: (even, odd) Betti sums."""

    def __init__(self, even, odd):
        self.even = even
        self.odd = odd

    def __eq__(self, other):
        if isinstance(other, tuple):
            return (self.even, self.odd) == other
        return (isinstance(other, KRanks)
                and (self.even, self.odd) == (other.even, other.odd))

    def __add__(self, other):
        return KRanks(self.even + other.even, self.odd + other.odd)

    def __repr__(self):
        return "KRanks(even=%d, odd=%d)" % (self.even, self.odd)


def homology_integral(complex: SimplicialComplex) -> HomologyResult:
    cc = ChainComplex.from_complex(complex)
    dims = cc.dims
    top = len(dims)
    ranks = [0] * (top + 1)
    factors = [[] for _ in range(top + 1)]
    for k in range(1, top):
        ranks[k], factors[k] = _checked_rank(cc.boundaries[k])
    betti = [dims[k] - ranks[k] - ranks[k + 1] for k in range(top)]
    torsion = [[d for d in factors[k + 1] if d > 1] for k in range(top)]
    lhs = sum((-1) ** k * b for k, b in enumerate(betti))
    rhs = sum((-1) ** k * d for k, d in enumerate(dims))
    if lhs != rhs:
        raise InternalInconsistency("Euler-Poincare identity fails")
    return HomologyResult(betti, torsion)


def k_ranks(complex: SimplicialComplex) -> KRanks:
    hom = homology_integral(complex)
    even = sum(b for k, b in enumerate(hom.betti) if k % 2 == 0)
    odd = sum(b for k, b in enumerate(hom.betti) if k % 2 == 1)
    return KRanks(even, odd)


def euler_characteristic(complex: SimplicialComplex) -> int:
    return sum((-1) ** k * d for k, d in enumerate(complex.f_vector()))


def chain_map_matrix(gx: GSimplicialComplex, g, k):
    """The signed permutation matrix of g acting on k-chains."""
    simplices = gx.complex.simplices[k] if k <= gx.complex.dimension else []
    index = {s: i for i, s in enumerate(simplices)}
    n = len(simplices)
    matrix = [[0] * n for _ in range(n)]
    row = gx.vertex_action[g]
    for j, s in enumerate(simplices):
        images = [row[v] for v in s]
        perm = sorted(range(len(images)), key=lambda i: images[i])
        sign = 1
        perm = list(perm)
        for a in range(len(perm)):
            while perm[a] != a:
                b = perm[a]
                perm[a], perm[b] = perm[b], perm[a]
                sign = -sign
        matrix[index[tuple(sorted(images))]][j] = sign
    return matrix


def _homology_basis(cc: ChainComplex, k):
    """(echelon over [boundaries | reps], boundary count, homology reps)."""
    n_k = cc.dims[k] if k < len(cc.dims) else 0
    d_k = cc.boundaries[k] if 0 < k < len(cc.dims) else []
    cycles = nullspace(d_k, n_k)
    d_next = cc.boundaries[k + 1] if k + 1 < len(cc.dims) else []
    ech = Echelon()
    if d_next:
        for j in range(len(d_next[0])):
            ech.insert([row[j] for row in d_next])
    n_boundaries = ech.rank
    reps = [cyc for cyc in cycles if ech.insert(cyc)]
    return ech, n_boundaries, reps


def _induced_on_basis(gx, g, k, ech, n_boundaries, reps):
    t_g = chain_map_matrix(gx, g, k)
    b = len(reps)
    matrix = [[None] * b for _ in range(b)]
    for l, h in enumerate(reps):
        image = [sum(t_g[i][j] * h[j] for j in range(len(h)) if t_g[i][j])
                 for i in range(len(h))]
        coords = ech.coordinates(image)
        if coords is None:
            raise InternalInconsistency("chain map does not preserve cycles")
        for i in range(b):
            matrix[i][l] = Fraction(coords[n_boundaries + i])
    return matrix


def induced_homology_matrix(gx: GSimplicialComplex, g, k):
    """The matrix of g acting on H_k(X; Q) in a fixed homology basis."""
    cc = ChainComplex.from_complex(gx.complex)
    ech, n_boundaries, reps = _homology_basis(cc, k)
    return _induced_on_basis(gx, g, k, ech, n_boundaries, reps)


def invariant_cohomology_dims(gx: GSimplicialComplex):
    """Per-degree dimension of the G-invariant part of H^k(X; Q).

    Computed on homology with Q coefficients (same dimensions as the dual
    cohomology statement): the average of the induced maps over the group is
    an idempotent, so its rank is its trace, (1/|G|) sum_g tr(g_*).
    """
    gx.require_admissible()
    cc = ChainComplex.from_complex(gx.complex)
    order = gx.group.order
    dims = []
    for k in range(len(cc.dims)):
        ech, n_boundaries, reps = _homology_basis(cc, k)
        total = 0
        if reps:
            for g in range(order):
                m_g = _induced_on_basis(gx, g, k, ech, n_boundaries, reps)
                total += sum(m_g[i][i] for i in range(len(reps)))
        dim, rest = divmod(total, order)
        if rest:
            raise InternalInconsistency(
                "averaging idempotent has trace %s, not a multiple of |G| = %d"
                " in degree %d" % (total, order, k))
        dims.append(int(dim))
    return tuple(dims)
