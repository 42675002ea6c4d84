"""The transfer route to the rational homology of X/G.

A group element g acts on the k-chains of X by a signed permutation of the
k-simplices: g·s is the sorted image of s, times the sign of the permutation
that sorts it.  On a homology basis (cycles independent modulo boundaries)
this gives the matrix of g_* on H_k(X; Q), and the average (1/|G|) Σ g_* is
an idempotent onto the invariant part, so its rank is its trace.  By the
transfer, that invariant part has the dimension of H_k(X/G; Q);
``invariants_check`` compares the two, and shares no code with the
orbit-cell homology of X/G it is compared with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from orbikt.complexes import GSimplicialComplex, SimplicialComplex
from orbikt.errors import InternalInconsistency
from orbikt.homology import _sorting_sign, boundary_matrix, quotient_homology
from linalg_oracle import Echelon, nullspace


def _signed_permutation(gx: GSimplicialComplex, g, k):
    """g on k-chains: per k-simplex j, the pair (i, sign) with
    g·simplex_j = sign · simplex_i."""
    simplices = gx.complex.simplices[k] if k <= gx.complex.dimension else []
    index = {s: i for i, s in enumerate(simplices)}
    row = gx.vertex_action[g]
    moves = []
    for s in simplices:
        images = [row[v] for v in s]
        moves.append((index[tuple(sorted(images))], _sorting_sign(images)))
    return moves


def chain_map_matrix(gx: GSimplicialComplex, g, k):
    """The signed permutation matrix of g acting on k-chains."""
    moves = _signed_permutation(gx, g, k)
    matrix = [[0] * len(moves) for _ in moves]
    for j, (i, sign) in enumerate(moves):
        matrix[i][j] = sign
    return matrix


def _homology_basis(complex: SimplicialComplex, k):
    """(echelon over [boundaries | reps], boundary count, homology reps)."""
    n_k = len(complex.simplices[k]) if k <= complex.dimension else 0
    cycles = nullspace(boundary_matrix(complex, k), n_k)
    d_next = boundary_matrix(complex, k + 1)
    ech = Echelon()
    if d_next:
        for j in range(len(d_next[0])):
            ech.insert([row[j] for row in d_next])
    n_boundaries = ech.rank
    reps = [cyc for cyc in cycles if ech.insert(cyc)]
    return ech, n_boundaries, reps


def _induced_on_basis(gx, g, k, ech, n_boundaries, reps):
    """Column l: the coordinates of g·reps[l] over reps, modulo boundaries;
    g moves each entry of a chain to its simplex's image, with its sign."""
    moves = _signed_permutation(gx, g, k)
    b = len(reps)
    matrix = [[None] * b for _ in range(b)]
    for l, h in enumerate(reps):
        image = [0] * len(h)
        for (i, sign), x in zip(moves, h):
            if x:
                image[i] = sign * x
        coords = ech.coordinates(image)
        if coords is None:
            raise InternalInconsistency("chain map does not preserve cycles")
        for i in range(b):
            matrix[i][l] = Fraction(coords[n_boundaries + i])
    return matrix


def induced_homology_matrix(gx: GSimplicialComplex, g, k):
    """The matrix of g acting on H_k(X; Q) in a fixed homology basis."""
    ech, n_boundaries, reps = _homology_basis(gx.complex, k)
    return _induced_on_basis(gx, g, k, ech, n_boundaries, reps)


def invariant_cohomology_dims(gx: GSimplicialComplex):
    """Per-degree dimension of the G-invariant part of H^k(X; Q).

    Computed on homology with Q coefficients (same dimensions as the dual
    cohomology statement): the average of the induced maps over the group is
    an idempotent, so its rank is its trace, (1/|G|) sum_g tr(g_*).
    """
    gx.require_admissible()
    order = gx.group.order
    dims = []
    for k in range(gx.complex.dimension + 1):
        ech, n_boundaries, reps = _homology_basis(gx.complex, k)
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


class InvariantsCheck(NamedTuple):
    """Invariant cohomology dimensions against quotient Betti numbers."""

    rows: tuple  # records (degree, invariant dim, quotient Betti)

    @property
    def all_equal(self):
        return all(a == b for _, a, b in self.rows)


def invariants_check(gx: GSimplicialComplex) -> InvariantsCheck:
    """Invariant cohomology dimensions against quotient Betti numbers."""
    dims = invariant_cohomology_dims(gx)
    betti = quotient_homology(gx).betti
    top = max(len(dims), len(betti))
    rows = []
    for k in range(top):
        a = dims[k] if k < len(dims) else 0
        b = betti[k] if k < len(betti) else 0
        rows.append((k, a, b))
    return InvariantsCheck(tuple(rows))
