"""Integral K-theory of C0(X) x| G for a finite group acting on a finite
complex.

Rational ranks come from the localization decomposition over conjugacy
classes (sum of rational K-ranks of the centralizer quotients of fixed sets),
and in the isolated-singular-orbit regime the integral K-groups are
assembled from the six-term sequence with the boundary map provably zero
whenever the odd K-group of the quotient is torsion-free.  For an admissible
action X/G is a CW complex with one cell per simplex orbit, and so is each
X^g/Z(g); the decomposition reads each H_*(X^g/Z(g)) from their cellular
chains, and the identity's row from X itself, so nothing is subdivided;
isolated_k_theory reads H_*(X/G) from that row and runs the cross-check.
The Euler-characteristic routes and the counting identity are in ``euler``.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (GSimplicialComplex, centralizer_fixed_action,
                        orbits_and_stabilizers)
from .errors import InternalInconsistency, NotIsolated
from .groups import conjugacy_data
from .homology import KRanks, quotient_homology


class BCDecomposition(NamedTuple):
    """Per-conjugacy-class integral homology of the centralizer quotients of
    fixed sets, and the componentwise totals of their K-ranks."""

    per_class: tuple  # records (class idx, rep, HomologyResult)
    totals: KRanks

    def ranks_by_class(self):
        return [(rep, *hom.k_ranks()) for _, rep, hom in self.per_class]


def bc_decomposition(gx: GSimplicialComplex) -> BCDecomposition:
    """H_*(X^g/Z(g)) per class, from the orbit cells of X^g under Z(g).

    X^e = X and Z(e) = G, so the identity's row is read from gx itself.
    X^g/Z(g) is a CW complex whose cells are the orbits of X^g, so no class
    needs a subdivision or a simplicial quotient.  The totals are checked
    against the prim nodes: the open-cell pieces of C(X) x| G are Morita
    equivalent to C0(cell) (x) C*(Stab), so even - odd must equal the sum
    over orbits of (-1)^dim #classes(Stab).
    """
    cd = conjugacy_data(gx.group)
    per_class = []
    totals = KRanks(0, 0)
    for idx, rep in enumerate(cd.reps):
        sub = (gx if rep == gx.group.identity
               else centralizer_fixed_action(gx, rep).gcomplex)
        hom = quotient_homology(sub)
        per_class.append((idx, rep, hom))
        totals = totals + hom.k_ranks()
    signed = {}  # stabilizer -> sum of (-1)^dim over its orbits
    for rep, _, stab, _ in orbits_and_stabilizers(gx).orbits:
        signed[stab] = signed.get(stab, 0) + (-1) ** (len(rep) - 1)
    euler = sum(n * len(conjugacy_data(stab.group).classes)
                for stab, n in signed.items())
    if euler != totals.even - totals.odd:
        raise InternalInconsistency(
            "prim nodes count Euler characteristic %d, bc totals %d"
            % (euler, totals.even - totals.odd))
    return BCDecomposition(tuple(per_class), totals)


def _singular_orbits(gx: GSimplicialComplex):
    """Orbits with nontrivial stabilizer; NotIsolated unless all are vertices."""
    od = orbits_and_stabilizers(gx)
    singular = []
    for i in range(len(od)):
        if od.stabilizer(i).order > 1:
            if len(od.rep(i)) > 1:
                raise NotIsolated(
                    "simplex orbit %r of dimension %d has stabilizer of "
                    "order %d" % (od.rep(i), len(od.rep(i)) - 1,
                                  od.stabilizer(i).order))
            singular.append(i)
    return od, singular


def _rep_star_count(stabilizer):
    """Number of nontrivial irreps = conjugacy class count minus one."""
    return len(conjugacy_data(stabilizer.group).classes) - 1


class IsolatedKResult(NamedTuple):
    """Integral K-theory in the isolated-singular-orbit regime.

    k0/k1 are (rank, torsion tuple) when the quotient has dimension at most
    two, rank-only (torsion None) otherwise.  boundary_status records whether
    the connecting map of the six-term sequence is provably zero or merely
    has torsion image bounded per orbit by the stabilizer order.
    """

    singular_orbits: tuple  # records (orbit id, stabilizer, extra rank)
    quotient_k0: tuple
    quotient_k1: tuple
    k0: tuple
    k1: tuple
    boundary_status: str
    torsion_bounds: tuple  # records (orbit id, stabilizer order)
    dimension_capped: bool
    decomposition: BCDecomposition


def isolated_k_theory(gx: GSimplicialComplex) -> IsolatedKResult:
    """K-groups from H_*(X/G), read from the identity row of
    bc_decomposition (not row 0: relabeling can sort central elements
    first), plus one correction per singular orbit; checked by
    bc_cross_check."""
    od, singular = _singular_orbits(gx)
    singular_records = tuple(
        (i, od.stabilizer(i), _rep_star_count(od.stabilizer(i)))
        for i in singular)
    extra_rank = sum(r for _, _, r in singular_records)
    decomp = bc_decomposition(gx)
    identity_class = conjugacy_data(gx.group).class_of[gx.group.identity]
    _, _, hom = decomp.per_class[identity_class]
    even, odd = hom.k_ranks()
    torsion_bounds = tuple((i, stab.order) for i, stab, _ in singular_records)
    capped = gx.complex.dimension > 2  # dim X/G = dim X
    if capped:
        t0 = t1 = None
    else:
        # K0 of the quotient is H0 + H2; its torsion is the torsion of H1
        # (universal coefficients); K1 = H1 modulo torsion contributions of
        # H0, which vanish, so K1 is torsion-free here.
        t0, t1 = (hom.torsion[1] if len(hom.torsion) > 1 else ()), ()
    result = IsolatedKResult(
        singular_records, (even, t0), (odd, t1), (even + extra_rank, t0),
        (odd, t1), "torsion-bounded" if capped else "provably-zero",
        torsion_bounds, capped, decomp)
    bc_cross_check(decomp, result)
    return result


def bc_cross_check(decomp: BCDecomposition, result: IsolatedKResult):
    """Assert the localization totals match the isolated-regime ranks.

    Both sides count X/G by its identity row; what they compare on their own
    is the K-ranks of X^g/Z(g) over nontrivial classes against (#irreps - 1)
    of the stabilizer over singular orbits.  decomp is not recomputed.
    """
    totals = decomp.totals
    if (totals.even, totals.odd) != (result.k0[0], result.k1[0]):
        raise InternalInconsistency(
            "localization totals (%d, %d) disagree with isolated ranks "
            "(%d, %d)" % (totals.even, totals.odd,
                          result.k0[0], result.k1[0]))
    return totals
