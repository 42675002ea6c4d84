"""Equivariant Euler characteristics and the counting identity.

Three routes give the Euler characteristic of K^G_*(X) (only the tests
compare them): the localization totals of ``ktheory.bc_decomposition``, the
commuting-pair average of fixed-set Euler characteristics, and, when every
singular orbit is a vertex orbit, chi(X/G) plus one correction per singular
orbit.  chi(X/G) is also checked against the class average of fixed-set
Euler characteristics, and an exact counting identity is verified when all
nontrivial fixed sets are finite.  For an admissible action X/G is a CW
complex with one cell per simplex orbit, so chi(X/G) counts those cells.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import (GSimplicialComplex, centralizer_fixed_action,
                        fixed_subcomplex, orbits_and_stabilizers)
from .errors import NonIntegralResult, NotApplicable
from .groups import commuting_pairs, conjugacy_data
from .homology import euler_characteristic
from .ktheory import _rep_star_count, _singular_orbits, bc_decomposition


def _quotient_euler(od):
    """chi(X/G): X/G has one cell per simplex orbit, of its dimension."""
    return sum((-1) ** (len(rep) - 1) for rep, *_ in od.orbits)


def equivariant_euler(gx: GSimplicialComplex, method="bc") -> int:
    """The Euler characteristic of K^G_*(X) (rank K0 - rank K1), by one of
    three formulas:

    - "bc": even - odd of the localization totals of bc_decomposition;
    - "commuting_pairs": (1/|G|) sum over commuting pairs (g, h) of
      chi(X^<g,h>);
    - "isolated": chi(X/G) + sum over singular orbits of (#irreps - 1) of
      the stabilizer, where every singular orbit must be a vertex orbit.
    """
    gx.require_admissible()
    if method == "bc":
        totals = bc_decomposition(gx).totals
        return totals.even - totals.odd
    if method == "commuting_pairs":
        order = gx.group.order
        total = 0
        for g, h in commuting_pairs(gx.group):
            fixed = fixed_subcomplex(gx, [g, h])
            total += euler_characteristic(fixed.complex)
        if total % order:
            raise NonIntegralResult(
                "commuting-pair sum %d is not divisible by |G| = %d"
                % (total, order))
        return total // order
    if method == "isolated":
        od, singular = _singular_orbits(gx)
        return (_quotient_euler(od)
                + sum(_rep_star_count(od.stabilizer(i)) for i in singular))
    raise ValueError("unknown method %r" % (method,))


class EulerQuotientCheck(NamedTuple):
    """Euler characteristic of X/G against the fixed-set class average."""

    lhs: int
    rhs: int | Fraction
    integral: bool

    @property
    def equal(self):
        return self.integral and self.lhs == self.rhs


def euler_quotient_check(gx: GSimplicialComplex) -> EulerQuotientCheck:
    """Compare the quotient's Euler characteristic with the fixed-set average."""
    lhs = _quotient_euler(orbits_and_stabilizers(gx))
    cd = conjugacy_data(gx.group)
    total = 0
    for cls, rep in zip(cd.classes, cd.reps):
        fixed = fixed_subcomplex(gx, [rep])
        total += len(cls) * euler_characteristic(fixed.complex)
    rhs = Fraction(total, gx.group.order)
    integral = rhs.denominator == 1
    return EulerQuotientCheck(lhs, int(rhs) if integral else rhs, integral)


class CountIdentity(NamedTuple):
    """Point counts of nontrivial-class quotients against singular irreps."""

    lhs: int
    rhs: int

    @property
    def equal(self):
        return self.lhs == self.rhs


def bc_vs_count_identity(gx: GSimplicialComplex) -> CountIdentity:
    """Sum of point counts of nontrivial-class quotients against the total
    number of nontrivial stabilizer irreps over singular orbits.

    Requires every fixed set of a nontrivial element to be 0-dimensional.
    The points of such an X^g/Z(g) are the orbits of its vertices.
    """
    cd = conjugacy_data(gx.group)
    identity_class = cd.class_of[gx.group.identity]
    lhs = 0
    for idx, rep in enumerate(cd.reps):
        if idx == identity_class:
            continue
        cfa = centralizer_fixed_action(gx, rep)
        dimension = cfa.gcomplex.complex.dimension
        if dimension > 0:
            raise NotApplicable("fixed set of element %d is %d-dimensional"
                                % (rep, dimension))
        lhs += len(orbits_and_stabilizers(cfa.gcomplex))
    od, singular = _singular_orbits(gx)
    rhs = sum(_rep_star_count(od.stabilizer(i)) for i in singular)
    return CountIdentity(lhs, rhs)
