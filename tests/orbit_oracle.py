"""The orbit pass as it read before its images came from vertex image
columns: each representative is mapped under each element by
``GSimplicialComplex.simplex_image``, one sorted tuple per call, and the
least element reaching a member is kept as its transporter by a membership
test.  ``tests/test_complexes.py`` compares ``complexes._orbit_pass`` with
it.  The body below is the old pass verbatim, so it reads and fills
``gx._orbit_data`` like the pass it checks: hand it a G-complex whose pass
has not run.
"""

from __future__ import annotations

from orbikt.complexes import GSimplicialComplex, OrbitData
from orbikt.errors import NotAdmissible
from orbikt.groups import Subgroup


def _orbit_pass(gx: GSimplicialComplex, check=False):
    """The orbits of gx and its admissibility witness, built once and cached
    in gx._orbit_data.  With check, it returns None as soon as an image of a
    representative is not a simplex of gx, and caches nothing.

    Simplices are walked in (dimension, lex) order, so the first one met of
    each orbit is its representative; it is mapped under every element
    exactly once, and its members, transporters and stabilizer are read from
    those images, and its facets from the orbits met before it.  Orbits with
    the same stabilizer share one checked Subgroup.  Stabilizers are
    conjugate along an orbit, so the orbit is admissible iff Stab(rep)
    fixes rep pointwise.  Only when some orbit is not are the violators
    conjugated along the transporters to every member, to find the smallest
    violating element and its first simplex.
    """
    if gx._orbit_data is not None:
        return gx._orbit_data
    group = gx.group
    complex = gx.complex
    orbit_of = {}
    orbits = []
    facets = []
    subgroups = {}  # stabilizer elements -> its one Subgroup in this pass
    violations = []  # (transporter, elements of Stab(rep) moving a vertex)
    for rep in complex.all_simplices():
        if rep in orbit_of:
            continue
        level = complex._levels[len(rep) - 1]
        transporter = {}
        stab = []
        for g in range(group.order):
            t = gx.simplex_image(g, rep)
            if check and t not in level:
                return None
            if t not in transporter:
                transporter[t] = g
            if t == rep:
                stab.append(g)
        members = tuple(sorted(transporter))
        if len(members) * len(stab) != group.order:
            raise NotAdmissible(
                "orbit-stabilizer identity fails for %r" % (rep,))
        moving = [g for g in stab
                  if any(gx.vertex_action[g][v] != v for v in rep)]
        if moving:
            violations.append((transporter, moving))
        faces_of_rep = (rep[:i] + rep[i + 1:] for i in range(len(rep)))
        facets.append(tuple((orbit_of[f], orbits[orbit_of[f]][3][f])
                            for f in faces_of_rep if f))  # none for a vertex
        for t in members:
            orbit_of[t] = len(orbits)
        stab = tuple(stab)
        if stab not in subgroups:
            subgroups[stab] = Subgroup(group, stab)
        orbits.append((rep, members, subgroups[stab], transporter))
    witness = None
    if violations:
        # t g t^-1 leaves t·rep invariant and moves one of its vertices
        mult, inv = group.mult, group.inv
        g, _, s = min((mult[mult[t][g]][inv[t]], len(m), m)
                      for transporter, moving in violations
                      for m, t in transporter.items() for g in moving)
        witness = (g, s)
    gx._orbit_data = OrbitData(orbits, orbit_of, facets, witness)
    return gx._orbit_data
