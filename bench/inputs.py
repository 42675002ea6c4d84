"""Seeded inputs for the benchmark.

Torus bundles (Z4 or D4 acting on the grid-N torus) and group
multiplication tables, each relabeled by a permutation drawn from the seed
and written with the repository's own serializers.  Seed 0 keeps the
construction's own labeling, which at grid 4 is the labeling of the
``z4-torus`` and ``d4-torus`` fixtures.

The torus construction repeats ``orbikt.fixtures`` with the grid size as a
parameter: vertices are the points of (1/N)Z^2 / Z^2 plus one centre per
grid square, and the group acts by exact rational maps modulo 1, so every
symmetry is computed, not assumed.
"""

import random
from fractions import Fraction

from orbikt.complexes import GSimplicialComplex, SimplicialComplex
from orbikt.formats import serialize_bundle, serialize_group
from orbikt.groups import FiniteGroup, cyclic_group, dihedral_group


def _torus_coords(grid):
    corners = [(Fraction(i, grid), Fraction(j, grid))
               for i in range(grid) for j in range(grid)]
    half = Fraction(1, 2 * grid)
    return corners + [(s + half, t + half) for s, t in corners]


def _torus_triangles(grid):
    def corner(i, j):
        return (i % grid) * grid + (j % grid)

    triangles = []
    for i in range(grid):
        for j in range(grid):
            c00, c10 = corner(i, j), corner(i + 1, j)
            c11, c01 = corner(i + 1, j + 1), corner(i, j + 1)
            m = grid * grid + corner(i, j)
            triangles += [(c00, c10, m), (c10, c11, m),
                          (c11, c01, m), (c01, c00, m)]
    return triangles


def _dihedral_map(k, s, t):
    """Element k of ``dihedral_group(4)`` acting on (s, t): the k-th quarter
    turn (s, t) -> (-t, s) for k < 4, and for k = 4 + j the j-th quarter turn
    followed by the reflection (s, t) -> (s, -t).  Elements 0..3 are also the
    elements of ``cyclic_group(4)``."""
    for _ in range(k % 4):
        s, t = -t, s
    return (s, t) if k < 4 else (s, -t)


def torus_action(kind, grid):
    """The Z4 (``"z4"``) or D4 (``"d4"``) action on the grid torus."""
    group = {"z4": cyclic_group, "d4": dihedral_group}[kind](4)
    coords = _torus_coords(grid)
    index = {c: v for v, c in enumerate(coords)}
    action = []
    for k in range(group.order):
        images = (_dihedral_map(k, s, t) for s, t in coords)
        action.append(tuple(index[(u % 1, w % 1)] for u, w in images))
    complex = SimplicialComplex(len(coords), _torus_triangles(grid))
    return GSimplicialComplex(complex, group, action, check=False)


def _permutation(rng, n):
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    return perm


def _relabel_group(group, pi):
    n = group.order
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mult[pi[a]][pi[b]] = pi[group.mult[a][b]]
    return FiniteGroup(mult, check=False)


def relabel_action(gx, seed):
    """gx with its group elements and its vertices renamed by seeded
    permutations; seed 0 renames nothing."""
    rng = random.Random(seed) if seed else None
    pi = _permutation(rng, gx.group.order)
    sigma = _permutation(rng, gx.complex.vertex_count)
    group = _relabel_group(gx.group, pi)
    # The torus is pure, so its top-dimensional simplices are its maximal ones.
    complex = SimplicialComplex(
        gx.complex.vertex_count,
        [tuple(sigma[v] for v in s) for s in gx.complex.simplices[-1]])
    action = [None] * gx.group.order
    for g, row in enumerate(gx.vertex_action):
        image = [0] * len(row)
        for v, w in enumerate(row):
            image[sigma[v]] = sigma[w]
        action[pi[g]] = tuple(image)
    return GSimplicialComplex(complex, group, action, check=False)


def torus_bundle_text(kind, grid, seed):
    """A bundle document (group, complex, action) for the relabeled torus."""
    return serialize_bundle(relabel_action(torus_action(kind, grid), seed))


def group_table_text(group, seed):
    """A table-format group file for the group with relabeled elements."""
    rng = random.Random(seed) if seed else None
    return serialize_group(_relabel_group(group,
                                          _permutation(rng, group.order)))
