"""Built-in example actions: named deterministic (group, complex, action)
triples used by the CLI and the test suite.

Available names: ``d4-torus``, ``z4-torus``, ``z2-flip-torus``, ``z2-circle``,
``z2-antipodal-sphere`` and ``trivial-on(torus)`` / ``trivial-on(circle)``.

The torus is triangulated on a 4x4 grid of quarter-integer points plus one
center point per grid square (32 vertices, 96 edges, 64 triangles); the
dihedral symmetries act by exact rational linear maps modulo 1, so every
claimed symmetry is verified, not assumed.  The circle is the 8-gon.  The
sphere is the boundary of the octahedron; its antipodal map is free, so the
quotient is the real projective plane and carries 2-torsion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import UnknownFixture
from .groups import cyclic_group, dihedral_group, trivial_group

if TYPE_CHECKING:
    from .complexes import GSimplicialComplex, SimplicialComplex

FIXTURE_NAMES = ("d4-torus", "z4-torus", "z2-flip-torus", "z2-circle",
                 "z2-antipodal-sphere", "trivial-on(torus)",
                 "trivial-on(circle)")

_GRID = 4  # grid squares per side; vertex coordinates live in (1/GRID)Z^2 / Z^2


def _torus_vertices():
    """Vertex id -> exact (s, t) coordinate on the unit square mod 1."""
    from fractions import Fraction

    coords = []
    for i in range(_GRID):
        for j in range(_GRID):
            coords.append((Fraction(i, _GRID), Fraction(j, _GRID)))
    half = Fraction(1, 2 * _GRID)
    for i in range(_GRID):
        for j in range(_GRID):
            coords.append((Fraction(i, _GRID) + half,
                           Fraction(j, _GRID) + half))
    return coords


def torus_complex() -> SimplicialComplex:
    from .complexes import SimplicialComplex

    def grid(i, j):
        return (i % _GRID) * _GRID + (j % _GRID)

    def center(i, j):
        return _GRID * _GRID + (i % _GRID) * _GRID + (j % _GRID)

    triangles = []
    for i in range(_GRID):
        for j in range(_GRID):
            c00 = grid(i, j)
            c10 = grid(i + 1, j)
            c11 = grid(i + 1, j + 1)
            c01 = grid(i, j + 1)
            m = center(i, j)
            triangles += [(c00, c10, m), (c10, c11, m),
                          (c11, c01, m), (c01, c00, m)]
    return SimplicialComplex(2 * _GRID * _GRID, triangles)


def circle_complex(n=8) -> SimplicialComplex:
    from .complexes import SimplicialComplex

    return SimplicialComplex(n, [(k, (k + 1) % n) for k in range(n)])


def _torus_permutation(linear_map):
    """Vertex permutation induced by an exact map on coordinates mod 1."""
    coords = _torus_vertices()
    index = {c: v for v, c in enumerate(coords)}
    images = []
    for s, t in coords:
        u, w = linear_map(s, t)
        images.append(index[(u % 1, w % 1)])
    return tuple(images)


def _dihedral_map(k):
    """Element k of ``dihedral_group(4)`` on (s, t): the k-th quarter turn
    (s, t) -> (-t, s) for k < 4, and for k >= 4 quarter turn k - 4 followed
    by the reflection (s, t) -> (s, -t).  Elements 0..3 are also those of
    ``cyclic_group(4)``."""
    def apply(s, t):
        for _ in range(k % 4):
            s, t = -t, s
        return (s, t) if k < 4 else (s, -t)
    return apply


# Each builder returns (complex, group, vertex action).


def _torus(group, elements):
    """The torus, element i of group acting by _dihedral_map(elements[i])."""
    action = [_torus_permutation(_dihedral_map(k)) for k in elements]
    return torus_complex(), group, action


def _z2_circle():
    n = 8
    identity = tuple(range(n))
    reflect = tuple((n - k) % n for k in range(n))
    return circle_complex(n), cyclic_group(2), [identity, reflect]


def _z2_antipodal_sphere():
    """The octahedron: vertices 2k and 2k + 1 are the two poles on axis k,
    one triangle per choice of a pole on each axis; the generator swaps
    every pair of poles."""
    from .complexes import SimplicialComplex

    octahedron = SimplicialComplex(6, [(a, b, c) for a in (0, 1)
                                       for b in (2, 3) for c in (4, 5)])
    return octahedron, cyclic_group(2), [tuple(range(6)), (1, 0, 3, 2, 5, 4)]


def _trivial_on(complex: SimplicialComplex):
    return complex, trivial_group(), [tuple(range(complex.vertex_count))]


_BUILDERS = {
    "d4-torus": lambda: _torus(dihedral_group(4), range(8)),
    "z4-torus": lambda: _torus(cyclic_group(4), range(4)),
    "z2-flip-torus": lambda: _torus(cyclic_group(2), (0, 2)),
    "z2-circle": _z2_circle,
    "z2-antipodal-sphere": _z2_antipodal_sphere,
    "trivial-on(torus)": lambda: _trivial_on(torus_complex()),
    "trivial-on(circle)": lambda: _trivial_on(circle_complex()),
}


def fixture(name) -> GSimplicialComplex:
    """Build the named fixture; every built-in action is admissible, and
    that is checked here."""
    if name not in _BUILDERS:
        raise UnknownFixture(
            "unknown fixture %r (available: %s)"
            % (name, ", ".join(sorted(_BUILDERS))))
    from .complexes import GSimplicialComplex

    gx = GSimplicialComplex(*_BUILDERS[name]())
    gx.require_admissible()
    return gx
