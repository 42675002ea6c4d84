"""Finite simplicial complexes with simplicial finite-group actions.

Covers admissibility (setwise-invariant simplices are pointwise fixed),
barycentric subdivision, simplex orbits with stabilizers and transporters,
fixed subcomplexes, quotients under a Bredon-type regularity condition, and
constant-isotropy strata.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from math import factorial
from typing import NamedTuple

from .errors import (BadAction, BoundExceeded, InternalInconsistency,
                     NotAComplex, NotAdmissible)
from .groups import FiniteGroup, Subgroup, _span

# Most barycentric subdivisions quotient_complex applies to reach a quotient.
MAX_SUBDIVISIONS = 2

# Most simplices a complex may have, counted before any face is listed as the
# vertices plus every face of every given simplex.  The grid-24 torus counts
# about 17k; one simplex on 19 vertices (524k faces) takes seconds to close.
MAX_SIMPLICES = 2 ** 20


def _check_simplex_bound(bound):
    if bound > MAX_SIMPLICES:
        raise BoundExceeded(
            "complex may have up to %d simplices, more than %d"
            % (bound, MAX_SIMPLICES))


def faces(simplex):
    """Every non-empty face of a vertex tuple, each in the tuple's order."""
    return chain.from_iterable(combinations(simplex, k)
                               for k in range(1, len(simplex) + 1))


class SimplicialComplex:
    """A finite abstract simplicial complex, closed under faces.

    Simplices are strictly increasing vertex tuples; every vertex index below
    vertex_count occurs as a 0-simplex.  A complex that could have more than
    MAX_SIMPLICES simplices (the vertices plus every face of every given
    simplex) is refused with BoundExceeded before any face is listed.
    """

    def __init__(self, vertex_count, maximal_simplices):
        if vertex_count < 0:
            raise NotAComplex("negative vertex count")
        given = []
        for s in maximal_simplices:
            s = tuple(sorted(set(s)))
            if not s:
                raise NotAComplex("empty simplex")
            if s[0] < 0 or s[-1] >= vertex_count:
                raise NotAComplex("vertex index out of range in %r" % (s,))
            given.append(s)
        _check_simplex_bound(
            vertex_count + sum((1 << len(s)) - 1 for s in given))
        # one set of simplices per dimension; every vertex is a 0-simplex
        # already, so the faces of a given simplex start at edges
        levels = [{(v,) for v in range(vertex_count)}] if vertex_count else []
        for s in given:
            while len(levels) < len(s):
                levels.append(set())
            levels[len(s) - 1].add(s)
            for k in range(2, len(s)):
                levels[k - 1].update(combinations(s, k))
        self.vertex_count = vertex_count
        self.simplices = tuple(tuple(sorted(level)) for level in levels)
        self._levels = levels

    @property
    def dimension(self):
        return len(self.simplices) - 1

    def f_vector(self):
        return tuple(len(level) for level in self.simplices)

    def __contains__(self, simplex):
        simplex = tuple(simplex)
        return 0 < len(simplex) <= len(self._levels) and \
            simplex in self._levels[len(simplex) - 1]

    def all_simplices(self):
        for level in self.simplices:
            yield from level

    def maximal_simplices(self):
        """Simplices with no proper coface, in (len, s) order.

        Since the complex is closed under faces, a simplex has a proper
        coface exactly when it is a codimension-1 face of some simplex one
        dimension up, so one pass over each level finds the non-maximal
        ones in O(#simplices * dim).
        """
        out = []
        for k, level in enumerate(self.simplices):
            up = self.simplices[k + 1] if k < self.dimension else ()
            covered = {t[:i] + t[i + 1:] for t in up for i in range(k + 2)}
            out.extend(s for s in level if s not in covered)
        return out

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.vertex_count == other.vertex_count
                and self.simplices == other.simplices)


class FixedSubcomplex(NamedTuple):
    """A full subcomplex on a fixed vertex set, with the re-indexing map."""

    complex: SimplicialComplex
    vertex_embedding: tuple  # new index -> old


class GSimplicialComplex:
    """A simplicial complex with a simplicial action of a finite group.

    vertex_action has one row of vertex images per element; a None row is
    derived through the group table.  check=False takes every row as given;
    the first orbit pass still checks that they keep the complex.
    """

    def __init__(self, complex: SimplicialComplex, group: FiniteGroup,
                 vertex_action, check=True):
        self.complex = complex
        self.group = group
        self._orbit_data = None
        self._subdivision = None
        if check:
            self._validate(vertex_action)
        else:
            self.vertex_action = tuple(tuple(row) for row in vertex_action)

    def _validate(self, rows):
        """Close the given rows into the action and prove it a homomorphism
        into the vertex permutations; the orbit pass then proves that it
        keeps the complex, and caches the orbits."""
        group = self.group
        if len(rows) != group.order:
            raise BadAction("need one vertex permutation per group element")
        identity = tuple(range(self.complex.vertex_count))
        ordered = list(identity)
        rows = [row if row is None else tuple(row) for row in rows]
        for g, row in enumerate(rows):
            if row is not None and sorted(row) != ordered:
                raise BadAction("element %d does not act by a permutation" % g)
        if rows[group.identity] not in (None, identity):
            raise BadAction("identity does not act trivially")
        rows[group.identity] = identity
        # span lists the identity, then each element as a*s for an earlier a
        # and a kept s.  Setting or checking act(a*s) = act(a) o act(s) for
        # every a in span and kept s proves a homomorphism on the group the
        # kept (so also the given) elements generate, by induction on the
        # length of a word in the kept elements.
        mult = group.mult
        kept, span = _span(mult, group.identity,
                           [g for g, row in enumerate(rows) if row is not None])
        generators = [(s, rows[s]) for s in kept]
        for a in span:
            pa, row = rows[a], mult[a]
            for s, ps in generators:
                c = row[s]
                pc = tuple(map(pa.__getitem__, ps))
                if rows[c] is None:
                    rows[c] = pc
                elif rows[c] != pc:
                    raise BadAction(
                        "action is not a homomorphism: inconsistent with the "
                        "group table at element %s" % group.name_of(c))
        if len(span) != group.order:
            raise BadAction(
                "action file elements do not generate the group "
                "(element %s is unreachable)" % group.name_of(rows.index(None)))
        self.vertex_action = tuple(rows)
        _orbit_pass(self)

    def simplex_image(self, g, simplex):
        return tuple(sorted(map(self.vertex_action[g].__getitem__, simplex)))

    def is_admissible(self):
        """True iff every setwise-invariant simplex is pointwise fixed."""
        ok, _ = self.admissibility_witness()
        return ok

    def admissibility_witness(self):
        """(True, None), or (False, (g, simplex)) for the smallest element g
        that leaves some simplex invariant without fixing it pointwise and
        the first such simplex in (dimension, lex) order."""
        witness = _orbit_pass(self).witness
        return witness is None, witness

    def subdivision(self) -> GSimplicialComplex:
        """sd(self), built by barycentric_subdivide once and cached."""
        if self._subdivision is None:
            self._subdivision = barycentric_subdivide(self)
        return self._subdivision

    def require_admissible(self):
        ok, witness = self.admissibility_witness()
        if not ok:
            raise NotAdmissible(
                "element %d permutes the vertices of invariant simplex %r"
                % witness, witness=witness)


def barycentric_subdivide(gx: GSimplicialComplex) -> GSimplicialComplex:
    """Barycentric subdivision with the induced action on flags.

    Vertices of the result are the simplices of the input (in the canonical
    dimension-then-lex order); k-simplices are strict flags s0 < ... < sk.
    The size bound of the result is checked before any flag is listed.
    """
    old = gx.complex
    tops = old.maximal_simplices()
    _check_subdivision_bound(old, tops)
    verts = list(old.all_simplices())
    vert_id = {s: i for i, s in enumerate(verts)}
    maximal = []
    for top in tops:
        flags = [[top]]
        while flags and len(flags[0]) < len(top):
            extended = []
            for flag in flags:
                small = flag[0]
                for drop in range(len(small)):
                    face = small[:drop] + small[drop + 1:]
                    extended.append([face] + flag)
            flags = extended
        for flag in flags:
            maximal.append(tuple(vert_id[s] for s in flag))
    new_complex = SimplicialComplex(len(verts), maximal)
    action = tuple(
        tuple(vert_id[gx.simplex_image(g, s)] for s in verts)
        for g in range(gx.group.order)
    )
    return GSimplicialComplex(new_complex, gx.group, action, check=False)


def _check_subdivision_bound(complex: SimplicialComplex, maximal):
    """The bound SimplicialComplex checks on the barycentric subdivision:
    one vertex per simplex, and |s|! full flags of |s| vertices each for
    every maximal simplex s."""
    _check_simplex_bound(
        sum(len(level) for level in complex.simplices)
        + sum(factorial(len(s)) * ((1 << len(s)) - 1) for s in maximal))


class OrbitData:
    """G-orbits of simplices: representatives, members, stabilizers,
    transporters, ordered by (dimension, representative), and the
    admissibility witness (None when the action is admissible).  Facets:
    facets[t][i] = (s, k), where face i of rep_t (no vertex i) is k·rep_s."""

    def __init__(self, orbits, orbit_of, facets, witness):
        self.orbits = tuple(orbits)  # records (rep, members, stab, transporter)
        self.orbit_of = orbit_of     # simplex tuple -> orbit id
        self.facets = tuple(facets)
        self.witness = witness

    def __len__(self):
        return len(self.orbits)

    def rep(self, i):
        return self.orbits[i][0]

    def members(self, i):
        return self.orbits[i][1]

    def stabilizer(self, i) -> Subgroup:
        return self.orbits[i][2]


def _images(columns, rep):
    """The images g·rep of a simplex under every element g, in element
    order, read from the vertex image columns (columns[v][g] = g·v).  A
    vertex's images need no sort and an edge's one comparison each."""
    if len(rep) == 1:
        return list(zip(columns[rep[0]]))
    if len(rep) == 2:
        return [(a, b) if a < b else (b, a)
                for a, b in zip(columns[rep[0]], columns[rep[1]])]
    return [tuple(sorted(t)) for t in zip(*[columns[v] for v in rep])]


def _orbit_pass(gx: GSimplicialComplex):
    """The orbits of gx and its admissibility witness, built once and cached
    in gx._orbit_data, and the one proof that the action keeps the complex.

    Simplices are walked in (dimension, lex) order, so the first one met of
    each orbit is its representative; it is mapped under every element
    exactly once, by _images.  A representative with an image outside the
    complex raises BadAction, naming the least element that maps it out.
    For a homomorphism g·(k·rep) = (gk)·rep, so this proves that the action
    keeps the complex, and names the first simplex in (dimension, lex)
    order with an image outside.

    Each representative's members, transporters and stabilizer are read
    from its images, and its facets from the orbits met before it.  The
    transporter of a member is the least g mapping rep to it: the dict is
    built over the images in reverse, so the least g is written last.
    Orbits with the same stabilizer share one checked Subgroup.  Stabilizers
    are conjugate along an orbit, so the orbit is admissible iff Stab(rep)
    fixes rep pointwise.  Only when some orbit is not are the violators
    conjugated along the transporters to every member, to find the smallest
    violating element and its first simplex.
    """
    if gx._orbit_data is not None:
        return gx._orbit_data
    group = gx.group
    complex = gx.complex
    columns = list(zip(*gx.vertex_action))
    elements = range(group.order)
    orbit_of = {}
    orbits = []
    facets = []
    subgroups = {}  # stabilizer elements -> its one Subgroup in this pass
    violations = []  # (transporter, elements of Stab(rep) moving a vertex)
    for simplices, level in zip(complex.simplices, complex._levels):
        for rep in simplices:
            if rep in orbit_of:
                continue
            images = _images(columns, rep)
            if not level.issuperset(images):
                g = next(g for g in elements if images[g] not in level)
                raise BadAction("element %d maps simplex %r outside the "
                                "complex" % (g, rep))
            transporter = dict(zip(reversed(images), reversed(elements)))
            stab = tuple([g for g in elements if images[g] == rep])
            members = tuple(sorted(transporter))
            if len(members) * len(stab) != group.order:
                raise NotAdmissible(
                    "orbit-stabilizer identity fails for %r" % (rep,))
            moving = [g for g in stab if any(columns[v][g] != v for v in rep)]
            if moving:
                violations.append((transporter, moving))
            # combinations lists first the face without the last vertex,
            # so reversed, face i is the one without vertex i
            faces_of_rep = (combinations(rep, len(rep) - 1)
                            if len(rep) > 1 else ())  # a vertex has none
            facets.append(tuple([(orbit_of[f], orbits[orbit_of[f]][3][f])
                                 for f in faces_of_rep][::-1]))
            orbit_of.update(zip(members, repeat(len(orbits))))
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


def orbits_and_stabilizers(gx: GSimplicialComplex) -> OrbitData:
    gx.require_admissible()
    return _orbit_pass(gx)


def fixed_subcomplex(gx: GSimplicialComplex, elements) -> FixedSubcomplex:
    """The full subcomplex of points fixed by every element of the set.

    Under admissibility this is exactly the fixed-point set: a simplex is
    pointwise fixed iff all its vertices are.
    """
    gx.require_admissible()
    elements = list(elements)
    fixed = tuple(v for v in range(gx.complex.vertex_count)
                  if all(gx.vertex_action[g][v] == v for g in elements))
    new_id = {v: i for i, v in enumerate(fixed)}
    fixed_set = set(fixed)
    surviving = [
        tuple(new_id[v] for v in s)
        for s in gx.complex.all_simplices()
        if set(s) <= fixed_set
    ]
    return FixedSubcomplex(SimplicialComplex(len(fixed), surviving), fixed)


class QuotientResult(NamedTuple):
    """Quotient complex of a Bredon-regular action, with projection data."""

    complex: SimplicialComplex
    vertex_map: tuple  # source vertex -> quotient vertex
    subdivisions: int

    def project(self, simplex):
        return tuple(sorted(set(self.vertex_map[v] for v in simplex)))


def _bredon_witness(gx: GSimplicialComplex):
    """None if the quotient of gx is simplicial, else one offending datum.

    Condition (a): within any simplex, vertices lie in pairwise-distinct
    vertex orbits.  Condition (b): simplices with the same vertex-orbit image
    form a single G-orbit.
    """
    orbit_of = orbits_and_stabilizers(gx).orbit_of
    buckets = {}
    for s in gx.complex.all_simplices():
        image = tuple(sorted(orbit_of[(v,)] for v in s))
        if len(set(image)) != len(s):
            return ("vertices collide", s)
        buckets.setdefault(image, set()).add(orbit_of[s])
    for image, orbit_ids in buckets.items():
        if len(orbit_ids) > 1:
            return ("distinct orbits identified", image)
    return None


def _subdivided_quotient(gx: GSimplicialComplex, subdivisions):
    """sd(gx)/G read from the orbits of admissible gx, or None when sd(gx)
    fails the Bredon check; see quotient_complex."""
    complex = gx.complex
    maximal = complex.maximal_simplices()
    _check_subdivision_bound(complex, maximal)
    od = _orbit_pass(gx)
    # chains[t]: the images of the chains topped by rep(t), bottom first
    chains = []
    for t in range(len(od)):
        rep = od.rep(t)
        images = [(t,)]
        for k in range(1, len(rep)):
            for face in combinations(rep, k):
                images.extend(image + (t,)
                              for image in chains[od.orbit_of[face]])
        if len(set(images)) != len(images):
            return None
        chains.append(images)
    tops = sorted({od.orbit_of[s] for s in maximal})
    flags = [image for t in tops for image in chains[t]
             if len(image) == len(od.rep(t))]
    vertex_map = tuple(od.orbit_of[s] for s in complex.all_simplices())
    return QuotientResult(SimplicialComplex(len(od), flags), vertex_map,
                          subdivisions)


def quotient_complex(gx: GSimplicialComplex) -> QuotientResult:
    """X/G as a simplicial complex, after at most MAX_SUBDIVISIONS = 2
    barycentric subdivisions of X, with the projection of vertices.

    Two always suffice: the vertices of a simplex of sd(X) are simplices of
    X of distinct dimensions, so no element maps one to another (Bredon's
    condition (A)), and the subdivision of a complex with (A) is regular
    (Bredon, Introduction to Compact Transformation Groups, 1972, III.1).
    Running out of them is a bug, reported as InternalInconsistency.

    sd(X) is always admissible.  When X is admissible too, sd(X)/G is read
    from the orbits of X without building sd(X).  sd(X) has one vertex per
    simplex of X, in all_simplices() order, so its vertex orbits are the
    simplex orbits of X in OrbitData order.  A simplex of sd(X) is a chain
    s0 < ... < sk and maps to the tuple of the orbit ids of its members,
    which is sorted because orbit ids grow with dimension.  Every G-orbit of
    chains holds a chain topped by an orbit representative, and only one:
    if g maps such a chain to another, g fixes the top, so under
    admissibility it fixes every face and the chain.  So the Bredon
    conditions on sd(X) are checked on these chains alone.  (a) holds since
    the members of a chain have distinct dimensions; (b) holds iff their
    images are pairwise distinct, which needs checking only among chains
    with the same top orbit.  sd(X)/G is then spanned by the images of the
    full flags of the representatives of maximal simplices.  When the check
    fails, or X is not admissible, sd(X) is built and the loop goes on from
    it.
    """
    subdivisions = 0
    current = gx
    while True:
        ok, _ = current.admissibility_witness()
        witness = _bredon_witness(current) if ok else "not admissible"
        if witness is None:
            break
        if subdivisions >= MAX_SUBDIVISIONS:
            raise InternalInconsistency(
                "quotient is not simplicial (%s); subdivision exhausted"
                % (witness,))
        subdivisions += 1
        if ok:
            quotient = _subdivided_quotient(current, subdivisions)
            if quotient is not None:
                return quotient
        current = current.subdivision()
    # vertex orbits are numbered first, so they are the quotient's vertices
    orbit_of = orbits_and_stabilizers(current).orbit_of
    vertex_map = tuple(orbit_of[(v,)]
                       for v in range(current.complex.vertex_count))
    maximal = [[vertex_map[v] for v in s]
               for s in current.complex.maximal_simplices()]
    return QuotientResult(SimplicialComplex(len(set(vertex_map)), maximal),
                          vertex_map, subdivisions)


class CentralizerFixedAction(NamedTuple):
    """The fixed complex of g with the restricted centralizer action."""

    gcomplex: GSimplicialComplex
    centralizer: Subgroup  # of the original group
    vertex_embedding: tuple  # new index -> old


def centralizer_fixed_action(gx: GSimplicialComplex,
                             g: int) -> CentralizerFixedAction:
    group = gx.group
    cent = group.centralizer(g)
    fixed = fixed_subcomplex(gx, [g])
    old_of_new = fixed.vertex_embedding
    new_of_old = {v: i for i, v in enumerate(old_of_new)}
    action = tuple(
        tuple(new_of_old[gx.vertex_action[z][v]] for v in old_of_new)
        for z in cent.elements
    )
    sub_gx = GSimplicialComplex(fixed.complex, cent.group, action, check=False)
    return CentralizerFixedAction(sub_gx, cent, old_of_new)


class IsotropyStratum(NamedTuple):
    """A maximal set of orbits joined along faces of equal isotropy."""

    stratum_id: int
    stabilizer_rep: Subgroup  # of the rep orbit
    orbit_ids: tuple


def _components(n, pairs):
    """The classes of the equivalence relation on range(n) generated by the
    pairs, each sorted, in order of their least element."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    classes = {}  # a class is first met at its least element
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def isotropy_strata(gx: GSimplicialComplex):
    """Orbits joined along faces of equal isotropy, numbered by their
    lowest orbit.

    If rep_s is a face of g.rep_t, an element fixing g.rep_t fixes it
    pointwise (admissibility), so Stab(g.rep_t) lies in Stab(rep_s), and
    equal orders mean equal stabilizers: a stratum's stabilizers are
    conjugate.  Facets give every adjacent pair: stabilizers nest along chains.
    """
    od = orbits_and_stabilizers(gx)
    order = [od.stabilizer(i).order for i in range(len(od))]
    pairs = ((t, s) for t, record in enumerate(od.facets)
             for s, _ in record if order[s] == order[t])
    return [IsotropyStratum(i, od.stabilizer(ids[0]), tuple(ids))
            for i, ids in enumerate(_components(len(od), pairs))]
