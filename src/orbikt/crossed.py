"""Structure of the crossed product of C(X) by a finite group G.

Everything is reported through finite combinatorial invariants: Peter-Weyl
block decompositions of the fibers over the orbit space, inclusion
multiplicities between fibers along face maps, the primitive-ideal node set
with its specialization preorder, the distinguished open set of
trivial-isotropy-representation nodes, and validation of ideal filtrations.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import (CharacterTable, conjugate_irrep, multiplicity,
                         subgroup_table)
from .complexes import (GSimplicialComplex, _components, isotropy_strata,
                        orbits_and_stabilizers)
from .errors import (
    InternalInconsistency,
    NonConstantStabilizer,
    NotOpen,
    NotSubgroup,
)
from .groups import FiniteGroup, Subgroup


class FiberDecomposition(NamedTuple):
    """Block decomposition of the compacts of l2(G) fixed under K.

    One block per irrep sigma of K, of dimension [G:K]*d_sigma, occurring with
    multiplicity d_sigma inside the |G|-dimensional regular representation.
    """

    group: FiniteGroup
    stabilizer: Subgroup
    blocks: tuple  # records (irrep_id, block_dim, multiplicity)
    table: CharacterTable


def fiber_decomposition(group: FiniteGroup, sub: Subgroup) -> FiberDecomposition:
    """The fiber blocks over a point with stabilizer sub.  The block sizes
    must fill the regular representation, one block per irrep of sub."""
    if sub.parent is not group:
        raise NotSubgroup("stabilizer is not a subgroup of the given group")
    table = subgroup_table(sub)
    index = group.order // sub.order
    blocks = tuple((rid, index * d, d) for rid, d, _ in table.irreps)
    total = sum(dim * mult for _, dim, mult in blocks)
    if total != group.order:
        raise InternalInconsistency(
            "fiber blocks sum to %d, expected |G| = %d" % (total, group.order))
    return FiberDecomposition(group, sub, blocks, table)


class InclusionMultiplicityMatrix(NamedTuple):
    """Multiplicities m[sigma][tau] of sigma in tau restricted from K to L."""

    ambient: Subgroup  # K
    sub: Subgroup      # L, contained in K
    entries: tuple
    row_table: CharacterTable  # irreps of L
    col_table: CharacterTable  # irreps of K

    def row(self, sigma_id):
        return self.entries[sigma_id]


def inclusion_multiplicities(group: FiniteGroup, sub: Subgroup,
                             ambient: Subgroup) -> InclusionMultiplicityMatrix:
    """m[sigma][tau] over sigma in irreps(L = sub), tau in irreps(K = ambient).

    Two identities check every entry.  Column (degree): each tau restricts
    to L with its degree, sum_sigma m[sigma][tau] deg sigma = deg tau.  Row
    (Frobenius reciprocity): sigma induced to K has degree [K:L] deg sigma,
    so sum_tau m[sigma][tau] deg tau = [K:L] deg sigma.  A wrong entry
    breaks both its row and its column.
    """
    if sub.parent is not group or ambient.parent is not group:
        raise NotSubgroup("both subgroups must live in the given group")
    if not set(sub.elements) <= set(ambient.elements):
        raise NotSubgroup("first subgroup is not contained in the second")
    row_table = subgroup_table(sub)
    col_table = subgroup_table(ambient)
    inner = ambient.sub_from_parent(sub.elements)
    entries = [[0] * len(col_table.irreps) for _ in row_table.irreps]
    for tau_id, tau_degree, _ in col_table.irreps:
        tau = col_table.character(tau_id)
        for sigma_id, _, _ in row_table.irreps:
            sigma = row_table.character(sigma_id)
            entries[sigma_id][tau_id] = multiplicity(tau, sigma, inner)
        total = sum(entries[sigma_id][tau_id] * row_table.degree(sigma_id)
                    for sigma_id, _, _ in row_table.irreps)
        if total != tau_degree:
            raise InternalInconsistency(
                "degree identity fails for column %d: %d != %d"
                % (tau_id, total, tau_degree))
    index = ambient.order // sub.order
    for sigma_id, sigma_degree, _ in row_table.irreps:
        total = sum(entries[sigma_id][tau_id] * tau_degree
                    for tau_id, tau_degree, _ in col_table.irreps)
        if total != index * sigma_degree:
            raise InternalInconsistency(
                "Frobenius identity fails for row %d: %d != %d"
                % (sigma_id, total, index * sigma_degree))
    return InclusionMultiplicityMatrix(
        ambient, sub, tuple(tuple(row) for row in entries),
        row_table, col_table)


class PrimNode(NamedTuple):
    """A point of the primitive-ideal space: (simplex orbit, stabilizer irrep).
    A node equals and hashes as its plain (orbit, irrep) tuple."""

    orbit_id: int
    irrep_id: int


class PrimPoset:
    """Nodes with the specialization preorder, kept as up-sets: above[a] is
    the set of every b with a <= b, that is, node a lies in the closure of
    node b.  The preorder is sparse, so no n x n matrix is formed."""

    def __init__(self, nodes, above, stabilizer_orders, irrep_degrees,
                 aggregated=False):
        self.nodes = tuple(nodes)
        self.above = tuple(frozenset(up) for up in above)
        self.stabilizer_orders = tuple(stabilizer_orders)
        self.irrep_degrees = tuple(irrep_degrees)
        self.aggregated = aggregated
        self._verify_preorder()

    def _verify_preorder(self):
        for a, up in enumerate(self.above):
            if a not in up:
                raise InternalInconsistency("specialization not reflexive")
            for b in up:
                if not self.above[b] <= up:
                    raise InternalInconsistency(
                        "specialization not transitive at (%d, %d, %d)"
                        % (a, b, min(self.above[b] - up)))

    def __len__(self):
        return len(self.nodes)

    def index_of(self, key):
        key = tuple(key)
        for i, node in enumerate(self.nodes):
            if node == key:
                return i
        return None

    def closure(self, node_indices):
        """Every node lying below some node of the set."""
        targets = set(node_indices)
        return {a for a, up in enumerate(self.above)
                if not up.isdisjoint(targets)}

    def open_violation(self, node_indices):
        """None if the set is open, else a witness (inside, outside) pair
        with inside in the set, outside not, and inside <= outside; outside
        is the smallest such node for the first such inside node."""
        inside = set(node_indices)
        for a in inside:
            outside = self.above[a] - inside
            if outside:
                return (a, min(outside))
        return None

    def is_open(self, node_indices):
        return self.open_violation(node_indices) is None

    def is_antisymmetric(self):
        return all(a not in self.above[b]
                   for a, up in enumerate(self.above) for b in up if b != a)

    def relation_pairs(self):
        return [(a, b) for a, up in enumerate(self.above)
                for b in sorted(up) if b != a]


def specialization(gx: GSimplicialComplex) -> PrimPoset:
    """The specialization preorder on prim nodes.

    (s, sigma) lies in the closure of (t, tau) iff some translate m = h.rep_t
    has rep_s as a face and sigma restricted to the stabilizer of m contains
    the transported irrep h.tau, that is, iff entry (h.tau, sigma) of the
    restriction matrix from Stab(rep_s) to Stab(m) = h Stab(rep_t) h^-1 is
    positive.

    The order is the reflexive transitive closure of the facet relations:
    Res^{G_s}_{G_r} = Res^{G_t}_{G_r} o Res^{G_s}_{G_t} along any chain
    s < t < r, so relations through faces factor through facets, and
    composites are relations.  Facet relations point to larger orbit ids:
    one reverse pass, above[a] |= above[b] for direct b, closes them.

    The h with h.f = rep_s for a facet f = k.rep_s of rep_t are a.k^-1 over
    a in Stab(rep_s), so the (sigma, tau) pairs a facet gives depend only on
    the triple (Stab(rep_s), Stab(rep_t), k^-1); each triple is worked out
    once.  Transport and restriction depend on a subgroup only through its
    element tuple (equal element tuples share one reified group and one
    table), so keying them by element tuples is exact.  Within one call each
    transport is computed once per (Stab(rep_t), h, tau), and each
    restriction matrix, with its degree and Frobenius identities, once per
    (Stab(rep_s), Stab(m)) pair.
    """
    od = orbits_and_stabilizers(gx)
    # one node per (orbit, irrep of its stabilizer), each orbit's irreps in
    # id order: irrep rid of orbit o is node first[o] + rid
    stabs, first, nodes, stab_orders, degrees = [], [], [], [], []
    for orbit_id, (_rep, _members, stab, _transporter) in enumerate(od.orbits):
        stabs.append(stab)
        first.append(len(nodes))
        for rid, d, _ in subgroup_table(stab).irreps:
            nodes.append(PrimNode(orbit_id, rid))
            stab_orders.append(stab.order)
            degrees.append(d)
    above = [set() for _ in nodes]

    mult, inv = gx.group.mult, gx.group.inv
    transported = {}  # (Stab(t) elements, h, tau) -> (Stab(m), h.tau id)
    matrices = {}     # (Stab(s), Stab(m)) elements -> restriction matrix
    triples = {}      # (Stab(s), Stab(t) elements, k^-1) -> (sigma, tau) pairs

    def related(stab_s, stab_t, k_inv):
        pairs = set()
        for tau_id, _, _ in subgroup_table(stab_t).irreps:
            for a in stab_s.elements:
                h = mult[a][k_inv]
                key = (stab_t.elements, h, tau_id)
                if key not in transported:
                    transported[key] = conjugate_irrep(h, tau_id, stab_t)
                sub_m, tau_m = transported[key]
                pair = (stab_s.elements, sub_m.elements)
                if pair not in matrices:
                    if not set(sub_m.elements) <= set(stab_s.elements):
                        raise InternalInconsistency(
                            "face stabilizer does not contain cell stabilizer")
                    matrices[pair] = inclusion_multiplicities(
                        gx.group, sub_m, stab_s)
                for sigma_id, m in enumerate(matrices[pair].row(tau_m)):
                    if m > 0:
                        pairs.add((sigma_id, tau_id))
        return pairs

    for t_orb, record in enumerate(od.facets):
        stab_t = stabs[t_orb]
        up = first[t_orb]
        for s_orb, k in record:
            stab_s = stabs[s_orb]
            key = (stab_s.elements, stab_t.elements, inv[k])
            pairs = triples.get(key)
            if pairs is None:
                pairs = triples[key] = related(stab_s, stab_t, inv[k])
            down = first[s_orb]
            for sigma_id, tau_id in pairs:
                above[down + sigma_id].add(up + tau_id)
    for a in reversed(range(len(nodes))):
        above[a] = {a}.union(*(above[b] for b in above[a]))
    return PrimPoset(nodes, above, stab_orders, degrees)


def ix_nodes(poset: PrimPoset):
    """The trivial-irrep node set with its openness certificate.

    These nodes carry the distinguished ideal induced from the orbit space.
    They are open, as (s, triv) <= (t, tau) forces h.tau into Res(triv).
    """
    members = [i for i, node in enumerate(poset.nodes) if node.irrep_id == 0]
    violation = poset.open_violation(members)
    if violation is not None:
        raise InternalInconsistency(
            "trivial-irrep node set is not open: %r lies below %r"
            % tuple(tuple(poset.nodes[i]) for i in violation))
    return members


def aggregate_strata(poset: PrimPoset, gx: GSimplicialComplex) -> PrimPoset:
    """Merge nodes along isotropy strata.  Inside a stratum a face and its
    coface have equal stabilizers, so the poset's relations between adjacent
    orbits pair their irreps one to one.  Nodes related inside a stratum are
    joined; each class must hold one node of every orbit of its stratum, and
    becomes the node (stratum, irrep of its node at the lowest orbit).  Two
    nodes of one orbit in a class raise NonConstantStabilizer."""
    strata = isotropy_strata(gx)
    stratum_of = {oid: st.stratum_id for st in strata for oid in st.orbit_ids}
    old = poset.nodes
    pairs = ((a, b) for a, up in enumerate(poset.above) for b in up
             if stratum_of[old[a].orbit_id] == stratum_of[old[b].orbit_id])
    nodes, stab_orders, degrees = [], [], []
    merged = [0] * len(old)
    for cls in _components(len(old), pairs):
        st = strata[stratum_of[old[cls[0]].orbit_id]]
        first_of = {}  # orbit id -> the class's first node on that orbit
        for i in cls:
            j = first_of.setdefault(old[i].orbit_id, i)
            if j != i:
                witness = (tuple(old[j]), tuple(old[i]))
                raise NonConstantStabilizer(
                    "stratum %d joins nodes %r and %r of one orbit"
                    % ((st.stratum_id,) + witness), witness=witness)
            merged[i] = len(nodes)
        if len(first_of) != len(st.orbit_ids):
            raise InternalInconsistency(
                "stratum %d: a class of nodes misses an orbit" % st.stratum_id)
        nodes.append(PrimNode(st.stratum_id, old[cls[0]].irrep_id))
        stab_orders.append(poset.stabilizer_orders[cls[0]])
        degrees.append(poset.irrep_degrees[cls[0]])
    above = [set() for _ in nodes]
    for a, up in enumerate(poset.above):
        above[merged[a]].update(merged[b] for b in up)
    return PrimPoset(nodes, above, stab_orders, degrees, aggregated=True)


class FiltrationReport(NamedTuple):
    """Validation and block data for an increasing open filtration."""

    steps: tuple  # per step: list of (node key, degree, block_dim)
    step_counts: tuple
    cumulative_counts: tuple


def filtration_report(poset: PrimPoset, gx: GSimplicialComplex,
                      increments) -> FiltrationReport:
    """Validate a filtration given as per-step node-key increments.

    Each step adds the listed nodes; every cumulative set must be open in the
    specialization topology.  Reports per-step counts and per-node block data
    (irrep degree and fiber block dimension).
    """
    group = gx.group
    steps = []
    cumulative_counts = []
    indices = set()
    for k, keys in enumerate(increments):
        detail = []
        for key in keys:
            idx = poset.index_of(key)
            if idx is None:
                raise NotOpen("step %d names unknown node %r" % (k + 1, key),
                              step=k + 1, witness=key)
            if idx in indices:
                raise NotOpen("step %d repeats node %r" % (k + 1, key),
                              step=k + 1, witness=key)
            indices.add(idx)
            degree = poset.irrep_degrees[idx]
            block_dim = group.order // poset.stabilizer_orders[idx] * degree
            detail.append((key, degree, block_dim))
        violation = poset.open_violation(indices)
        if violation is not None:
            inside, outside = violation
            raise NotOpen(
                "step %d is not open: node %r lies in the closure of %r"
                % (k + 1, tuple(poset.nodes[inside]),
                   tuple(poset.nodes[outside])),
                step=k + 1,
                witness=(tuple(poset.nodes[inside]),
                         tuple(poset.nodes[outside])))
        steps.append(detail)
        cumulative_counts.append(len(indices))
    return FiltrationReport(tuple(steps),
                            tuple(len(detail) for detail in steps),
                            tuple(cumulative_counts))
