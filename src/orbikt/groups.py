"""Finite groups as multiplication tables, subgroups, and conjugacy data.

Groups are always the full n x n table; permutation generators and builtin
constructors are expanded to tables at build time.  Validation proves the
table is a group: latin-square rows/columns, identity, inverses, and
associativity via Light's test against the group's ``generators`` (a
complete proof, not a sample).  Those, ``subgroup()``, the subgroup check
and ``formats.parse_action_text`` all use one walk, ``_span``, which lists
the subgroup that some elements generate and keeps a generating subset of
them, in at most |span| k^2 table lookups for k kept elements.
"""

from __future__ import annotations

from .errors import InternalInconsistency, NotAGroup, NotSubgroup, echo

GROUP_ORDER_BOUND = 512


def _span(mult, identity, candidates):
    """(generators, elements): each candidate that the ones kept before it
    do not generate, and the span of those, in a finite group the subgroup
    they generate.  elements lists the identity, then each new element as a*s
    for an earlier a and a kept s, walking again from the first element after
    each new generator: at most |span| k^2 lookups for k generators, and in
    a group k <= log2 |span|."""
    generators, elements, spanned = [], [identity], {identity}
    for s in candidates:
        if s in spanned:
            continue
        generators.append(s)
        for a in elements:  # elements grows while it is read
            row = mult[a]
            for t in generators:
                c = row[t]
                if c not in spanned:
                    spanned.add(c)
                    elements.append(c)
    return generators, elements


class FiniteGroup:
    """Immutable finite group given by its multiplication table."""

    def __init__(self, mult, element_names=None, check=True):
        self.order = len(mult)
        self.mult = tuple(tuple(row) for row in mult)
        if element_names is not None:
            element_names = tuple(element_names)
            if len(element_names) != self.order:
                raise NotAGroup("element_names length does not match order")
        self.element_names = element_names
        if check:
            self._validate()
        self.identity = self._find_identity()
        self.generators, _ = _span(self.mult, self.identity, range(self.order))
        self.inv = self._build_inverses()
        self._conjugacy = None
        self._tables = {}
        self._sub_tables = {}
        self._reified = {}

    # -- construction checks -------------------------------------------------

    def _validate(self):
        n = self.order
        if n == 0:
            raise NotAGroup("empty multiplication table")
        ids = set(range(n))
        for row in self.mult:
            if len(row) != n or set(row) != ids:
                raise NotAGroup("a row of the table is not a permutation")
        for j in range(n):
            if {row[j] for row in self.mult} != ids:
                raise NotAGroup("a column of the table is not a permutation")

    def _find_identity(self):
        n = self.order
        for e in range(n):
            if all(self.mult[e][g] == g and self.mult[g][e] == g
                   for g in range(n)):
                return e
        raise NotAGroup("no identity element")

    def _build_inverses(self):
        n, e, mult = self.order, self.identity, self.mult
        # each row is a permutation, so g h = e for exactly one h
        inv = tuple(row.index(e) for row in mult)
        for g, h in enumerate(inv):
            if mult[h][g] != e:
                raise NotAGroup("element %d has no inverse" % g)
        # Light's associativity test: (xg)y = x(gy) for g in a generating set
        # proves associativity of the whole closed table.
        for g in self.generators:
            row_g = mult[g]
            for x in range(n):
                xg = mult[x][g]
                row_xg, row_x = mult[xg], mult[x]
                for y in range(n):
                    if row_xg[y] != row_x[row_g[y]]:
                        raise NotAGroup(
                            "associativity fails at (%d,%d,%d)" % (x, g, y))
        return inv

    # -- basic arithmetic ------------------------------------------------------

    def inverse(self, a):
        return self.inv[a]

    def conj(self, g, x):
        """g x g^{-1}."""
        return self.mult[self.mult[g][x]][self.inv[g]]

    def power(self, a, k):
        out = self.identity
        if k < 0:
            a, k = self.inv[a], -k
        for _ in range(k):
            out = self.mult[out][a]
        return out

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.mult[x][a]
            k += 1
        return k

    def exponent(self):
        from math import lcm
        return lcm(*[self.element_order(g) for g in range(self.order)])

    @property
    def is_abelian(self):
        return all(self.mult[a][b] == self.mult[b][a]
                   for a in range(self.order) for b in range(self.order))

    def name_of(self, g):
        if self.element_names is not None:
            return self.element_names[g]
        return str(g)

    def element_index(self, token):
        """Resolve an element given by name or decimal index."""
        if self.element_names is not None and token in self.element_names:
            return self.element_names.index(token)
        try:
            g = int(token)
        except ValueError:
            raise NotAGroup("unknown element %s" % echo(token))
        if not 0 <= g < self.order:
            raise NotAGroup("element index %d out of range" % g)
        return g

    # -- subgroups -------------------------------------------------------------

    def subgroup(self, generators):
        """Closure of the generators (empty set gives the trivial subgroup)."""
        for g in generators:
            if not 0 <= g < self.order:
                raise NotSubgroup("generator index %d out of range" % g)
        _, elements = _span(self.mult, self.identity, generators)
        return Subgroup(self, elements, check=False)  # a span is closed

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def centralizer(self, g):
        return Subgroup(self, [h for h in range(self.order)
                               if self.mult[h][g] == self.mult[g][h]])


class Subgroup:
    """A subgroup of a parent FiniteGroup, as a sorted element list."""

    def __init__(self, parent, elements, check=True):
        self.parent = parent
        self.elements = tuple(sorted(set(elements)))
        self._group = None
        if check:
            self._validate()

    def _validate(self):
        """Prove closure with O(|H| |S|^2) products, S the generators that
        _span keeps from H.  The span holds H, so it lies inside H exactly
        when it has |H| elements; then H S is inside H and H = <S>, so H H =
        H <S> is inside H."""
        parent = self.parent
        for a in self.elements:
            if not 0 <= a < parent.order:
                raise NotSubgroup("element index %d out of range" % a)
        if parent.identity not in self.elements:
            raise NotSubgroup("subgroup must contain the identity")
        if parent.order % len(self.elements) != 0:
            raise NotSubgroup("order does not divide |G|")
        _, span = _span(parent.mult, parent.identity, self.elements)
        if len(span) != len(self.elements):
            raise NotSubgroup("subgroup not closed under product")

    @property
    def order(self):
        return len(self.elements)

    @property
    def index_in_parent(self):
        return self.parent.order // self.order

    def __contains__(self, g):
        return g in set(self.elements)

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and other.parent is self.parent
                and other.elements == self.elements)

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __le__(self, other):
        if other.parent is not self.parent:
            raise NotSubgroup("subgroups of different groups")
        return set(self.elements) <= set(other.elements)

    def conjugate(self, g):
        """The subgroup g H g^{-1}."""
        p = self.parent
        return Subgroup(p, [p.conj(g, h) for h in self.elements], check=False)

    @property
    def group(self):
        """This subgroup reified as a FiniteGroup on indices 0..|H|-1.

        Element i of the reified group is self.elements[i]; names inherit
        from the parent.  The reified object is cached on the parent per
        element set, so equal subgroups share one canonical reification.
        """
        if self._group is None:
            cached = self.parent._reified.get(self.elements)
            if cached is None:
                pos = {g: i for i, g in enumerate(self.elements)}
                table = [[pos[self.parent.mult[a][b]] for b in self.elements]
                         for a in self.elements]
                names = None
                if self.parent.element_names is not None:
                    names = [self.parent.element_names[g]
                             for g in self.elements]
                cached = FiniteGroup(table, element_names=names, check=False)
                self.parent._reified[self.elements] = cached
            self._group = cached
        return self._group

    def position_of(self, parent_element):
        """Index of a parent element inside the reified group."""
        return self.elements.index(parent_element)

    def sub_from_parent(self, elements):
        """View parent elements (which must lie in self) as a Subgroup of
        self.group."""
        pos = {g: i for i, g in enumerate(self.elements)}
        for g in elements:
            if g not in pos:
                raise NotSubgroup("element %d not inside the subgroup" % g)
        return Subgroup(self.group, [pos[g] for g in elements])

    def __repr__(self):
        names = [self.parent.name_of(g) for g in self.elements]
        return "Subgroup{%s}" % ",".join(names)


class ConjugacyData:
    """Conjugacy classes, representatives, and centralizers of a group.

    Classes are ordered by (size, minimal element index); each representative
    is the minimal element of its class.
    """

    def __init__(self, group):
        self.group = group
        n = group.order
        seen = [False] * n
        classes = []
        for g in range(n):
            if seen[g]:
                continue
            cls = sorted({group.conj(h, g) for h in range(n)})
            for x in cls:
                seen[x] = True
            classes.append(tuple(cls))
        classes.sort(key=lambda c: (len(c), c[0]))
        self.classes = tuple(classes)
        self.reps = tuple(c[0] for c in classes)
        self.centralizers = tuple(group.centralizer(r) for r in self.reps)
        class_of = [None] * n
        for i, cls in enumerate(classes):
            for x in cls:
                class_of[x] = i
        self.class_of = tuple(class_of)
        for cls, cent in zip(self.classes, self.centralizers):
            if len(cls) * cent.order != n:
                raise InternalInconsistency(
                    "orbit-stabilizer failure: class of %d has size %d but its"
                    " centralizer has order %d in a group of order %d"
                    % (cls[0], len(cls), cent.order, n))

    def __len__(self):
        return len(self.classes)


def conjugacy_data(group) -> ConjugacyData:
    if group._conjugacy is None:
        group._conjugacy = ConjugacyData(group)
    return group._conjugacy


def commuting_pairs(group):
    """All ordered pairs (g1, g2) with g1 g2 = g2 g1."""
    n, mult = group.order, group.mult
    return [(a, b) for a in range(n) for b in range(n)
            if mult[a][b] == mult[b][a]]


# -- builtin constructors ------------------------------------------------------


def trivial_group():
    return FiniteGroup([[0]], element_names=["e"], check=False)


def cyclic_group(n):
    if n < 1:
        raise NotAGroup("cyclic order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = ["e"] + ["g" if k == 1 else "g%d" % k for k in range(1, n)]
    return FiniteGroup(table, element_names=names, check=False)


def dihedral_group(n):
    """Dihedral group of order 2n: rotations R^a, reflections S R^a."""
    if n < 1:
        raise NotAGroup("dihedral parameter must be positive")
    order = 2 * n

    def mul(i, j):
        fi, a = divmod(i, n)
        fj, b = divmod(j, n)
        if not fi and not fj:
            return (a + b) % n
        if not fi:
            return n + (b - a) % n     # R^a (S R^b) = S R^(b-a)
        if not fj:
            return n + (a + b) % n     # (S R^a) R^b = S R^(a+b)
        return (b - a) % n             # (S R^a)(S R^b) = R^(b-a)

    table = [[mul(i, j) for j in range(order)] for i in range(order)]
    rot = ["E"] + ["R" if k == 1 else "R%d" % k for k in range(1, n)]
    ref = ["S"] + ["SR" if k == 1 else "SR%d" % k for k in range(1, n)]
    return FiniteGroup(table, element_names=rot + ref, check=False)


def product_group(g1, g2):
    """Direct product; element (a, b) has index a * |G2| + b."""
    n1, n2 = g1.order, g2.order
    table = []
    for a1 in range(n1):
        for a2 in range(n2):
            row = []
            for b1 in range(n1):
                for b2 in range(n2):
                    row.append(g1.mult[a1][b1] * n2 + g2.mult[a2][b2])
            table.append(row)
    names = ["(%s,%s)" % (g1.name_of(a1), g2.name_of(a2))
             for a1 in range(n1) for a2 in range(n2)]
    return FiniteGroup(table, element_names=names, check=False)


def group_from_permutations(degree, perms, element_names=None,
                            bound=GROUP_ORDER_BOUND):
    """Expand permutation generators (image notation on 0..degree-1) to a
    multiplication-table group, or NotAGroup at element bound + 1.

    Elements are listed breadth first from the identity; each b but the
    identity is first met as p∘gen_j for an earlier p.  Composing each
    element with each generator once gives right[j][x], the index of
    x∘gen_j, so a∘b = (a∘p)∘gen_j is mult[a][b] = right[j][mult[a][p]]: the
    table costs lookups, not compositions of permutations."""
    idperm = tuple(range(degree))
    for p in perms:
        if sorted(p) != list(range(degree)):
            raise NotAGroup("generator is not a permutation of 0..%d"
                            % (degree - 1))
    elements = [idperm]
    index = {idperm: 0}
    parent = [None]  # parent[b] = (p, j) with b = p∘gen_j
    right = [[] for _ in perms]  # right[j][x] = index of x∘gen_j
    for x, perm in enumerate(elements):  # grows while it is walked
        for j, gen in enumerate(perms):
            composed = tuple(map(perm.__getitem__, gen))
            if composed not in index:
                if len(elements) == bound:
                    raise NotAGroup("permutation generators produce more "
                                    "than %d elements" % bound)
                index[composed] = len(elements)
                elements.append(composed)
                parent.append((x, j))
            right[j].append(index[composed])
    n = len(elements)
    columns = [range(n)]  # columns[b][a] = mult[a][b]
    for b in range(1, n):
        p, j = parent[b]
        columns.append(list(map(right[j].__getitem__, columns[p])))
    table = list(zip(*columns))
    return FiniteGroup(table, element_names=element_names, check=False)
