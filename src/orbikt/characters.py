"""Exact character tables and restriction/induction multiplicities.

Tables are computed by the Burnside-Dixon class-algebra method: structure
constants of the class sums, simultaneous eigenvectors over F_p for a prime
p = 1 (mod exp(G)) with p > 2|G|, then lifted to exact cyclotomic values.
Everything downstream (multiplicities, conjugate irreps, induction) is plain
exact arithmetic on the lifted values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .cyclotomic import Cyclotomic, _power_vectors
from .errors import (
    BoundExceeded,
    InternalInconsistency,
    NonIntegralMultiplicity,
    NotSubgroup,
)
from .groups import FiniteGroup, Subgroup, conjugacy_data
from .linalg import Echelon, nullspace

CHARACTER_TABLE_BOUND = 512


# -- polynomials over F_p -----------------------------------------------------


def _poly_eval_mod(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _poly_divmod_mod(a, b, p):
    a = list(a)
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = (a[i] * binv) % p
        q[i - len(b) + 1] = c
        if c:
            for j, d in enumerate(b):
                a[i - len(b) + 1 + j] = (a[i - len(b) + 1 + j] - c * d) % p
    r = a[: len(b) - 1] or [0]
    while len(r) > 1 and r[-1] % p == 0:
        r.pop()
    return q, r


def _poly_gcd_mod(a, b, p):
    a, b = list(a), list(b)
    while len(b) > 1 or b[0] % p:
        _, r = _poly_divmod_mod(a, b, p)
        a, b = b, r
        if len(b) == 1 and b[0] % p == 0:
            break
    inv = pow(a[-1], p - 2, p)
    return [(c * inv) % p for c in a]


def _poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _min_poly_mod(matrix, p):
    """Minimal polynomial of a square matrix over F_p (monic, low-first).

    The lcm, over the unit vectors v, of the minimal polynomials of their
    Krylov sequences v, Av, A^2 v, ...; each is read off the coordinates of
    the first Krylov vector that depends on the earlier ones.
    """
    m = len(matrix)
    minpoly = [1]
    for start in range(m):
        vec = [0] * m
        vec[start] = 1
        ech = Echelon(p)
        while ech.insert(vec):
            vec = [sum(map(mul, matrix_row, vec)) % p
                   for matrix_row in matrix]
        poly = [-c % p for c in ech.coordinates(vec)] + [1]
        g = _poly_gcd_mod(minpoly, poly, p)
        quot, rem = _poly_divmod_mod(_poly_mul_mod(minpoly, poly, p), g, p)
        if rem != [0]:
            raise InternalInconsistency(
                "minimal polynomial lcm: gcd does not divide the product")
        minpoly = quot
        if len(minpoly) == m + 1:
            break
    return minpoly


def _smallest_dixon_prime(exponent, order):
    p = exponent + 1
    while True:
        if p > 2 * order and _is_prime(p) and (p - 1) % exponent == 0:
            return p
        p += 1


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primitive_root(p):
    factors = set()
    n = p - 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    for w in range(2, p):
        if all(pow(w, (p - 1) // q, p) != 1 for q in factors):
            return w
    raise InternalInconsistency("no primitive root found")


# -- the Dixon computation -----------------------------------------------------


def _class_matrix(cd, i, group):
    """N with N[j][k] = #{(x,y) in C_i x C_j : xy = rep_k}."""
    r = len(cd.classes)
    n = [[0] * r for _ in range(r)]
    inv = group.inv
    for k, z in enumerate(cd.reps):
        for x in cd.classes[i]:
            j = cd.class_of[group.mult[inv[x]][z]]
            n[j][k] += 1
    return n


def _dixon_rows(group, conductor):
    """Exact character values per conjugacy class, unsorted.

    Returns (rows, degrees) where rows[s] is a list of Cyclotomic values at
    the given conductor (a multiple of exp(G)), one per class in conjugacy
    order.  Equal values are one shared object.
    """
    cd = conjugacy_data(group)
    r = len(cd.classes)
    e = group.exponent()
    p = _smallest_dixon_prime(e, group.order)
    c_e = cd.class_of[group.identity]

    # split F_p^r into common eigenspaces of the class matrices
    spaces = [[[1 if i == j else 0 for j in range(r)] for i in range(r)]]
    for i in range(r):
        if i == c_e:
            continue
        if all(len(s) == 1 for s in spaces):
            break
        nmat = _class_matrix(cd, i, group)
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            m = len(basis)
            ech = Echelon(p)
            for v in basis:
                ech.insert(v)
            # amat[j][t]: coordinate j of N v_t over the basis
            columns = [ech.coordinates([sum(map(mul, row, v)) % p
                                        for row in nmat])
                       for v in basis]
            if None in columns:
                raise InternalInconsistency(
                    "class matrix does not preserve an eigenspace")
            amat = [list(row) for row in zip(*columns)]
            minpoly = _min_poly_mod(amat, p)
            roots = [x for x in range(p) if _poly_eval_mod(minpoly, x, p) == 0]
            if len(roots) == 1:
                new_spaces.append(basis)
                continue
            found = 0
            basis_columns = list(zip(*basis))
            for lam in roots:
                shifted = [
                    [(amat[a][b] - (lam if a == b else 0)) % p for b in range(m)]
                    for a in range(m)
                ]
                vecs = [[sum(map(mul, coords, col)) % p
                         for col in basis_columns]
                        for coords in nullspace(shifted, m, p)]
                if vecs:
                    new_spaces.append(vecs)
                    found += len(vecs)
            if found != m:
                raise InternalInconsistency("eigenspace split lost dimensions")
        spaces = new_spaces
    if any(len(s) != 1 for s in spaces):
        raise InternalInconsistency("class algebra did not fully split")

    # normalize eigenvectors to omega-vectors (value 1 at the identity class)
    omegas = []
    for (v,) in spaces:
        if v[c_e] % p == 0:
            raise InternalInconsistency("eigenvector vanishes at identity class")
        inv0 = pow(v[c_e], p - 2, p)
        omegas.append([(x * inv0) % p for x in v])

    size_inv = [pow(len(c), p - 2, p) for c in cd.classes]
    inv_class = [cd.class_of[group.inv[rep]] for rep in cd.reps]

    # degrees: d^2 = |G| / sum_i omega_i * omega_{i*} / h_i   (mod p)
    degrees, values_mod = [], []
    for om in omegas:
        s = 0
        for i in range(r):
            s = (s + om[i] * om[inv_class[i]] * size_inv[i]) % p
        d2 = (group.order * pow(s, p - 2, p)) % p
        d = next((x for x in range(1, p // 2 + 1) if (x * x) % p == d2), None)
        if d is None or d > group.order:
            raise InternalInconsistency("degree recovery failed")
        degrees.append(d)
        values_mod.append([(d * om[i] * size_inv[i]) % p for i in range(r)])

    # power map: class of rep_i^l
    power_class = []
    for rep in cd.reps:
        row, x = [], group.identity
        for _ in range(e):
            row.append(cd.class_of[x])
            x = group.mult[x][rep]
        power_class.append(row)

    # lift each value to a sum of e-th roots of unity: the multiplicity of
    # zeta^j is (1/e) sum_l chi(rep^l) zeta^(-jl), a DFT over F_p
    z = pow(_primitive_root(p), (p - 1) // e, p)
    zinv_powers = [pow(z, (e - k) % e, p) for k in range(e)]
    dft = [[zinv_powers[(j * l) % e] for l in range(e)] for j in range(e)]
    inv_e = pow(e % p, p - 2, p)
    # zeta_e^j is zeta_conductor^(j * step)
    step = conductor // e
    powers = _power_vectors(conductor)
    phi = len(powers[0])
    values = {}  # multiplicities -> value
    rows = []
    for d, vals in zip(degrees, values_mod):
        row = []
        for i in range(r):
            seq = [vals[c] for c in power_class[i]]
            mults = tuple(sum(map(mul, seq, dft_row)) * inv_e % p
                          for dft_row in dft)
            if sum(mults) != d or any(mj > d for mj in mults):
                raise InternalInconsistency("eigenvalue multiplicity lift failed")
            value = values.get(mults)
            if value is None:
                coeffs = [0] * phi
                for j, mj in enumerate(mults):
                    if mj:
                        vec = powers[j * step]
                        for t in range(phi):
                            coeffs[t] += mj * vec[t]
                value = values[mults] = Cyclotomic(conductor, coeffs)
            row.append(value)
        rows.append(row)
    return rows, degrees


# -- public types ----------------------------------------------------------------


class Character:
    """A class function on a group, one exact value per conjugacy class."""

    def __init__(self, group, values):
        self.group = group
        self.conjugacy = conjugacy_data(group)
        self.values = tuple(values)
        if len(self.values) != len(self.conjugacy.classes):
            raise InternalInconsistency(
                "%d character values for %d classes"
                % (len(self.values), len(self.conjugacy.classes)))

    @property
    def degree_value(self):
        return self.values[self.conjugacy.class_of[self.group.identity]]

    def value_on_element(self, g):
        return self.values[self.conjugacy.class_of[g]]

    def __eq__(self, other):
        return (isinstance(other, Character)
                and self.group is other.group
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)


class CharacterTable:
    """All irreducible characters of a group, deterministically ordered."""

    def __init__(self, group, conductor, irreps):
        self.group = group
        self.conjugacy = conjugacy_data(group)
        self.conductor = conductor
        self.irreps = tuple(irreps)  # records (id, degree, values)

    def __len__(self):
        return len(self.irreps)

    def degree(self, irrep_id):
        return self.irreps[irrep_id][1]

    def values(self, irrep_id):
        return self.irreps[irrep_id][2]

    def character(self, irrep_id) -> Character:
        return Character(self.group, self.values(irrep_id))

    def find_by_values(self, values):
        values = tuple(values)
        for rid, _, vals in self.irreps:
            if vals == values:
                return rid
        return None


def character_table(group: FiniteGroup, conductor=None,
                    bound=CHARACTER_TABLE_BOUND) -> CharacterTable:
    """The exact character table of the group.

    Values live at the given conductor (a multiple of exp(G); defaults to
    exp(G)).  Irreps are sorted by (degree, coefficient vectors), with the
    trivial character forced to id 0.
    """
    if group.order > bound:
        raise BoundExceeded("group order %d exceeds bound %d"
                            % (group.order, bound))
    e = group.exponent()
    if conductor is None:
        conductor = e
    if conductor % e != 0:
        raise InternalInconsistency("conductor must be a multiple of exp(G)")
    cached = group._tables.get(conductor)
    if cached is not None:
        return cached

    rows, degrees = _dixon_rows(group, conductor)
    one = Cyclotomic.one(conductor)
    records = []
    for row, d in zip(rows, degrees):
        trivial = all(v == one for v in row)
        key = (d, 0 if trivial else 1, tuple(v.sort_key() for v in row))
        records.append((key, d, tuple(row)))
    records.sort(key=lambda rec: rec[0])
    irreps = [(i, d, row) for i, (_, d, row) in enumerate(records)]

    table = CharacterTable(group, conductor, irreps)
    _verify_table(table)
    group._tables[conductor] = table
    return table


def _integer_coefficients(value):
    """The power-basis coefficients of a character value, as ints.

    Character values are algebraic integers and the power basis of
    Z[zeta_m] is an integral basis, so every coefficient must be integral.
    """
    if any(c.denominator != 1 for c in value.coeffs):
        raise InternalInconsistency(
            "character value %s is not an algebraic integer" % (value,))
    return [c.numerator for c in value.coeffs]


def _verify_table(table):
    """Check the table's identities; raise InternalInconsistency on a failure.

    Checks: one irrep per class, sum of squared degrees = |G|, irrep 0 is
    the trivial character, each degree divides |G| and is the value at the
    identity, every value is an algebraic integer (integral power-basis
    coefficients), and row orthogonality
    sum_i |C_i| chi_a(C_i) conj(chi_b(C_i)) = |G| [a == b].  Orthogonality is
    checked for all r^2 pairs of rows when |G| <= 64, and above that for the
    r diagonal pairs and the r - 1 pairs of the trivial row with another.

    Each sum is accumulated over Z in the exponents of zeta mod m and reduced
    modulo Phi_m once, through the integral power vectors of zeta^k.
    """
    group = table.group
    cd = table.conjugacy
    n = group.order
    r = len(cd.classes)
    if len(table.irreps) != r:
        raise InternalInconsistency("irrep count != class count")
    if sum(d * d for _, d, _ in table.irreps) != n:
        raise InternalInconsistency("sum of squared degrees != |G|")
    one = Cyclotomic.one(table.conductor)
    if any(v != one for v in table.values(0)):
        raise InternalInconsistency("irrep 0 is not the trivial character")
    for rid, d, vals in table.irreps:
        if n % d != 0:
            raise InternalInconsistency("degree does not divide |G|")
        if vals[cd.class_of[group.identity]] != d:
            raise InternalInconsistency("degree disagrees with identity value")
    m = table.conductor
    powers = _power_vectors(m)
    phi = len(powers[0])
    sizes = [len(c) for c in cd.classes]
    # terms[a][i]: chi_a(C_i) as (exponent, coefficient) pairs; conj_terms
    # the same for |C_i| conj(chi_a(C_i)), using conj(zeta^k) = zeta^(m-k).
    # Both are built once per value object and size; every key's object is
    # held by the table for the whole call, so its id is not reused.
    by_value, by_conj = {}, {}
    terms, conj_terms = [], []
    for _, _, vals in table.irreps:
        row, conj_row = [], []
        for value, size in zip(vals, sizes):
            nz = by_value.get(id(value))
            if nz is None:
                nz = by_value[id(value)] = [
                    (k, c) for k, c in enumerate(_integer_coefficients(value))
                    if c]
            conj = by_conj.get((id(value), size))
            if conj is None:
                conj = by_conj[id(value), size] = [
                    (-k % m, size * c) for k, c in nz]
            row.append(nz)
            conj_row.append(conj)
        terms.append(row)
        conj_terms.append(conj_row)
    pairs = ([(a, b) for a in range(r) for b in range(r)]
             if n <= 64 else
             [(a, a) for a in range(r)] + [(0, b) for b in range(1, r)])
    for a, b in pairs:
        # exponents k + kb < phi + m; fold them mod m, then reduce the
        # exponents >= phi by the power vectors
        acc = [0] * (m + phi)
        for ta, tb in zip(terms[a], conj_terms[b]):
            for k, c in ta:
                for kb, cb in tb:
                    acc[k + kb] += c * cb
        reduced = [x + y for x, y in zip(acc, acc[m:])]
        for k in range(phi, m):
            c = acc[k]
            if c:
                vec = powers[k]
                for t in range(phi):
                    reduced[t] += c * vec[t]
        want = n if a == b else 0
        if reduced[0] != want or any(reduced[1:]):
            raise InternalInconsistency("row orthogonality fails (%d,%d)"
                                        % (a, b))


def subgroup_table(sub: Subgroup, bound=CHARACTER_TABLE_BOUND) -> CharacterTable:
    """Character table of a subgroup, at the parent group's conductor."""
    key = sub.elements
    cached = sub.parent._sub_tables.get(key)
    if cached is None:
        cached = character_table(sub.group, conductor=sub.parent.exponent(),
                                 bound=bound)
        sub.parent._sub_tables[key] = cached
    return cached


# -- multiplicities and transport -------------------------------------------------


def _common_conductor(*values):
    return lcm(*[v.conductor for v in values])


def multiplicity(chi: Character, psi: Character, sub: Subgroup) -> int:
    """<res chi, psi> over the subgroup: (1/|L|) sum chi(l) conj(psi(l)).

    chi is a (possibly reducible) character of the parent group; psi is a
    character of the reified subgroup.  The result must be a non-negative
    rational integer.
    """
    if chi.group is not sub.parent:
        raise NotSubgroup("chi is not a character of the ambient group")
    if psi.group is not sub.group and psi.group.mult != sub.group.mult:
        raise NotSubgroup("psi does not live on this subgroup")
    m = _common_conductor(chi.values[0], psi.values[0])
    acc = Cyclotomic.zero(m)
    for i, l in enumerate(sub.elements):
        acc = acc + (chi.value_on_element(l).lift(m)
                     * psi.value_on_element(i).lift(m).conjugate())
    acc = acc * Fraction(1, sub.order)
    if not acc.is_integer() or acc.integer_value() < 0:
        raise NonIntegralMultiplicity(
            "inner product %s is not a non-negative integer" % (acc,))
    return acc.integer_value()


def restrict_character(chi: Character, sub: Subgroup) -> Character:
    """The restriction of a parent-group character to a reified subgroup."""
    if chi.group is not sub.parent:
        raise NotSubgroup("chi is not a character of the ambient group")
    cd = conjugacy_data(sub.group)
    values = [chi.value_on_element(sub.elements[rep]) for rep in cd.reps]
    return Character(sub.group, values)


def conjugate_irrep(g: int, sigma_id: int, sub: Subgroup):
    """Transport an irrep along conjugation: returns (g K g^-1, irrep id).

    The resulting irrep of gKg^-1 has character chi_sigma(g^-1 . g).
    """
    parent = sub.parent
    table = subgroup_table(sub)
    chi = table.character(sigma_id)
    target = sub.conjugate(g)
    target_table = subgroup_table(target)
    cd = conjugacy_data(target.group)
    ginv = parent.inv[g]
    values = []
    for rep in cd.reps:
        y = target.elements[rep]
        x = parent.conj(ginv, y)
        values.append(chi.value_on_element(sub.position_of(x)))
    tau = target_table.find_by_values(values)
    if tau is None:
        raise InternalInconsistency("conjugated character not in target table")
    return target, tau


def induced_character(psi: Character, sub: Subgroup) -> Character:
    """Induction of a subgroup character to the parent group."""
    parent = sub.parent
    if psi.group is not sub.group and psi.group.mult != sub.group.mult:
        raise NotSubgroup("psi does not live on this subgroup")
    cd = conjugacy_data(parent)
    inside = {l: i for i, l in enumerate(sub.elements)}
    conductor = psi.values[0].conductor
    values = []
    for rep in cd.reps:
        acc = Cyclotomic.zero(conductor)
        for x in range(parent.order):
            y = parent.conj(parent.inv[x], rep)
            if y in inside:
                acc = acc + psi.value_on_element(inside[y])
        values.append(acc * Fraction(1, sub.order))
    return Character(parent, values)
