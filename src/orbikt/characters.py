"""Exact character tables and restriction/induction multiplicities.

Tables are computed by the Burnside-Dixon class-algebra method (Dixon 1967,
with Schneider's 1990 refinements): the common eigenvectors of the class
matrices over F_p, for a prime p = 1 (mod exp(G)) with p > 2|G|, are split
off with pseudo-random combinations of the class matrices, and the values
they give mod p are lifted to exact cyclotomic values by a discrete Fourier
transform, one class per Galois orbit.  Everything downstream
(multiplicities, conjugate irreps, induction) is plain exact arithmetic on
the lifted values.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .cyclotomic import Cyclotomic, _power_vectors
from .errors import (
    BoundExceeded,
    InternalInconsistency,
    NonIntegralMultiplicity,
    NotSubgroup,
)
from .groups import FiniteGroup, Subgroup, conjugacy_data

CHARACTER_TABLE_BOUND = 512

# Rounds of fresh combinations before the split is declared failed.  A round
# fails to separate two characters with probability about 1/p, so a table
# that needs more than a few rounds points at a fault, not at bad luck.
SPLIT_ROUNDS = 16


# -- arithmetic over F_p --------------------------------------------------------


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


def _coefficient_stream(p):
    """A fixed sequence of residues in 1..p-1: a 64-bit linear congruential
    generator (Knuth's MMIX constants), so every run draws the same
    combinations."""
    state = 0
    while True:
        state = (state * 6364136223846793005
                 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        yield 1 + (state >> 33) % (p - 1)


def _berlekamp_massey(seq, p):
    """The minimal polynomial (monic, low-first) of a sequence over F_p.

    The sequence must be linearly recurrent of order at most len(seq) / 2;
    the polynomial f of degree L satisfies sum_i f[i] seq[t + i] = 0 for
    every t.
    """
    conn, prev = [1], [1]  # connection polynomials, constant term first
    length, shift, prev_disc = 0, 1, 1
    for n, s in enumerate(seq):
        disc = (s + sum(map(mul, conn[1:length + 1],
                            reversed(seq[n - length:n])))) % p
        if disc == 0:
            shift += 1
            continue
        coef = disc * pow(prev_disc, p - 2, p) % p
        old = conn[:]
        if len(conn) < len(prev) + shift:
            conn += [0] * (len(prev) + shift - len(conn))
        for i, x in enumerate(prev):
            conn[i + shift] = (conn[i + shift] - coef * x) % p
        if 2 * length <= n:
            length, prev, prev_disc, shift = n + 1 - length, old, disc, 1
        else:
            shift += 1
    conn += [0] * (length + 1 - len(conn))
    return conn[length::-1]


def _roots_mod(poly, p):
    """All roots in F_p of a polynomial (low-first), by evaluation at every
    point of F_p at once."""
    points = range(p)
    acc = [0] * p
    for c in reversed(poly):
        acc = [(a * x + c) % p for a, x in zip(acc, points)]
    return [x for x, a in enumerate(acc) if not a]


# -- splitting the class algebra --------------------------------------------------


def _combination_matrix(cd, group, coeffs, p):
    """M = sum_i coeffs[i] N_i mod p, read off the multiplication table.

    N_i[j][k] = #{(x, y) in C_i x C_j : xy = rep_k}, so column k of M adds
    coeffs[class of x] over all x with x^-1 rep_k in C_j: O(r |G|) in all.
    The identity row of M is the coefficient vector itself (x = rep_k is the
    only x with x^-1 rep_k = 1), which is checked.
    """
    r = len(cd.classes)
    class_of = cd.class_of
    # with y = x^-1: x^-1 rep_k = y rep_k, weighted by the class of y^-1
    weight = [coeffs[class_of[x]] for x in group.inv]
    columns = []
    for z in cd.reps:
        col = [0] * r
        for y, w in zip(range(group.order), weight):
            col[class_of[group.mult[y][z]]] += w
        columns.append(col)
    matrix = [[c % p for c in row] for row in zip(*columns)]
    if matrix[class_of[group.identity]] != list(coeffs):
        raise InternalInconsistency(
            "combination matrix disagrees with its coefficients")
    return matrix


def _split_piece(matrix, u, bound, form, p):
    """Split u over the eigenvalues of matrix.

    u is a projection of the identity vector onto a sum of common
    eigenspaces, spread over at most `bound` characters.  The sequence
    s_t = <u, M^t u> of the class algebra's symmetric form has the minimal
    polynomial f of u (each eigenvalue enters with weight sum d^2 / |G|,
    nonzero mod p), and s_(a+b) = <M^a u, M^b u> needs only the Krylov
    vectors up to M^bound u.  For each root lam of f, f(M)/(M - lam) applied
    to u, scaled by 1/f'(lam), is the projection of u onto the
    lam-eigenspace.
    """
    krylov = [u]
    for _ in range(bound):
        v = krylov[-1]
        krylov.append([sum(map(mul, row, v)) % p for row in matrix])
    seq = []
    for a in range(bound):
        seq.append(form(krylov[a], krylov[a]))
        seq.append(form(krylov[a], krylov[a + 1]))
    poly = _berlekamp_massey(seq, p)
    deg = len(poly) - 1
    # f(M) u = 0 exactly when M maps the span of u .. M^(deg-1) u into itself
    if any(sum(c * v[j] for c, v in zip(poly, krylov)) % p
           for j in range(len(u))):
        raise InternalInconsistency(
            "class matrix does not preserve an eigenspace: the Krylov"
            " vectors do not satisfy their minimal polynomial")
    roots = _roots_mod(poly, p)
    if len(roots) != deg:
        raise InternalInconsistency(
            "minimal polynomial does not split into distinct linear factors")
    columns = list(zip(*krylov[:deg]))
    pieces = []
    for lam in roots:
        quot = [0] * deg  # f / (x - lam) by synthetic division
        acc = 0
        for i in range(deg, 0, -1):
            acc = (acc * lam + poly[i]) % p
            quot[i - 1] = acc
        at_lam = 0
        for c in reversed(quot):
            at_lam = (at_lam * lam + c) % p
        scale = pow(at_lam, p - 2, p)
        pieces.append([sum(map(mul, quot, col)) * scale % p
                       for col in columns])
    # the projections onto all eigenvalues add up to u
    if [sum(xs) % p for xs in zip(*pieces)] != u:
        raise InternalInconsistency("eigenspace split lost dimensions")
    return pieces


def _split(group, cd, p):
    """The common eigenvectors of the class matrices over F_p.

    Returns (weight, vector) pairs, one per irrep chi, where vector is the
    projection of the identity-class vector onto chi's eigenvector: its
    entry at class i is d |C_i| chi(g_i) / |G|, so weight = |G| times its
    identity entry is d^2.  Pieces start as the identity vector; each round
    splits every piece whose weight exceeds 1 with a fresh combination of
    all class matrices.  The weight of a piece is the sum of d^2 over the
    characters it spans, so weight 1 means one linear character, and once
    there are r pieces each spans exactly one character.
    """
    r = len(cd.classes)
    n = group.order
    c_e = cd.class_of[group.identity]
    inv_size = [pow(len(c), p - 2, p) for c in cd.classes]
    inv_class = [cd.class_of[group.inv[rep]] for rep in cd.reps]

    def form(x, y):
        # <x, y> = sum_j x[j*] y[j] / |C_j|: every class matrix is
        # self-adjoint for it
        return sum(map(mul, [x[c] for c in inv_class],
                       map(mul, y, inv_size))) % p

    def weight(vec):
        w = n * vec[c_e] % p
        if not w:
            raise InternalInconsistency("eigenvector vanishes at identity class")
        if w > n:
            raise InternalInconsistency("eigenspace weight %d exceeds |G|" % w)
        return w

    unit = [0] * r
    unit[c_e] = 1
    done, pending = [], [(n, unit)]
    stream = _coefficient_stream(p)
    rounds = 0
    while len(done) + len(pending) < r:
        rounds += 1
        if rounds > SPLIT_ROUNDS:
            raise InternalInconsistency("class algebra did not fully split")
        matrix = _combination_matrix(
            cd, group, [next(stream) for _ in range(r)], p)
        spare = r - len(done) - len(pending)
        split = []
        for w, vec in pending:
            for piece in _split_piece(matrix, vec, min(w, spare + 1), form, p):
                pw = weight(piece)
                (done if pw == 1 else split).append((pw, piece))
        pending = split
    return done + pending


# -- lifting values mod p to exact values -----------------------------------------


def _galois_orbits(group, cd):
    """Per class, (orbit representative class, k, power classes).

    For each Galois orbit (the classes of g^k, k prime to o(g)) the first
    class i in class order is its representative, recorded as (i, 1,
    classes of g^0 .. g^(o-1)) with g = rep_i; every other class of the
    orbit is recorded as (i, k, None) for one k with g^k in it.
    """
    source = [None] * len(cd.classes)
    for i, rep in enumerate(cd.reps):
        if source[i] is not None:
            continue
        powers, x = [], group.identity
        while True:
            powers.append(x)
            x = group.mult[x][rep]
            if x == group.identity:
                break
        o = len(powers)
        source[i] = (i, 1, [cd.class_of[y] for y in powers])
        for k in range(2, o):
            j = cd.class_of[powers[k]]
            if source[j] is None and gcd(k, o) == 1:
                source[j] = (i, k, None)
    return source


def _lift(group, cd, p, conductor, degrees, values_mod):
    """Exact values from the values mod p, as Cyclotomic rows.

    The value of chi at g of order o is a sum of o-th roots of unity, and
    the multiplicity of zeta_o^t is (1/o) sum_l chi(g^l) zeta_o^(-tl): a DFT
    of length o over F_p.  It is taken once per Galois orbit; for k prime to
    o, chi(g^k) has the multiplicity of zeta_o^t moved to zeta_o^(tk), and
    each value so derived must agree with its eigenvector's value mod p.
    zeta_o^t is zeta_conductor^(t conductor / o).
    """
    e = group.exponent()
    z_e = pow(_primitive_root(p), (p - 1) // e, p)
    source = _galois_orbits(group, cd)
    # per order o: the powers of zeta_o mod p, their logarithms, and the
    # DFT matrix
    roots, logs, dfts = {}, {}, {}
    for _, _, powers in source:
        if powers is None or len(powers) in roots:
            continue
        o = len(powers)
        z = pow(z_e, e // o, p)
        roots[o] = [pow(z, t, p) for t in range(o)]
        logs[o] = {x: t for t, x in enumerate(roots[o])}
        dfts[o] = [[roots[o][-t * l % o] for l in range(o)] for t in range(o)]
    cpowers = _power_vectors(conductor)
    phi = len(cpowers[0])
    values = {}  # eigenvalue multiset at the conductor -> value
    rows = []
    for d, vals in zip(degrees, values_mod):
        spectra = {}  # orbit representative -> [(t, multiplicity)]
        row = []
        for j, (i, k, powers) in enumerate(source):
            if powers is not None:
                o = len(powers)
                seq = [vals[c] for c in powers]
                if d == 1:
                    # the DFT is a unit vector at t exactly when
                    # chi(g^l) = zeta_o^(tl) for every l: O(o), not O(o^2)
                    t = logs[o].get(seq[1 % o], 0)
                    zs = roots[o]
                    if seq != [zs[t * l % o] for l in range(o)]:
                        raise InternalInconsistency(
                            "eigenvalue multiplicity lift failed")
                    spec = spectra[i] = [(t, 1)]
                else:
                    inv_o = pow(o, p - 2, p)
                    mults = [sum(map(mul, seq, dft_row)) * inv_o % p
                             for dft_row in dfts[o]]
                    if sum(mults) != d or any(m > d for m in mults):
                        raise InternalInconsistency(
                            "eigenvalue multiplicity lift failed")
                    spec = spectra[i] = [(t, m) for t, m in enumerate(mults)
                                         if m]
            else:
                o = len(source[i][2])
                spec = sorted((t * k % o, m) for t, m in spectra[i])
                if sum(m * roots[o][t] for t, m in spec) % p != vals[j]:
                    raise InternalInconsistency(
                        "Galois-derived value disagrees with its eigenvector"
                        " mod p")
            step = conductor // o
            key = tuple((t * step, m) for t, m in spec)
            value = values.get(key)
            if value is None:
                coeffs = [0] * phi
                for t, m in key:
                    vec = cpowers[t]
                    for s in range(phi):
                        coeffs[s] += m * vec[s]
                value = values[key] = Cyclotomic(conductor, coeffs)
            row.append(value)
        rows.append(row)
    return rows


def _dixon_rows(group, conductor):
    """Exact character values per conjugacy class, unsorted.

    Returns (rows, degrees) where rows[s] is a list of Cyclotomic values at
    the given conductor (a multiple of exp(G)), one per class in conjugacy
    order.  Values with the same eigenvalue multiset are one shared object.
    """
    cd = conjugacy_data(group)
    r = len(cd.classes)
    n = group.order
    p = _smallest_dixon_prime(group.exponent(), n)
    c_e = cd.class_of[group.identity]
    size_inv = [pow(len(c), p - 2, p) for c in cd.classes]
    inv_class = [cd.class_of[group.inv[rep]] for rep in cd.reps]
    divisors = [d for d in range(1, n + 1) if n % d == 0]

    degrees, values_mod = [], []
    for w, vec in _split(group, cd, p):
        # normalize to the omega-vector (value 1 at the identity class)
        inv0 = pow(vec[c_e], p - 2, p)
        om = [x * inv0 % p for x in vec]
        # d^2 = |G| / sum_i omega_i omega_{i*} / h_i  (mod p); distinct
        # divisors of |G| < p/2 have distinct squares mod p
        s = sum(om[i] * om[inv_class[i]] * size_inv[i] for i in range(r)) % p
        d2 = n * pow(s, p - 2, p) % p
        d = next((x for x in divisors if x * x % p == d2), None)
        if d is None or d * d != w:
            raise InternalInconsistency("degree recovery failed")
        degrees.append(d)
        values_mod.append([d * om[i] * size_inv[i] % p for i in range(r)])
    return _lift(group, cd, p, conductor, degrees, values_mod), degrees


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


def character_table(group: FiniteGroup, conductor=None) -> CharacterTable:
    """The exact character table of the group.

    Values live at the given conductor (a multiple of exp(G); defaults to
    exp(G)).  Irreps are sorted by (degree, coefficient vectors), with the
    trivial character forced to id 0.
    """
    if group.order > CHARACTER_TABLE_BOUND:
        raise BoundExceeded("group order %d exceeds bound %d"
                            % (group.order, CHARACTER_TABLE_BOUND))
    e = group.exponent()
    if conductor is None:
        conductor = e
    if conductor % e != 0:
        raise InternalInconsistency("conductor must be a multiple of exp(G)")
    cached = group._tables.get(conductor)
    if cached is not None:
        return cached

    rows, degrees = _dixon_rows(group, conductor)
    # Rows are sorted on the coefficients of their values; _verify_table
    # proves them integral.
    one = Cyclotomic.one(conductor).coeffs
    records = []
    for row, d in zip(rows, degrees):
        key_row = tuple(v.coeffs for v in row)
        trivial = all(c == one for c in key_row)
        records.append(((d, 0 if trivial else 1, key_row), d, tuple(row)))
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

    Each sum is taken by _exponent_sum, over Z.
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
        reduced = _exponent_sum(zip(terms[a], conj_terms[b]), m)
        want = n if a == b else 0
        if reduced[0] != want or any(reduced[1:]):
            raise InternalInconsistency("row orthogonality fails (%d,%d)"
                                        % (a, b))


def _exponent_sum(products, m):
    """sum x y over the (x, y) pairs of products, as power-basis coefficients
    of Q(zeta_m).

    x and y are sparse (exponent, coefficient) lists over the powers of
    zeta_m, with exponents below m.  The products are accumulated over the
    exponents of zeta_m, folded mod m, and reduced modulo Phi_m once,
    through the integral power vectors of zeta^k; with integer coefficients
    every step stays in Z.
    """
    powers = _power_vectors(m)
    phi = len(powers[0])
    acc = [0] * (2 * m)
    for x, y in products:
        for k, c in x:
            for j, d in y:
                acc[k + j] += c * d
    folded = [a + b for a, b in zip(acc, acc[m:])]
    reduced = folded[:phi]
    for k in range(phi, m):
        c = folded[k]
        if c:
            vec = powers[k]
            for t in range(phi):
                reduced[t] += c * vec[t]
    return reduced


def subgroup_table(sub: Subgroup) -> CharacterTable:
    """Character table of a subgroup, at the parent group's conductor."""
    key = sub.elements
    cached = sub.parent._sub_tables.get(key)
    if cached is None:
        cached = character_table(sub.group, conductor=sub.parent.exponent())
        sub.parent._sub_tables[key] = cached
    return cached


# -- multiplicities and transport -------------------------------------------------


def _common_conductor(*values):
    return lcm(*[v.conductor for v in values])


def multiplicity(chi: Character, psi: Character, sub: Subgroup) -> int:
    """<res chi, psi> over the subgroup: (1/|L|) sum chi(l) conj(psi(l)).

    chi is a (possibly reducible) character of the parent group; psi is a
    character of the reified subgroup.  The result must be a non-negative
    rational integer.  The sum is taken by _exponent_sum, once per distinct
    pair of value objects (weighted by how often it occurs), at the least
    common conductor m: a value at conductor c is a sum of powers of
    zeta_c = zeta_m^(m/c), and conj(zeta_m^k) = zeta_m^(m-k).
    """
    if chi.group is not sub.parent:
        raise NotSubgroup("chi is not a character of the ambient group")
    if psi.group is not sub.group and psi.group.mult != sub.group.mult:
        raise NotSubgroup("psi does not live on this subgroup")
    m = _common_conductor(chi.values[0], psi.values[0])
    # the values are held by chi and psi for the whole call, so ids are unique
    counts = {}
    for i, l in enumerate(sub.elements):
        x, y = chi.value_on_element(l), psi.value_on_element(i)
        key = (id(x), id(y))
        if key in counts:
            counts[key][2] += 1
        else:
            counts[key] = [x, y, 1]
    products = [(_exponent_terms(x, m, 1, 1), _exponent_terms(y, m, -1, count))
                for x, y, count in counts.values()]
    reduced = _exponent_sum(products, m)
    total = reduced[0]
    if any(reduced[1:]) or total % sub.order or total < 0:
        from fractions import Fraction

        acc = Cyclotomic(m, reduced) * Fraction(1, sub.order)
        raise NonIntegralMultiplicity(
            "inner product %s is not a non-negative integer" % (acc,))
    return int(total // sub.order)


def _exponent_terms(value, m, sign, scale):
    """scale * value, or scale * conj(value) for sign -1, as sparse
    (exponent, coefficient) pairs over the powers of zeta_m; integral
    coefficients become ints."""
    c = value.conductor
    if m % c:
        raise InternalInconsistency(
            "new conductor %d is not a multiple of %d" % (m, c))
    step = sign * (m // c)
    return [(k * step % m,
             scale * (a.numerator if a.denominator == 1 else a))
            for k, a in enumerate(value.coeffs) if a]


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
    from fractions import Fraction

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
