"""Exact Gaussian elimination over Q or a prime field F_p, for the tests.

One incremental echelon form serves the field computations the tests check
the package against: kernels and homology bases of boundary matrices (the
transfer oracle), and ranks over Q (``rational_rank``, the reference for the
two integer rank oracles of ``orbikt.homology``); it works over F_p just as
well.  The field enters only where an entry is normalized and where a pivot
is inverted.  No command loads it, so it lives beside the tests and shares
no code with the integer oracles it checks.
"""

from __future__ import annotations

from fractions import Fraction


class Echelon:
    """Incremental row echelon form over Q (``p=None``) or F_p (``p`` prime).

    Each stored row has leading entry 1 and remembers how it was built from
    the independent vectors inserted so far (in insertion order), so a
    membership query returns coordinates over those vectors.  Rows are kept
    sparse, as (column, entry) pairs of their nonzero entries.
    """

    def __init__(self, p=None):
        self.p = p
        self.pivots = []
        self.rows = []
        self.combos = []  # combos[r]: {independent-vector index: coefficient}

    @property
    def rank(self):
        return len(self.rows)

    def _normal(self, x):
        return x if self.p is None else x % self.p

    def _inverse(self, x):
        if self.p is not None:
            return pow(x, -1, self.p)
        # keep unit pivots integral so integer inputs stay integer rows
        return x if x in (1, -1) else 1 / Fraction(x)

    def _reduce(self, vec, insert):
        """Reduce vec by the stored rows.

        Returns its coordinates over the independent vectors when vec lies in
        their span; otherwise returns None, after storing vec as a new row
        when insert is true.
        """
        normal = self._normal
        v = list(vec)
        combo = {}
        for piv, row, row_combo in zip(self.pivots, self.rows, self.combos):
            f = normal(v[piv])
            if f:
                for i, x in row:
                    v[i] -= f * x
                for t, c in row_combo.items():
                    combo[t] = combo.get(t, 0) - f * c
        v = [normal(x) for x in v]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            coords = [0] * self.rank
            for t, c in combo.items():
                coords[t] = normal(-c)
            return coords
        if insert:
            inv = self._inverse(v[lead])
            combo = {t: normal(c * inv) for t, c in combo.items()}
            combo[self.rank] = inv
            self.pivots.append(lead)
            self.rows.append([(i, normal(x * inv)) for i, x in enumerate(v)
                              if x])
            self.combos.append(combo)
        return None

    def insert(self, vec):
        """Insert vec; True iff it is independent of the vectors inserted so far."""
        return self._reduce(vec, insert=True) is None

    def coordinates(self, vec):
        """Coordinates of vec over the independent vectors inserted so far,
        or None if vec is not in their span."""
        return self._reduce(vec, insert=False)


def nullspace(matrix, width, p=None):
    """Basis of the kernel of a matrix (list of rows) with the given width.

    Columns are inserted in order; each dependent column c gives e_c minus
    its coordinates over the earlier independent (pivot) columns, which is
    the basis read off the reduced row echelon form.
    """
    ech = Echelon(p)
    pivot_cols = []
    basis = []
    for c in range(width):
        coords = ech._reduce([row[c] for row in matrix], insert=True)
        if coords is None:
            pivot_cols.append(c)
            continue
        v = [0] * width
        v[c] = 1
        for pc, x in zip(pivot_cols, coords):
            v[pc] = ech._normal(-x)
        basis.append(v)
    return basis


def rational_rank(matrix):
    """Rank of a matrix over Q."""
    ech = Echelon()
    for row in matrix:
        ech.insert(row)
    return ech.rank
