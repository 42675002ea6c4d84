"""Exact arithmetic in the cyclotomic field Q(zeta_m).

Elements are stored as coefficient vectors of length phi(m) of rationals, in
the power basis 1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th
cyclotomic polynomial.  All operations are exact; nothing here touches floats.

A coefficient is kept as given: an int stays an int and a Fraction stays a
Fraction (Fraction(3) == 3, with the same hash and text, so neither equality,
hashing nor printing tells them apart).  Character values are algebraic
integers, so their coefficients stay ints, and ``fractions`` is imported only
where a non-integral rational can arise: scaling by a Fraction, or testing
whether a value that is neither an int nor a Cyclotomic is a Fraction.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING

from .errors import InternalInconsistency

if TYPE_CHECKING:
    from fractions import Fraction


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise InternalInconsistency("conductor must be positive")
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _poly_div_exact(num, den):
    """Divide integer polynomials exactly (den monic up to sign), num/den.

    Polynomials are lists of ints, constant term first.  Raises
    InternalInconsistency unless the division is exact; returns the quotient.
    """
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    if lead not in (1, -1):
        raise InternalInconsistency("divisor is not monic up to sign")
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] * lead
        q[i - len(den) + 1] = c
        if c:
            for j, d in enumerate(den):
                num[i - len(den) + 1 + j] -= c * d
    if any(num):
        raise InternalInconsistency("polynomial division not exact")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int):
    """Integer coefficients of Phi_m, constant term first."""
    if m < 1:
        raise InternalInconsistency("conductor must be positive")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_vectors(m: int):
    """Reduced coefficient vectors of zeta_m^k for k = 0..m-1.

    The entries are ints: Phi_m is monic with integer coefficients.
    """
    phi = euler_phi(m)
    phim = cyclotomic_polynomial(m)
    vectors = []
    # repeatedly multiply by zeta and reduce by Phi_m (monic)
    cur = [0] * phi
    cur[0] = 1
    for _ in range(m):
        vectors.append(tuple(cur))
        nxt = [0] + cur[:-1]
        spill = cur[-1]
        if spill:
            for j in range(phi):
                nxt[j] -= spill * phim[j]
        cur = nxt
    return tuple(vectors)


def _is_rational(x):
    """x is an int or a Fraction; ``fractions`` is imported only when x is
    no int."""
    if isinstance(x, int):
        return True
    from fractions import Fraction

    return isinstance(x, Fraction)


class Cyclotomic:
    """An element of Q(zeta_m), immutable."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise InternalInconsistency("coefficient vector has wrong length")
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(m, value):
        v = [0] * euler_phi(m)
        v[0] = value
        return Cyclotomic(m, v)

    @staticmethod
    def zero(m):
        return Cyclotomic.from_rational(m, 0)

    @staticmethod
    def one(m):
        return Cyclotomic.from_rational(m, 1)

    @staticmethod
    def root_of_unity(m, k):
        """zeta_m^k."""
        return Cyclotomic(m, _power_vectors(m)[k % m])

    # -- ring operations ---------------------------------------------------

    def _same_conductor(self, other):
        if other.conductor != self.conductor:
            raise InternalInconsistency("conductor mismatch: %d and %d"
                                        % (self.conductor, other.conductor))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            self._same_conductor(other)
            return other
        if _is_rational(other):
            return Cyclotomic.from_rational(self.conductor, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(
            self.conductor,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            if not _is_rational(other):
                return NotImplemented
            return Cyclotomic(self.conductor, [a * other for a in self.coeffs])
        self._same_conductor(other)
        phi = len(self.coeffs)
        prod = [0] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # reduce degrees >= phi via the power vectors
        powers = _power_vectors(self.conductor)
        out = list(prod[:phi])
        for k in range(phi, 2 * phi - 1):
            c = prod[k]
            if c:
                vec = powers[k % self.conductor]
                for j in range(phi):
                    out[j] += c * vec[j]
        return Cyclotomic(self.conductor, out)

    __rmul__ = __mul__

    def conjugate(self):
        """Complex conjugation, zeta -> zeta^(m-1)."""
        m = self.conductor
        powers = _power_vectors(m)
        phi = len(self.coeffs)
        out = [0] * phi
        for j, a in enumerate(self.coeffs):
            if a:
                vec = powers[(m - j) % m]
                for i in range(phi):
                    out[i] += a * vec[i]
        return Cyclotomic(m, out)

    def lift(self, new_conductor):
        """Embed into Q(zeta_M) for a multiple M of the conductor."""
        m, big = self.conductor, new_conductor
        if big % m != 0:
            raise InternalInconsistency(
                "new conductor %d is not a multiple of %d" % (big, m))
        if big == m:
            return self
        step = big // m
        powers = _power_vectors(big)
        phi = euler_phi(big)
        out = [0] * phi
        for j, a in enumerate(self.coeffs):
            if a:
                vec = powers[(j * step) % big]
                for i in range(phi):
                    out[i] += a * vec[i]
        return Cyclotomic(big, out)

    # -- predicates and conversions ----------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> int | Fraction:
        if not self.is_rational():
            raise InternalInconsistency("value is not rational")
        return self.coeffs[0]

    def is_integer(self):
        return self.is_rational() and self.coeffs[0].denominator == 1

    def integer_value(self) -> int:
        if not self.is_integer():
            raise InternalInconsistency("value is not a rational integer")
        return int(self.coeffs[0])

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            if not _is_rational(other):
                return NotImplemented
            return self.is_rational() and self.coeffs[0] == other
        if other.conductor != self.conductor:
            big = self.conductor * other.conductor // gcd(
                self.conductor, other.conductor)
            return self.lift(big).coeffs == other.lift(big).coeffs
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __str__(self):
        sym = "z%d" % self.conductor
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
                continue
            power = sym if j == 1 else "%s^%d" % (sym, j)
            if c == 1:
                term = power
            elif c == -1:
                term = "-" + power
            else:
                term = "%s*%s" % (c, power)
            terms.append(term)
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.conductor, str(self))
