from fractions import Fraction

import pytest

from orbikt import Cyclotomic, InternalInconsistency
from orbikt.cyclotomic import cyclotomic_polynomial, euler_phi


def zeta(m, k=1):
    return Cyclotomic.root_of_unity(m, k)


def test_euler_phi_small_values():
    assert [euler_phi(m) for m in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_known_cases():
    # x - 1, x + 1, x^2 + x + 1, x^2 + 1, x^4 + x^3 + x^2 + x + 1, x^2 - x + 1
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_primitive_root_powers_cycle():
    z = zeta(4)
    assert z * z == Cyclotomic.from_rational(4, -1)
    assert z * z * z * z == Cyclotomic.one(4)


def test_eighth_root_fourth_power_is_minus_one():
    z = zeta(8)
    assert z * z * z * z == Cyclotomic.from_rational(8, -1)


def test_sum_of_all_roots_vanishes():
    for m in (3, 4, 5, 6, 8, 12):
        total = Cyclotomic.zero(m)
        for k in range(m):
            total = total + zeta(m, k)
        assert total.is_zero()


def test_conjugation_inverts_roots():
    for m in (3, 4, 5, 8):
        z = zeta(m)
        assert z.conjugate() == zeta(m, m - 1)
        assert (z * z.conjugate()) == Cyclotomic.one(m)


def test_conjugation_is_ring_homomorphism():
    a = zeta(8) + Cyclotomic.from_rational(8, Fraction(1, 2))
    b = zeta(8, 3) - Cyclotomic.one(8)
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_lift_preserves_value():
    z4 = zeta(4)
    z4_in_8 = z4.lift(8)
    assert z4_in_8 == zeta(8, 2)
    assert z4_in_8 * z4_in_8 == Cyclotomic.from_rational(8, -1)


def test_lift_requires_divisible_conductor():
    with pytest.raises(Exception):
        zeta(4).lift(6)


def test_rationality_detection():
    z = zeta(4)
    assert not z.is_rational()
    assert (z * z).is_rational()
    assert (z * z).rational_value() == Fraction(-1)
    assert (z * z).is_integer()
    assert (z * z).integer_value() == -1
    half = Cyclotomic.from_rational(4, Fraction(1, 2))
    assert half.is_rational() and not half.is_integer()


def test_string_forms_are_canonical():
    assert str(Cyclotomic.one(4)) == "1"
    assert str(Cyclotomic.from_rational(4, -1)) == "-1"
    assert str(Cyclotomic.zero(8)) == "0"
    assert str(zeta(4)) == "z4"
    assert str(-zeta(4)) == "-z4"


def test_arithmetic_with_plain_integers_coerces():
    z = zeta(4)
    assert z + 0 == z
    assert z * 1 == z
    assert z - z == Cyclotomic.zero(4)
    assert 1 - z == Cyclotomic.one(4) - z


def test_golden_ratio_relation_in_fifth_roots():
    # (z5 + z5^4) satisfies x^2 + x - 1 = 0
    x = zeta(5) + zeta(5, 4)
    assert x * x + x - Cyclotomic.one(5) == Cyclotomic.zero(5)


def test_arithmetic_guards_raise():
    """The guards are raises, not asserts, so ``python -O`` keeps them."""
    with pytest.raises(InternalInconsistency):
        zeta(4) + zeta(3)
    with pytest.raises(InternalInconsistency):
        zeta(4) * zeta(3)
    with pytest.raises(InternalInconsistency):
        zeta(4).lift(6)
    with pytest.raises(InternalInconsistency):
        Cyclotomic(5, [1, 2, 3])
    with pytest.raises(InternalInconsistency):
        zeta(4).integer_value()


def test_constructor_keeps_fraction_coefficients():
    half = Fraction(1, 2)
    value = Cyclotomic(4, [half, 1])
    assert value.coeffs[0] is half
    assert value.coeffs == (half, 1)
    # an int coefficient stays an int, indistinguishable from its Fraction
    same = Cyclotomic(4, [half, Fraction(1)])
    assert value == same and same == value
    assert hash(value) == hash(same)
    assert str(value) == str(same) == "1/2 + z4"
