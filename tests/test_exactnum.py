"""Unit tests for the exact arithmetic primitives."""

import math
from fractions import Fraction

import pytest

from sepprob.errors import DomainError
from sepprob.exactnum import SqrtPiScaled, as_rational, gamma_half, \
    is_half_integer, pochhammer


def test_as_rational_accepts_ints_strings_fractions():
    assert as_rational(3) == Fraction(3)
    assert as_rational("1/2") == Fraction(1, 2)
    assert as_rational("0.25") == Fraction(1, 4)
    assert as_rational(Fraction(7, 3)) == Fraction(7, 3)


def test_as_rational_rejects_floats():
    with pytest.raises(DomainError):
        as_rational(0.5)


def test_is_half_integer():
    assert is_half_integer(Fraction(3, 2))
    assert is_half_integer(Fraction(2))
    assert not is_half_integer(Fraction(1, 3))


def test_pochhammer_values():
    assert pochhammer(3, 0) == 1
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(-2, 4) == 0
    assert pochhammer("1/2", 1) == Fraction(1, 2)
    # (1/3)(4/3)(7/3)(10/3) and (-5/2)(-3/2)(-1/2)(1/2)
    assert pochhammer(Fraction(1, 3), 4) == Fraction(280, 81)
    assert pochhammer(Fraction(-5, 2), 4) == Fraction(-15, 16)


def test_pochhammer_rejects_negative_length():
    for bad in (-1, True, False, 2.5, Fraction(2)):
        with pytest.raises(DomainError):
            pochhammer(1, bad)
    with pytest.raises(DomainError):
        pochhammer(Fraction(1, 2), True)


def test_gamma_half_integer_arguments():
    assert gamma_half(1).to_rational() == 1
    assert gamma_half(2).to_rational() == 1
    assert gamma_half(5).to_rational() == 24


def test_gamma_half_half_odd_arguments():
    assert gamma_half(Fraction(1, 2)) == SqrtPiScaled(Fraction(1), 1)
    assert gamma_half(Fraction(3, 2)) == SqrtPiScaled(Fraction(1, 2), 1)
    assert gamma_half(Fraction(7, 2)) == SqrtPiScaled(Fraction(15, 8), 1)


def test_gamma_half_matches_float_gamma():
    for x in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), Fraction(4),
              Fraction(11, 2), Fraction(9)):
        g = gamma_half(x)
        approx = float(g.coeff) * math.pi ** (g.sqrtpi_exponent / 2)
        assert math.isclose(approx, math.gamma(float(x)), rel_tol=1e-12)


def test_gamma_half_recurrence():
    for x in (Fraction(1, 2), Fraction(5, 2), Fraction(3), Fraction(9, 2)):
        assert gamma_half(x + 1) == gamma_half(x) * x


def test_gamma_half_rejects_bad_arguments():
    for bad in (0, -1, Fraction(-1, 2), Fraction(1, 3)):
        with pytest.raises(DomainError):
            gamma_half(bad)


def test_sqrtpi_products_and_quotients():
    a = SqrtPiScaled(Fraction(3, 4), 1)
    b = SqrtPiScaled(Fraction(2), 1)
    assert (a * b) == SqrtPiScaled(Fraction(3, 2), 2)
    assert (a / b) == SqrtPiScaled(Fraction(3, 8), 0)
    assert (a / b).to_rational() == Fraction(3, 8)
    assert (a * 2) == SqrtPiScaled(Fraction(3, 2), 1)
    assert (a / "3/4") == SqrtPiScaled(Fraction(1), 1)
    with pytest.raises(ZeroDivisionError):
        a / SqrtPiScaled(Fraction(0), 1)


def test_sqrtpi_to_rational_requires_cancellation():
    with pytest.raises(DomainError):
        SqrtPiScaled(Fraction(1), 1).to_rational()
    assert SqrtPiScaled(Fraction(0), 3).to_rational() == 0


def test_pochhammer_gamma_consistency():
    # (a)_n = Gamma(a+n) / Gamma(a) on both parities
    for a in (Fraction(1, 2), Fraction(3), Fraction(5, 2)):
        for n in (0, 1, 4):
            ratio = gamma_half(a + n) / gamma_half(a)
            assert ratio.to_rational() == pochhammer(a, n)
