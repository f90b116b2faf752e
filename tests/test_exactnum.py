"""Unit tests for the exact arithmetic primitives."""

import math
from fractions import Fraction

import pytest

from sepprob.closedform import _ClosedForm, _gamma_rational, sep_prob
from sepprob.errors import DomainError
from sepprob.exactnum import as_rational, is_half_integer, pochhammer
from sepprob.moments import Scenario, pt_moment


def test_as_rational_accepts_ints_strings_fractions():
    assert as_rational(3) == Fraction(3)
    assert as_rational("1/2") == Fraction(1, 2)
    assert as_rational("0.25") == Fraction(1, 4)
    assert as_rational(Fraction(7, 3)) == Fraction(7, 3)


def test_as_rational_rejects_floats():
    with pytest.raises(DomainError):
        as_rational(0.5)


def test_rational_arguments_refuse_bools():
    for call in (lambda: as_rational(False),
                 lambda: Scenario("pt", True, False),
                 lambda: pt_moment(True, False, 1),
                 lambda: sep_prob(True, 0)):
        with pytest.raises(DomainError):
            call()


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
    # the closed forms' gamma values, without their sqrt(pi)
    assert _gamma_rational(Fraction(1)) == 1
    assert _gamma_rational(Fraction(2)) == 1
    assert _gamma_rational(Fraction(5)) == 24


def test_gamma_half_half_odd_arguments():
    assert _gamma_rational(Fraction(1, 2)) == 1
    assert _gamma_rational(Fraction(3, 2)) == Fraction(1, 2)
    assert _gamma_rational(Fraction(7, 2)) == Fraction(15, 8)


def test_gamma_half_matches_float_gamma():
    for x in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), Fraction(4),
              Fraction(11, 2), Fraction(9)):
        approx = (float(_gamma_rational(x))
                  * math.pi ** ((x.denominator - 1) / 2))
        assert math.isclose(approx, math.gamma(float(x)), rel_tol=1e-12)


def test_gamma_half_recurrence():
    for x in (Fraction(1, 2), Fraction(5, 2), Fraction(3), Fraction(9, 2)):
        assert _gamma_rational(x + 1) == _gamma_rational(x) * x


def test_sqrtpi_to_rational_requires_cancellation():
    # a closed form is rational only when one more of u, v than of w is
    # half-odd, so that the sqrt(pi) of its denominator cancels
    for u, v, w in ((1, 1, 1), ("1/2", "1/2", 1), ("1/2", 1, "1/2"),
                    ("1/2", "3/2", 1), (1, 1, "1/2")):
        with pytest.raises(DomainError):
            _ClosedForm(Fraction(1), 0, (1,), *map(Fraction, (u, v, w)))
    for u, v, w in (("1/2", 1, 1), (1, "3/2", 2), ("1/2", "1/2", "5/2")):
        form = _ClosedForm(Fraction(1), 0, (1,), *map(Fraction, (u, v, w)))
        assert form.exact(0) == (_gamma_rational(form.u)
                                 * _gamma_rational(form.v)
                                 / _gamma_rational(form.w))


def test_pochhammer_gamma_consistency():
    # (a)_n = Gamma(a+n) / Gamma(a) on both parities
    for a in (Fraction(1, 2), Fraction(3), Fraction(5, 2)):
        for n in (0, 1, 4):
            ratio = _gamma_rational(a + n) / _gamma_rational(a)
            assert ratio == pochhammer(a, n)
