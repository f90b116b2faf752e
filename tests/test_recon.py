"""Unit tests for rational reconstruction from decimal approximants."""

import decimal
import random
from fractions import Fraction

import mpmath
import pytest

from oracles import best_rational_scan, window_fractions_scan
from sepprob.errors import DomainError, NoCandidateError
from sepprob.recon import Confidence, DEFAULT_BOUND, RationalGuess, \
    _farey_neighbors, reconstruct


def test_simple_decimal_examples():
    g = reconstruct("0.5", "1e-6", 100)
    assert (g.value, g.confidence) == (Fraction(1, 2), Confidence.UNIQUE)
    g = reconstruct("0.242424242424", "1e-10", 10 ** 3)
    assert (g.value, g.confidence) == (Fraction(8, 33), Confidence.UNIQUE)
    g = reconstruct("0.710526", "1e-5", 10 ** 2)
    assert (g.value, g.confidence) == (Fraction(27, 38), Confidence.UNIQUE)


def test_result_fields():
    g = reconstruct("0.333333", "1e-4", 50)
    assert isinstance(g, RationalGuess)
    assert g.value == Fraction(1, 3)
    assert g.denominator_bound == 50
    assert g.value.denominator <= 50
    with mpmath.mp.workdps(25):
        assert abs(g.residual - mpmath.mpf(1) / 3000000) < mpmath.mpf("1e-12")


def test_exact_input_short_circuit():
    g = reconstruct(Fraction(3, 7), "1e-9", 10)
    assert g.value == Fraction(3, 7)
    assert g.residual == 0
    assert g.confidence == Confidence.UNIQUE


def test_farey_neighbors_frozen_values():
    assert _farey_neighbors(Fraction(8, 33), 1000) == \
        (Fraction(239, 986), Fraction(241, 994))
    assert _farey_neighbors(Fraction(2), 7) == \
        (Fraction(13, 7), Fraction(15, 7))


def test_farey_neighbors_are_adjacent():
    # neighbors of p/q in the bounded Farey set satisfy |ps - qr| = 1
    rnd = random.Random(20260823)
    for _ in range(200):
        bound = rnd.randrange(2, 500)
        q = rnd.randrange(1, bound + 1)
        p = rnd.randrange(-2 * bound, 2 * bound)
        value = Fraction(p, q)
        left, right = _farey_neighbors(value, bound)
        assert left < value < right
        assert left.denominator <= bound and right.denominator <= bound
        # adjacency in a Farey sequence means unit determinants
        assert (value.numerator * left.denominator
                - value.denominator * left.numerator) == 1
        assert (right.numerator * value.denominator
                - right.denominator * value.numerator) == 1


def test_best_within_equals_exhaustive_scan():
    rnd = random.Random(8250)
    cases = [Fraction(355, 113) - Fraction(1, 10 ** 7),
             Fraction(-22, 7) + Fraction(1, 10 ** 5),
             Fraction(1, 10 ** 9), Fraction(0),
             # halfway between two integers: at bound 1 the floor wins
             Fraction(1, 2), Fraction(5, 2), Fraction(-1, 2), Fraction(-7, 2)]
    for _ in range(40):
        cases.append(Fraction(rnd.randrange(-10 ** 6, 10 ** 6),
                              rnd.randrange(1, 10 ** 6)))
    for x in cases:
        for bound in (1, 2, 7, 50, 123, 1000):
            # a radius of 1 covers the best approximation: some integer
            # lies within 1/2
            assert reconstruct(x, 1, bound).value == \
                best_rational_scan(x, bound)


def test_confidence_equals_window_scan():
    rnd = random.Random(97)
    for _ in range(60):
        x = Fraction(rnd.randrange(0, 10 ** 5), rnd.randrange(1, 10 ** 5))
        bound = rnd.randrange(2, 150)
        best = x.limit_denominator(bound)
        dist = abs(x - best)
        eps = max(dist, Fraction(1, 10 ** 6)) * rnd.choice(
            [Fraction(1), Fraction(3, 2), Fraction(4), Fraction(20)])
        guess = reconstruct(x, eps, bound)
        window = window_fractions_scan(x, eps, bound)
        assert guess.value == best
        assert window[0] <= best <= window[-1]
        unique = window == [best]
        assert (guess.confidence == Confidence.UNIQUE) == unique


def test_no_candidate_matches_empty_window():
    x = Fraction(416, 1000)  # 0.416, between the F_7 points 2/5 and 3/7
    eps = Fraction(1, 10 ** 4)
    with pytest.raises(NoCandidateError):
        reconstruct(x, eps, 7)
    assert window_fractions_scan(x, eps, 7) == []


def test_best_approximation_guarantee():
    # |x - p/q| < 1/(2 q Q) with q <= Q forces p/q as the answer
    rnd = random.Random(41)
    big_q = 10 ** 4
    for trial in range(10 ** 4):
        q = rnd.randrange(1, big_q + 1)
        p = rnd.randrange(-3 * big_q, 3 * big_q)
        delta = Fraction(rnd.choice([-1, 1]) * rnd.randrange(1, 5),
                         10 ** 9)
        x = Fraction(p, q) + delta
        assert x.limit_denominator(big_q) == Fraction(p, q)
        if trial % 20 == 0:
            g = reconstruct(x, 2 * abs(delta), big_q)
            assert g.value == Fraction(p, q)


def test_shrinking_radius_never_flips_unique_to_ambiguous():
    rnd = random.Random(7)
    for _ in range(80):
        x = Fraction(rnd.randrange(0, 10 ** 6), rnd.randrange(1, 10 ** 6))
        bound = rnd.randrange(2, 400)
        dist = abs(x - x.limit_denominator(bound))
        eps = max(dist, Fraction(1, 10 ** 9)) * 3
        first = reconstruct(x, eps, bound)
        if first.confidence == Confidence.UNIQUE:
            smaller = max(dist, eps / 5)
            again = reconstruct(x, smaller, bound)
            assert again.value == first.value
            assert again.confidence == Confidence.UNIQUE


def test_default_radius_from_decimal_rendering():
    # ten units in the last reported digit
    g = reconstruct("0.242424242424", denominator_bound=1000)
    assert g.value == Fraction(8, 33)
    g = reconstruct(decimal.Decimal("0.4531"), denominator_bound=64)
    assert g.value == Fraction(29, 64)
    # a float's rendering is its shortest repr
    g = reconstruct(0.25, denominator_bound=DEFAULT_BOUND)
    assert g.value == Fraction(1, 4)
    assert g.confidence == Confidence.AMBIGUOUS  # radius 0.1 is generous


def test_exact_inputs_require_explicit_radius():
    with pytest.raises(DomainError):
        reconstruct(Fraction(1, 3))
    with pytest.raises(DomainError):
        reconstruct(7)
    with pytest.raises(DomainError):
        reconstruct(mpmath.mpf(1) / 3)
    assert reconstruct(mpmath.mpf(1) / 3, "1e-10", 100).value == Fraction(1, 3)


def test_input_validation():
    with pytest.raises(DomainError):
        reconstruct("not a number", "1e-3")
    with pytest.raises(DomainError):
        reconstruct(True, "1e-3")
    with pytest.raises(DomainError):
        reconstruct(decimal.Decimal("NaN"), "1e-3")
    with pytest.raises(DomainError):
        reconstruct(mpmath.inf, "1e-3")
    with pytest.raises(DomainError):
        reconstruct("0.5", "0")
    with pytest.raises(DomainError):
        reconstruct("0.5", "-1e-3")
    with pytest.raises(DomainError):
        reconstruct("0.5", "1e-3", 0)
    with pytest.raises(DomainError):
        reconstruct("0.5", "1e-3", True)
