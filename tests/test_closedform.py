"""Unit tests for the closed-form probabilities and structure checks."""

import math
from fractions import Fraction

import pytest

from refdata import TABLE_PROBS
from sepprob.closedform import ASYMPTOTE, G, StructureCheck, \
    extract_p, extract_p_from_values, log_ratio, sep_prob, \
    structural_prediction, structure_checks
from sepprob.errors import DomainError, PrecisionError, SingularityError, \
    StructureViolation
from sepprob.exactnum import pochhammer

HALF = Fraction(1, 2)


def test_table_probabilities():
    for alpha, column in TABLE_PROBS.items():
        for k, expect in enumerate(column):
            assert sep_prob(alpha, k) == expect


def test_edge_values():
    assert sep_prob(HALF, -1) == Fraction(1, 8)
    assert sep_prob(1, -1) == Fraction(1, 14)
    assert sep_prob(2, -1) == Fraction(11, 442)
    assert sep_prob(1, -2) == 0
    assert sep_prob(2, -2) == Fraction(1, 429)
    with pytest.raises(SingularityError):
        sep_prob(HALF, -2)


def test_argument_validation():
    with pytest.raises(DomainError):
        sep_prob(Fraction(3, 2), 0)
    with pytest.raises(DomainError):
        sep_prob(1, -3)
    with pytest.raises(DomainError):
        sep_prob(1, HALF)
    with pytest.raises(DomainError):
        sep_prob(1, True)


def test_probability_ordering_and_growth():
    prev = {alpha: Fraction(0) for alpha in TABLE_PROBS}
    for k in range(21):
        values = {alpha: sep_prob(alpha, k) for alpha in TABLE_PROBS}
        assert values[HALF] > values[Fraction(1)] > values[Fraction(2)]
        for alpha, v in values.items():
            assert prev[alpha] < v < 1
        prev = values


def test_gamma_kernel_values():
    assert G(1, 0) == Fraction(1, 8448)
    assert G(HALF, 0) == Fraction(7, 384)
    assert G(Fraction(5, 2), 3) > 0  # any half-integer alpha is in range
    with pytest.raises(DomainError):
        G(HALF, -3)  # k + 3a + 3/2 = 0
    with pytest.raises(DomainError):
        G(Fraction(1, 3), 0)
    with pytest.raises(DomainError):
        G(1, True)


def test_extract_p_closed_forms():
    assert extract_p(1) == (6400, 3584, 512)
    assert extract_p(HALF) == (60, 32)
    p2 = extract_p(2)
    assert len(p2) == 7
    assert p2[6] == Fraction(65536, 3)


def test_identity_chain():
    # F = p * G, with the half-integer case carrying a Pochhammer divisor
    for alpha in (HALF, Fraction(1), Fraction(2)):
        pred = structural_prediction(alpha)
        p = extract_p(alpha)
        for k in range(21):
            value = sum(c * k ** i for i, c in enumerate(p)) * G(alpha, k)
            if pred.half_integer_pochhammer is not None:
                base, count = pred.half_integer_pochhammer
                value /= pochhammer(k + base, count)
            assert 1 - value == sep_prob(alpha, k)


def test_structural_prediction_integer_cases():
    p1 = structural_prediction(1)
    assert (p1.degree, p1.leading_coeff) == (2, 512)
    assert (p1.g1, p1.g2) == (4, 3)  # empty chain
    assert (p1.c2, p1.c2_prime, p1.c3) == (7, 0, Fraction(25, 2))
    assert p1.reduced_degree == 2

    p2 = structural_prediction(2)
    assert (p2.degree, p2.leading_coeff) == (6, Fraction(65536, 3))
    assert (p2.g1, p2.g2) == (6, 7)
    assert (p2.c2, p2.c2_prime, p2.c3) == (34, 13, Fraction(985, 2))
    assert p2.reduced_degree == 4

    p3 = structural_prediction(3)
    assert (p3.degree, p3.leading_coeff) == (10, Fraction(2 ** 25, 120))
    assert (p3.g1, p3.g2) == (9, 10)
    assert (p3.c2, p3.c2_prime, p3.c3) == (78, 19, Fraction(22127, 8))
    assert p3.reduced_degree == 8

    p4 = structural_prediction(4)
    assert (p4.c2, p4.c2_prime) == (128, 36)
    assert p4.c3 is None  # the third-coefficient form skips multiples of 4
    assert [int(structural_prediction(a).c2 - structural_prediction(a).c2_prime)
            for a in (1, 2, 3, 4)] == [7, 21, 59, 92]


def test_structural_prediction_half_integer_cases():
    ph = structural_prediction(HALF)
    assert (ph.degree, ph.leading_coeff) == (1, 32)
    assert ph.half_integer_pochhammer == (2, 1)
    assert ph.g1 is None and ph.c2 is None
    p32 = structural_prediction(Fraction(3, 2))
    assert (p32.degree, p32.leading_coeff) == (6, 4096)
    assert p32.half_integer_pochhammer == (4, 2)
    with pytest.raises(DomainError):
        structural_prediction(Fraction(1, 3))
    with pytest.raises(DomainError):
        structural_prediction(0)


def test_verify_structure_all_pass():
    names_int = ["degree", "leading_coeff", "factor_chain", "monic_second",
                 "reduced_degree", "reduced_second", "monic_third"]
    for alpha, names in ((HALF, ["degree", "leading_coeff"]),
                         (Fraction(1), names_int),
                         (Fraction(2), names_int)):
        checks = structure_checks(structural_prediction(alpha),
                                  extract_p(alpha))
        assert all(c.ok for c in checks)
        assert [c.name for c in checks] == names


def test_quaterbit_factor_chain():
    p2 = extract_p(2)

    def eval_at(x):
        return sum(c * x ** i for i, c in enumerate(p2))

    assert eval_at(-6) == 0 and eval_at(-7) == 0
    assert eval_at(-5) != 0 and eval_at(-8) != 0
    # after removing (k+6)(k+7) the monic second coefficient is 21
    checks = structure_checks(structural_prediction(2), p2)
    by_name = {c.name: c for c in checks}
    assert by_name["reduced_second"].actual == 21


def test_structure_checks_trim_trailing_zeros():
    pred = structural_prediction(1)
    base = structure_checks(pred, extract_p(1))
    padded = structure_checks(pred, extract_p(1) + (Fraction(0),))
    assert base == padded
    assert all(isinstance(c, StructureCheck) for c in base)


def test_structure_checks_flag_mismatches():
    one, two = structural_prediction(1), structural_prediction(2)
    wrong = structure_checks(one, (6400, 3584, 1024))
    by_name = {c.name: c for c in wrong}
    assert not by_name["leading_coeff"].ok
    assert not by_name["monic_second"].ok
    # a check whose coefficient the polynomial lacks fails with actual
    # None; no index wraps around to another coefficient
    for pred, coeffs, missing in (
            (one, (5,), {"monic_second", "reduced_second", "monic_third"}),
            (one, (1, 2), {"monic_third"}),
            (two, (42, 13, 1), {"reduced_second"})):
        by_name = {c.name: c for c in structure_checks(pred, coeffs)}
        assert {n for n, c in by_name.items() if c.actual is None} == missing
        assert not any(by_name[n].ok for n in missing)
        assert not by_name["degree"].ok
    assert by_name["factor_chain"].ok and by_name["reduced_degree"].actual == 0
    for zero in ((0,), (), (0, 0)):
        with pytest.raises(DomainError):
            structure_checks(one, zero)


def test_extract_p_from_values_witness():
    values = [(k, sep_prob(1, k)) for k in range(4)]
    assert extract_p_from_values(1, values) == (6400, 3584, 512)
    corrupted = values[:3] + [(3, sep_prob(1, 3) + Fraction(1, 10 ** 12))]
    with pytest.raises(StructureViolation):
        extract_p_from_values(1, corrupted)
    with pytest.raises(DomainError):
        extract_p_from_values(1, values[:3])
    with pytest.raises(DomainError):
        extract_p_from_values(1, values + [(0, sep_prob(1, 0))])


def test_log_ratio_small_k_cross_check():
    # at small k the ratio is checked against plain double-precision logs
    for alpha in (HALF, Fraction(1), Fraction(2)):
        p_k = sep_prob(alpha, 1)
        p_k1 = sep_prob(alpha, 2)
        expect = math.log(float(p_k1)) / math.log(float(p_k))
        assert abs(float(log_ratio(alpha, 1, precision=60)) - expect) < 1e-10


def test_log_ratio_approaches_asymptote():
    target = Fraction(16, 27)
    err10 = abs(float(log_ratio(1, 10)) - float(target))
    err100 = abs(float(log_ratio(1, 100)) - float(target))
    assert err100 < err10
    assert ASYMPTOTE == target


def test_log_ratio_validation_and_precision_guard():
    with pytest.raises(DomainError):
        log_ratio(1, 0)
    with pytest.raises(DomainError):
        log_ratio(1, True)
    with pytest.raises(DomainError):
        log_ratio(1, 10, precision=14)
    with pytest.raises(PrecisionError):
        log_ratio(1, 10 ** 4, precision=15)
