"""Acceptance checks, one test per criterion.

Each test is self-contained so a single pass/fail line under pytest -v
tells the whole story.  The timing bounds are generous on purpose; they
guard against accidental exponential blowups, not against slow machines.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest

import oracles
from refdata import TABLE_PROBS
from sepprob import closedform, inversion, moments, recon
from sepprob.errors import SingularityError
from sepprob.exactnum import pochhammer
from sepprob.moments import Scenario, Variable, moment_sequence

HALF = Fraction(1, 2)


def poly_eval(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(coeffs))


def deflate(coeffs, root):
    """Quotient of an ascending-coefficient polynomial by (k - root)."""
    desc = list(reversed(list(coeffs)))
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(c + root * out[-1])
    assert desc[-1] + root * out[-1] == 0
    return list(reversed(out))


def test_criterion_01_exact_tables():
    start = time.perf_counter()
    for alpha, column in TABLE_PROBS.items():
        for k, expect in enumerate(column):
            assert closedform.sep_prob(alpha, k) == expect
    assert time.perf_counter() - start < 1.0


def test_criterion_02_edge_values():
    assert closedform.sep_prob(HALF, -1) == Fraction(1, 8)
    assert closedform.sep_prob(1, -1) == Fraction(1, 14)
    assert closedform.sep_prob(2, -1) == Fraction(11, 442)
    with pytest.raises(SingularityError):
        closedform.sep_prob(HALF, -2)
    assert closedform.sep_prob(1, -2) == 0
    assert closedform.sep_prob(2, -2) == Fraction(1, 429)


def test_criterion_03_identity_chain():
    for alpha in (HALF, Fraction(1), Fraction(2)):
        coeffs = closedform.extract_p(alpha)
        hip = closedform.structural_prediction(alpha).half_integer_pochhammer
        for k in range(21):
            complement = poly_eval(coeffs, k) * closedform.G(alpha, k)
            if hip is not None:
                complement /= pochhammer(k + hip[0], hip[1])
            assert complement == 1 - closedform.sep_prob(alpha, k)
    assert closedform.G(1, 0) == Fraction(1, 8448)
    assert Fraction(6400) * closedform.G(1, 0) == Fraction(25, 33)
    assert 30 * closedform.G(HALF, 0) == Fraction(35, 64)


def test_criterion_04_structure_verification():
    start = time.perf_counter()
    p_one = closedform.extract_p(1)
    pred_one = closedform.structural_prediction(1)
    assert len(p_one) - 1 == 2
    assert p_one[-1] == 512
    assert p_one[1] / p_one[2] == 7 == pred_one.c2
    assert p_one[0] / p_one[2] == Fraction(25, 2) == pred_one.c3
    p_half = closedform.extract_p(HALF)
    assert len(p_half) - 1 == 1
    assert p_half[-1] == 32
    p_two = closedform.extract_p(2)
    assert len(p_two) - 1 == 6
    assert p_two[-1] == Fraction(2 ** 17, 6)
    assert poly_eval(p_two, -6) == 0
    assert poly_eval(p_two, -7) == 0
    reduced = deflate(deflate(p_two, -6), -7)
    assert reduced[-2] / reduced[-1] == 21
    for alpha in (HALF, Fraction(1), Fraction(2)):
        checks = closedform.structure_checks(
            closedform.structural_prediction(alpha),
            closedform.extract_p(alpha))
        assert all(c.ok for c in checks)
    assert time.perf_counter() - start < 5.0


def test_criterion_05_moment_oracle_equivalence():
    alphas = [HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    ks = [Fraction(0), HALF, Fraction(1), Fraction(2), Fraction(3)]
    for alpha in alphas:
        for k in ks:
            for n in range(21):
                assert moments.pt_moment(alpha, k, n) == \
                    oracles.pt_moment_oracle(alpha, k, n)
                assert moments.diff_moment(alpha, k, n) == \
                    oracles.diff_moment_oracle(alpha, k, n)


def test_criterion_06_inversion_baseline():
    scenario = Scenario(Variable.PT_DET, Fraction(1), Fraction(0))
    seq = moment_sequence(scenario, 50)
    baseline = inversion.legendre_tail(seq, 0, 0, mode=inversion.MODE_EXACT)
    assert baseline.value == Fraction(1, 17)
    lo, hi = scenario.interval
    for m in range(51):
        full = inversion.legendre_tail(seq, lo, m, mode=inversion.MODE_EXACT)
        empty = inversion.legendre_tail(seq, hi, m, mode=inversion.MODE_EXACT)
        assert full.value == 1
        assert empty.value == 0


def test_criterion_07_desk_scale_convergence():
    cases = [
        (Variable.PT_DET, 0, Fraction(8, 33)),
        (Variable.PT_DET, 3, Fraction(27, 38)),
        (Variable.DIFF, 0, Fraction(4, 33)),
    ]
    for variable, k, limit in cases:
        seq = moment_sequence(Scenario(variable, Fraction(1), Fraction(k)),
                              1000)
        values = {m: inversion.legendre_tail(seq, 0, m,
                                             mode=inversion.MODE_EXACT).value
                  for m in (100, 1000)}
        assert abs(values[1000] - limit) < Fraction(1, 100)
        assert abs(values[1000] - limit) < abs(values[100] - limit)


def test_criterion_08_end_to_end_replication():
    scenario = Scenario(Variable.PT_DET, Fraction(1), Fraction(0))
    seq = moment_sequence(scenario, 1000)
    est = inversion.legendre_tail(seq, 0, 1000, mode=inversion.MODE_EXACT)
    guess = recon.reconstruct(est.value, Fraction(15, 10 ** 6), 1000)
    assert guess.value == Fraction(8, 33)
    assert guess.confidence is recon.Confidence.UNIQUE


def test_criterion_09_gegenbauer_legendre_equivalence():
    for variable in (Variable.PT_DET, Variable.DIFF):
        scenario = Scenario(variable, Fraction(1), Fraction(0))
        seq = moment_sequence(scenario, 50)
        for m in range(51):
            leg = inversion.legendre_tail(seq, 0, m, mode=inversion.MODE_EXACT)
            geg = inversion.gegenbauer_tail(seq, 0, 0, m,
                                            mode=inversion.MODE_EXACT)
            assert leg.value == geg.value
            assert leg.coeffs == geg.coeffs
        tables = oracles.build_tables(scenario.interval, 0, 50)
        assert leg.coeffs == tuple(oracles.tail_coeffs_from_tables(tables))
    diff_tables = oracles.build_tables(moments.DIFF_INTERVAL, 0, 1)
    assert diff_tables.c0 == Fraction(13, 14)
    assert diff_tables.c1 == Fraction(216, 7)


def test_criterion_10_asymptotics():
    start = time.perf_counter()
    with mpmath.workdps(200):
        target = mpmath.mpf(16) / 27
        for alpha in (HALF, Fraction(1), Fraction(2)):
            errors = [abs(closedform.log_ratio(alpha, k, 200) - target)
                      for k in (10, 100, 1000, 10 ** 4)]
            assert errors[-1] < mpmath.mpf("1e-3")
            assert errors[0] > errors[1] > errors[2] > errors[3]
    assert time.perf_counter() - start < 30.0


def test_criterion_11_proportion_identities():
    assert closedform.sep_prob(1, 1) == Fraction(61, 143)
    assert Fraction(45, 286) / closedform.sep_prob(1, 1) == Fraction(45, 122)
    assert closedform.sep_prob(HALF, 1) == Fraction(515, 768)
    assert Fraction(281, 1024) / closedform.sep_prob(HALF, 1) == \
        Fraction(843, 2060)
    assert closedform.sep_prob(2, 1) == Fraction(3736, 22287)
    assert Fraction(2056, 37145) / closedform.sep_prob(2, 1) == \
        Fraction(771, 2335)


def test_criterion_12_reconstruction_guarantee():
    rng = random.Random(1203)
    for _ in range(150):
        bound = rng.choice([7, 31, 146, 999, 1000])
        x = Fraction(rng.randrange(-10 ** 6, 10 ** 6),
                     rng.randrange(1, 10 ** 6))
        # radius 1 covers the best approximation: an integer lies within 1/2
        assert recon.reconstruct(x, 1, bound).value == \
            oracles.best_rational_scan(x, bound)
    for _ in range(10 ** 4):
        q = rng.randrange(1, 10 ** 4 + 1)
        p = rng.randrange(0, q + 1)
        delta = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 5), 10 ** 9)
        guess = recon.reconstruct(Fraction(p, q) + delta, 2 * abs(delta),
                                  10 ** 4)
        assert guess.value == Fraction(p, q)
