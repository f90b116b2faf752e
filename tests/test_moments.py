"""Unit tests for the determinantal moment families."""

from fractions import Fraction

import pytest

from oracles import diff_moment_oracle, pt_moment_oracle
from sepprob.errors import DomainError
from sepprob.moments import DIFF_INTERVAL, MomentSequence, PT_INTERVAL, \
    Scenario, Variable, diff_moment, moment_sequence, pt_moment

HALF = Fraction(1, 2)


def test_zeroth_moments_are_one():
    for alpha in (HALF, 1, 2):
        assert pt_moment(alpha, 0, 0) == 1
        assert diff_moment(alpha, 3, 0) == 1


def test_pt_moment_spot_values():
    assert pt_moment(1, 0, 1) == Fraction(-7, 3876)
    assert pt_moment(HALF, 0, 1) == Fraction(-1, 858)


def test_diff_moment_spot_values():
    assert diff_moment(1, 0, 1) == Fraction(-2, 969)
    assert diff_moment(1, 0, 2) == Fraction(20, 1716099)
    assert diff_moment(HALF, 0, 1) == Fraction(-1, 624)
    assert diff_moment(HALF, 1, 2) == Fraction(13, 3046400)


def test_first_moments_match_oracle_slopes():
    # the oracle is built from the raw parameter lists; spot-check it
    # against the library on first moments across parities of k
    for alpha in (HALF, 1, 2):
        for k in (0, HALF, 1, 2):
            assert pt_moment(alpha, k, 1) == pt_moment_oracle(alpha, k, 1)
            assert diff_moment(alpha, k, 1) == diff_moment_oracle(alpha, k, 1)


def test_oracle_equivalence_on_degenerate_orders():
    # integer k < n is where the 5F4 terms degenerate to 0/0 limits
    for k in (0, 1, 2):
        for n in range(k + 1, 12):
            assert pt_moment(1, k, n) == pt_moment_oracle(1, k, n)
    assert pt_moment(2, 0, 9) == pt_moment_oracle(2, 0, 9)
    assert pt_moment(HALF, 1, 7) == pt_moment_oracle(HALF, 1, 7)


def test_support_bound():
    # both variables live inside [-1/16, 1/256] or [-1/16, 1/432]
    bound = Fraction(1, 16)
    for variable in Variable:
        seq = moment_sequence(Scenario(variable, Fraction(1), Fraction(0)), 30)
        for n, mu in enumerate(seq.mu):
            assert abs(mu) <= bound ** n


def test_even_moments_positive():
    for variable in Variable:
        seq = moment_sequence(Scenario(variable, HALF, Fraction(1)), 20)
        for n in range(0, 21, 2):
            assert seq.mu[n] > 0


def test_hankel_determinants_nonnegative():
    # moment matrices of a genuine probability measure are positive
    # semidefinite; check the leading 2x2 and 3x3 minors exactly
    for variable in Variable:
        for alpha in (HALF, 1, 2):
            mu = moment_sequence(Scenario(variable, alpha, Fraction(0)), 4).mu
            det2 = mu[0] * mu[2] - mu[1] * mu[1]
            det3 = (mu[0] * (mu[2] * mu[4] - mu[3] * mu[3])
                    - mu[1] * (mu[1] * mu[4] - mu[2] * mu[3])
                    + mu[2] * (mu[1] * mu[3] - mu[2] * mu[2]))
            assert det2 > 0
            assert det3 > 0


def test_moment_sequence_matches_oracle():
    # the memoized batch path every tail estimate is served from
    oracle = {Variable.PT_DET: pt_moment_oracle,
              Variable.DIFF: diff_moment_oracle}
    # k = n - 1 puts both vanishing 5F4 factors in one step, and the two
    # parities of k + n put the bottom zero in either factor of the
    # (x)_(2j) pair
    for variable in Variable:
        for alpha in (HALF, 1, Fraction(3, 2), 2):
            for k in (0, HALF, 1, 2, 3, 5):
                seq = moment_sequence(Scenario(variable, Fraction(alpha),
                                               Fraction(k)), 12)
                assert seq.mu == tuple(oracle[variable](alpha, k, n)
                                       for n in range(13))


def test_parameter_validation():
    with pytest.raises(DomainError):
        pt_moment(Fraction(1, 3), 0, 1)
    with pytest.raises(DomainError):
        pt_moment(0, 0, 1)
    with pytest.raises(DomainError):
        diff_moment(1, -1, 1)
    with pytest.raises(DomainError):
        diff_moment(1, Fraction(1, 4), 1)
    with pytest.raises(DomainError):
        pt_moment(1, 0, -1)
    with pytest.raises(DomainError):
        pt_moment(1, 0, 2.0)
    with pytest.raises(DomainError):
        pt_moment(1, 0, True)


def test_scenario_coercion_and_interval():
    s = Scenario(variable="pt", alpha="1/2", k="3/2")
    assert s.variable is Variable.PT_DET
    assert s.alpha == HALF and s.k == Fraction(3, 2)
    assert s.interval == PT_INTERVAL
    assert Scenario(Variable.DIFF, Fraction(1), Fraction(0)).interval == DIFF_INTERVAL
    with pytest.raises(DomainError):
        Scenario(Variable.PT_DET, Fraction(1, 3), Fraction(0))


def test_moment_sequence_shape_and_memo_extension():
    s = Scenario(Variable.DIFF, Fraction(2), Fraction(1))
    seq5 = moment_sequence(s, 5)
    assert len(seq5) == 6 and seq5.order == 5
    assert seq5.mu[0] == 1
    seq8 = moment_sequence(s, 8)
    assert seq8.mu[:6] == seq5.mu
    # shrinking requests replay the memo without truncating it
    assert moment_sequence(s, 3).mu == seq5.mu[:4]
    assert moment_sequence(s, 8).mu == seq8.mu


def test_moment_sequence_validation():
    s = Scenario(Variable.PT_DET, Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        moment_sequence(s, -1)
    with pytest.raises(DomainError):
        moment_sequence(s, "5")
    with pytest.raises(DomainError):
        moment_sequence(s, True)


def test_moment_sequence_dataclass_validation():
    s = Scenario(Variable.PT_DET, Fraction(1), Fraction(0))
    with pytest.raises(DomainError):
        MomentSequence(s, ())
    with pytest.raises(DomainError):
        MomentSequence(s, (Fraction(2),))
