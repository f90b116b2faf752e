"""The record classes: construction, defaults, equality, repr, immutability
and copies, for every result and parameter record of the package."""

import copy
import pickle
from fractions import Fraction

import pytest

from sepprob import closedform
from sepprob.closedform import StructuralPrediction, StructureCheck, \
    _ClosedForm, extract_p, structural_prediction, structure_checks
from sepprob.errors import DomainError
from sepprob.inversion import TailEstimate, _Bank, gegenbauer_tail, \
    legendre_tail
from sepprob.moments import Scenario, Variable, moment_sequence
from sepprob.recon import RationalGuess, reconstruct

# each record class with its fields in order
FIELDS = {
    Scenario: ("variable", "alpha", "k"),
    TailEstimate: ("scenario", "alpha_w", "m", "mode", "precision", "value",
                   "bank"),
    _Bank: ("odd", "twos", "scale"),
    RationalGuess: ("value", "denominator_bound", "residual", "confidence"),
    _ClosedForm: ("const", "shift", "poly", "u", "v", "w"),
    StructuralPrediction: ("alpha", "degree", "leading_coeff", "g1", "g2",
                           "c2", "c2_prime", "c3", "reduced_degree",
                           "half_integer_pochhammer"),
    StructureCheck: ("name", "expected", "actual", "ok"),
}


@pytest.fixture(scope="module")
def samples():
    """One record of each class, as the package builds it; built per
    module, so that no bank outlives these tests."""
    est = legendre_tail(moment_sequence(Scenario("pt", 1, 0), 20), 0, 20)
    checks = structure_checks(structural_prediction(1), extract_p(1))
    return {
        Scenario: Scenario("diff", 2, 1),
        TailEstimate: est,
        _Bank: est.bank,
        RationalGuess: reconstruct("0.333333", "1e-4", 50),
        _ClosedForm: closedform._FORMULAS[Fraction(1)],
        StructuralPrediction: structural_prediction(1),
        StructureCheck: checks[0],
    }


CLASSES = sorted(FIELDS, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_by_position_and_keyword(cls, samples):
    obj = samples[cls]
    values = tuple(getattr(obj, f) for f in FIELDS[cls])
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    for other in (by_position, by_keyword):
        assert type(other) is cls
        assert tuple(getattr(other, f) for f in FIELDS[cls]) == values
        assert other == obj and hash(other) == hash(obj)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{FIELDS[cls][0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, unknown=None)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_immutable(cls, samples):
    obj = samples[cls]
    name = FIELDS[cls][0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.new_attribute = 1
    assert getattr(obj, name) is before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trip(cls, samples):
    obj = samples[cls]
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
        assert type(twin) is cls and twin == obj and hash(twin) == hash(obj)
        assert repr(twin) == repr(obj)


def test_inequality_and_foreign_types():
    s = Scenario("pt", 1, 0)
    assert s != Scenario("pt", 1, 1)
    assert s != (Variable.PT_DET, Fraction(1), Fraction(0))
    check = StructureCheck("degree", 2, 2, True)
    assert check != ("degree", 2, 2, True)
    assert check != StructureCheck("degree", 2, 2, False)


def test_defaults():
    pred = StructuralPrediction(Fraction(1, 2), 1, Fraction(32))
    assert (pred.g1, pred.g2, pred.c2, pred.c2_prime, pred.c3,
            pred.reduced_degree, pred.half_integer_pochhammer) == (None,) * 7
    assert StructuralPrediction(alpha=Fraction(1, 2), degree=1,
                                leading_coeff=Fraction(32), c3=None) == pred
    with pytest.raises(TypeError):
        StructuralPrediction(Fraction(1, 2), 1)


def test_scenario_normalizes_its_fields():
    s = Scenario("pt", "1/2", 0)
    assert s.variable is Variable.PT_DET
    assert type(s.alpha) is Fraction and s.alpha == Fraction(1, 2)
    assert type(s.k) is Fraction and s.k == 0
    same = Scenario(variable=Variable.PT_DET, alpha=Fraction(1, 2),
                    k=Fraction(0))
    assert s == same and hash(s) == hash(same)
    assert {s: "kept"}[same] == "kept"
    assert len({s, same, Scenario("diff", "1/2", 0)}) == 2
    with pytest.raises(DomainError):
        Scenario("pt", "1/3", 0)
    with pytest.raises(DomainError):
        Scenario("pt", 1, "-1/2")


def test_repr_text():
    assert repr(Scenario("pt", "1/2", 0)) == (
        "Scenario(variable=<Variable.PT_DET: 'pt'>, alpha=Fraction(1, 2), "
        "k=Fraction(0, 1))")
    assert repr(reconstruct("0.333333", "1e-4", 50)) == (
        "RationalGuess(value=Fraction(1, 3), denominator_bound=50, "
        "residual=mpf('3.3333333333333333e-7'), "
        "confidence=<Confidence.UNIQUE: 'unique'>)")
    exact = legendre_tail(moment_sequence(Scenario("pt", 1, 0), 3), 0, 3)
    assert repr(exact) == (
        "TailEstimate(scenario=Scenario(variable=<Variable.PT_DET: 'pt'>, "
        "alpha=Fraction(1, 1), k=Fraction(0, 1)), alpha_w=0, m=3, "
        "mode='exact', precision=None, "
        "value=Fraction(32042760600977519, 82389269008405359))")
    rounded = gegenbauer_tail(moment_sequence(Scenario("diff", 2, 1), 4), 1,
                              "-1/100", 4, mode="float", precision=20)
    assert repr(rounded) == (
        "TailEstimate(scenario=Scenario(variable=<Variable.DIFF: 'diff'>, "
        "alpha=Fraction(2, 1), k=Fraction(1, 1)), alpha_w=1, m=4, "
        "mode='float', precision=20, "
        "value=mpf('1.2050754522613627'))")
    assert "bank" not in repr(exact) and "an=" not in repr(rounded)


def test_tail_method_names():
    # legendre_tail names the w = 0 Gegenbauer tail: both build one record
    seq = moment_sequence(Scenario("pt", 1, 0), 30)
    flat = legendre_tail(seq, 0, 30)
    weighted = gegenbauer_tail(seq, 0, 0, 30)
    assert flat == weighted and hash(flat) == hash(weighted)
    assert repr(flat) == repr(weighted) and flat.bank is weighted.bank
