"""Exact-arithmetic toolkit for separability probabilities of random
induced two-qubit states: determinantal moment formulas, orthogonal-
polynomial tail inversion, closed-form probability evaluation and
rational reconstruction."""

from .closedform import (
    G,
    StructuralPrediction,
    StructureCheck,
    extract_p,
    extract_p_from_values,
    log_ratio,
    sep_prob,
    structural_prediction,
    structure_checks,
)
from .errors import (
    CacheError,
    CacheHeaderError,
    CacheIntegrityError,
    CacheIOError,
    DomainError,
    NoCandidateError,
    PrecisionError,
    SepprobError,
    SingularityError,
    StructureViolation,
)
from .exactnum import (
    as_rational,
    is_half_integer,
    pochhammer,
)
from .inversion import (
    TailEstimate,
    gegenbauer_tail,
    legendre_tail,
)
from .moments import (
    DIFF_INTERVAL,
    PT_INTERVAL,
    MomentSequence,
    Scenario,
    Variable,
    diff_moment,
    moment_sequence,
    pt_moment,
)
from .recon import (
    Confidence,
    RationalGuess,
    reconstruct,
)

__version__ = "0.1.0"
