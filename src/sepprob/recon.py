"""Recovery of exact rationals from high-precision decimal approximants.

A moment-based tail estimate that agrees with some p/q "to N decimal
places" only supports the claim P = p/q if no other small-denominator
rational sits inside the error window.  reconstruct makes that inference
explicit: it finds the best rational approximation under a denominator
bound (Fraction.limit_denominator), then decides uniqueness by
checking that both Farey neighbors of the candidate fall strictly outside
[x - eps, x + eps].  The neighbors are the closest bounded-denominator
rationals on either side, so no exhaustive scan is needed.
"""

from __future__ import annotations

import decimal
import enum
from fractions import Fraction
from typing import Optional, Tuple, Union

import mpmath

from .errors import DomainError, NoCandidateError
from .exactnum import Record

DEFAULT_BOUND = 10 ** 7

ApproxLike = Union[Fraction, int, float, str, decimal.Decimal, mpmath.mpf]


class Confidence(enum.Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"


class RationalGuess(Record):
    value: Fraction
    denominator_bound: int
    residual: mpmath.mpf
    confidence: Confidence


def _exact_value(x: ApproxLike, what: str = "approximant"
                 ) -> Tuple[Fraction, Optional[Fraction]]:
    """Exact rational reading of x plus the default error radius, if any;
    what names x in the errors.

    Decimal renderings (str, Decimal, float via its shortest repr) carry a
    last reported digit, and the default radius is ten units of it.  Exact
    rationals and binary big floats have no such digit, so they get no
    default and the caller must state a radius.
    """
    if isinstance(x, bool):
        raise DomainError(f"not a numeric {what}: {x!r}")
    if isinstance(x, Fraction):
        return x, None
    if isinstance(x, int):
        return Fraction(x), None
    if isinstance(x, mpmath.mpf):
        if not mpmath.isfinite(x):
            raise DomainError(f"{what} must be finite, got {x}")
        sign, man, exp, _ = x._mpf_
        val = Fraction(man) * Fraction(2) ** exp
        return (-val if sign else val), None
    if isinstance(x, float):
        x = repr(x)
    if isinstance(x, str):
        try:
            x = decimal.Decimal(x)
        except decimal.InvalidOperation as exc:
            raise DomainError(f"unparseable {what}: {x!r}") from exc
    if isinstance(x, decimal.Decimal):
        if not x.is_finite():
            raise DomainError(f"{what} must be finite, got {x}")
        exponent = x.as_tuple().exponent
        return Fraction(x), Fraction(10) ** (exponent + 1)
    raise DomainError(f"not a numeric {what}: {x!r}")


def _check_bound(bound: int) -> int:
    """A denominator bound: an int >= 1, bool refused."""
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise DomainError(
            f"denominator bound must be an integer >= 1, got {bound!r}")
    return bound


def _check_radius(radius: ApproxLike) -> Fraction:
    """A stated error radius as an exact positive rational."""
    eps = _exact_value(radius, "error radius")[0]
    if eps <= 0:
        raise DomainError(f"error radius must be positive, got {eps}")
    return eps


def _farey_neighbors(value: Fraction, bound: int) -> Tuple[Fraction, Fraction]:
    """The adjacent fractions on both sides of value in the Farey set F_bound."""
    p, q = value.numerator, value.denominator
    if q == 1:
        return Fraction(p * bound - 1, bound), Fraction(p * bound + 1, bound)
    inv = pow(p % q, -1, q)
    s_left = inv % q
    s_left += ((bound - s_left) // q) * q
    s_right = (-inv) % q
    s_right += ((bound - s_right) // q) * q
    return (Fraction((p * s_left - 1) // q, s_left),
            Fraction((p * s_right + 1) // q, s_right))


def reconstruct(x: ApproxLike, error_radius: Optional[ApproxLike] = None,
                denominator_bound: int = DEFAULT_BOUND) -> RationalGuess:
    """Best bounded-denominator rational within error_radius of x.

    Raises NoCandidateError when even the best approximation misses the
    window.  The result is Unique exactly when no other rational under the
    bound lies within the window, by the Farey neighbor criterion.
    """
    _check_bound(denominator_bound)
    xf, eps = _exact_value(x)
    if error_radius is not None:
        eps = _check_radius(error_radius)
    elif eps is None:
        raise DomainError(
            "input carries no decimal rendering; an explicit error "
            "radius is required")
    # the best approximation under the bound, ties to the smaller denominator
    cand = xf.limit_denominator(denominator_bound)
    dist = abs(xf - cand)
    if dist > eps:
        raise NoCandidateError(
            f"no rational with denominator <= {denominator_bound} lies "
            f"within {eps} of the approximant (best miss: {cand})")
    left, right = _farey_neighbors(cand, denominator_bound)
    unique = left < xf - eps and xf + eps < right
    with mpmath.mp.workdps(30):
        residual = mpmath.mpf(dist.numerator) / dist.denominator
    return RationalGuess(value=cand, denominator_bound=denominator_bound,
                         residual=residual,
                         confidence=Confidence.UNIQUE if unique
                         else Confidence.AMBIGUOUS)
