"""Closed-form separability probabilities and their polynomial structure.

Three cases have known closed forms, indexed by the Dyson-like parameter
alpha: 1/2 (real), 1 (complex), 2 (quaternionic).  Each complementary
probability F(alpha, k) = 1 - P(alpha, k) is a ratio of gamma values at
integer and half-integer points times a polynomial in the induced-measure
index k, so P is an exact rational for every integer k and the sqrt(pi)
factors must cancel identically (this module checks that from the gamma
arguments rather than assuming it).

Beyond plain evaluation the module exposes the scaffolding common to all
three formulas: the gamma kernel G(alpha, k), the polynomial p_alpha with
F = p * G (integer alpha) or F = p / (k + 2 alpha + 1)_{alpha + 1/2} * G
(half-integer alpha), predictions for p's degree, leading and next-order
coefficients, and a check of the extracted polynomial against those
predictions.  G is one more instance of the shape every F has (constant 1,
no shift, polynomial 1), so one exact and one log-domain evaluator serve
the three formulas and the kernel.  The log-domain one covers the large-k
regime, where F underflows anything but a big float and the ratio
log P_{k+1} / log P_k approaches 16/27.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import mpmath

from .errors import DomainError, PrecisionError, SingularityError, \
    StructureViolation
from .exactnum import RationalLike, Record, as_rational, check_alpha, \
    horner, pochhammer

HALF = Fraction(1, 2)


def _gamma_rational(x: Fraction) -> Fraction:
    """Gamma(x) at a positive half-integer x without its sqrt(pi): the
    rational part, pi^(-1/2) Gamma(x) when x is half-odd."""
    # Gamma(x) = (b)_(x-b) Gamma(b) with b = 1 or 1/2, Gamma(1/2) = sqrt(pi)
    base = Fraction(1, x.denominator)
    return pochhammer(base, int(x - base))


class _ClosedForm(Record):
    """const * 4^(k+shift) * poly(k) * G(k+u) G(2k+v) / (sqrt(pi) G(3k+w)).

    The shape of every complement F(alpha, k) = 1 - P(alpha, k) and of the
    kernel G(alpha, k).  `exact` evaluates it as a rational and `log` its
    logarithm at the ambient mpmath precision.  A k that puts a gamma
    argument at or below 0 raises `pole`: SingularityError unless the
    caller names another error.  Gamma at a half-odd point carries one
    sqrt(pi), so the value is rational for every integer k exactly when
    one more of u, v than of w is half-odd; construction refuses any
    other u, v, w with DomainError.
    """

    const: Fraction
    shift: int
    poly: Tuple[int, ...]          # ascending coefficients, all positive
    u: Fraction
    v: Fraction
    w: Fraction

    def __post_init__(self) -> None:
        half_odd = [x.denominator == 2 for x in (self.u, self.v, self.w)]
        if half_odd[0] + half_odd[1] != half_odd[2] + 1:
            raise DomainError(
                f"sqrt(pi) does not cancel for u={self.u}, v={self.v}, "
                f"w={self.w}")

    def _gamma_args(self, k: int, pole=SingularityError):
        args = (k + self.u, 2 * k + self.v, 3 * k + self.w)
        for arg in args:
            if arg <= 0:
                raise pole(f"gamma argument {arg} <= 0 at k={k}")
        return args

    def exact(self, k: int, pole=SingularityError) -> Fraction:
        gu, gv, gw = map(_gamma_rational, self._gamma_args(k, pole))
        return (self.const * Fraction(4) ** (k + self.shift)
                * horner(self.poly, k) * gu * gv / gw)

    def log(self, k: int) -> mpmath.mpf:
        au, av, aw = (mpmath.mpf(a.numerator) / a.denominator
                      for a in self._gamma_args(k))
        return (mpmath.log(mpmath.mpf(self.const.numerator)
                           / self.const.denominator)
                + (k + self.shift) * mpmath.log(4)
                + mpmath.log(horner(self.poly, k))
                + mpmath.loggamma(au) + mpmath.loggamma(av)
                - mpmath.log(mpmath.pi) / 2 - mpmath.loggamma(aw))


_FORMULAS: Dict[Fraction, _ClosedForm] = {
    HALF: _ClosedForm(Fraction(1), 1, (15, 8),
                      Fraction(2), Fraction(9, 2), Fraction(7)),
    Fraction(1): _ClosedForm(Fraction(3), 3, (25, 14, 2),
                             Fraction(7, 2), Fraction(9), Fraction(13)),
    Fraction(2): _ClosedForm(Fraction(1, 3), 6, (2430, 1452, 355, 42, 2),
                             Fraction(13, 2), Fraction(15), Fraction(22)),
}

DEFAULT_LOG_DIGITS = 200
ASYMPTOTE = Fraction(16, 27)


def _check_alpha_case(alpha: RationalLike) -> Fraction:
    alpha = as_rational(alpha)
    if alpha not in _FORMULAS:
        raise DomainError(
            f"no closed form for alpha={alpha}; supported: 1/2, 1, 2")
    return alpha


def sep_prob(alpha: RationalLike, k: int) -> Fraction:
    """Separability probability 1 - F(alpha, k), exactly.

    k may be any integer >= -2 whose gamma arguments stay positive; the
    one excluded point is (alpha, k) = (1/2, -2), where the formula hits
    Gamma(0).
    """
    alpha = _check_alpha_case(alpha)
    if isinstance(k, bool) or not isinstance(k, int):
        raise DomainError(f"k must be an integer, got {k!r}")
    if k < -2:
        raise DomainError(f"k must be >= -2, got {k}")
    return 1 - _FORMULAS[alpha].exact(k)


def G(alpha: RationalLike, k: int) -> Fraction:
    """The gamma kernel 4^k G(k+3a+3/2) G(2k+5a+2) / (G(1/2) G(3k+10a+2))."""
    alpha = check_alpha(alpha)
    if isinstance(k, bool) or not isinstance(k, int):
        raise DomainError(f"k must be an integer, got {k!r}")
    kernel = _ClosedForm(Fraction(1), 0, (1,), 3 * alpha + Fraction(3, 2),
                         5 * alpha + 2, 10 * alpha + 2)
    return kernel.exact(k, pole=DomainError)


class StructuralPrediction(Record):
    """Predicted shape of p_alpha.

    g1/g2 bound the consecutive linear-factor chain (k+g1)...(k+g2), c2 the
    second coefficient of monic p, c2_prime the sum g1+...+g2, c3 the third
    coefficient of monic p; all four plus reduced_degree apply to integer
    alpha only, and c3 additionally only when alpha is not divisible by 4.
    half_integer_pochhammer is the (k + base)_count correction dividing p
    in the half-integer case.
    """

    alpha: Fraction
    degree: int
    leading_coeff: Fraction
    g1: Optional[int] = None
    g2: Optional[int] = None
    c2: Optional[Fraction] = None
    c2_prime: Optional[Fraction] = None
    c3: Optional[Fraction] = None
    reduced_degree: Optional[int] = None
    half_integer_pochhammer: Optional[Tuple[Fraction, int]] = None


def structural_prediction(alpha: RationalLike) -> StructuralPrediction:
    """Predicted degree, leading and next coefficients of p_alpha."""
    alpha = check_alpha(alpha)
    leading = Fraction(2 ** int(8 * alpha + 1), math.factorial(int(2 * alpha - 1)))
    if alpha.denominator == 2:
        return StructuralPrediction(
            alpha=alpha,
            degree=int(5 * alpha - Fraction(3, 2)),
            leading_coeff=leading,
            half_integer_pochhammer=(2 * alpha + 1, int(alpha + HALF)))
    a = int(alpha)
    g1 = 2 * a + 1 + (a + 1) // 2
    g2 = 3 * a + (a + 1) // 3
    if a % 4 == 0:
        c2 = -4 - a + Fraction(17, 2) * a * a
    else:
        c2 = -3 + Fraction(3, 2) * a + Fraction(17, 2) * a * a
    c2_prime = Fraction((g1 + g2) * (g2 - g1 + 1), 2)
    c3 = None
    if a % 4 != 0:
        c3 = (11 - Fraction(389, 24) * a - Fraction(333, 16) * a ** 2
              + Fraction(115, 48) * a ** 3 + Fraction(289, 8) * a ** 4)
    return StructuralPrediction(
        alpha=alpha,
        degree=4 * a - 2,
        leading_coeff=leading,
        g1=g1, g2=g2, c2=c2, c2_prime=c2_prime, c3=c3,
        reduced_degree=3 * a + (a + 1) // 2 - (a + 1) // 3 - 2)


def extract_p(alpha: RationalLike) -> Tuple[Fraction, ...]:
    """p_alpha as ascending coefficients, by exact interpolation of F/G.

    Samples k = 0..degree plus one witness point; a witness mismatch means
    the predicted degree is wrong for this formula and raises
    StructureViolation rather than returning a bogus polynomial.
    """
    alpha = _check_alpha_case(alpha)
    deg = structural_prediction(alpha).degree
    values = [(k, 1 - _FORMULAS[alpha].exact(k)) for k in range(deg + 2)]
    return extract_p_from_values(alpha, values)


def extract_p_from_values(alpha: RationalLike,
                          sep_probs) -> Tuple[Fraction, ...]:
    """p_alpha interpolated (interpolate_p) from supplied probabilities
    [(k, P(alpha,k))], each read as p_alpha(k) by p_sample."""
    return interpolate_p(alpha, [(kk, p_sample(alpha, kk, as_rational(p)))
                                 for kk, p in sep_probs])


def p_sample(alpha: RationalLike, k: int, prob: Fraction) -> Fraction:
    """p_alpha(k) from P(alpha, k) = prob, by F = p G (module docstring)."""
    base, count = (structural_prediction(alpha).half_integer_pochhammer
                   or (0, 0))
    return (1 - prob) / G(alpha, k) * pochhammer(k + base, count)


def interpolate_p(alpha: RationalLike, values) -> Tuple[Fraction, ...]:
    """p_alpha from its values [(k, p_alpha(k))] at degree+2 or more distinct
    k: degree+1 nodes, then witnesses the interpolant must meet exactly."""
    deg = structural_prediction(alpha).degree
    pairs = [(kk, as_rational(v)) for kk, v in values]
    if len(set(kk for kk, _ in pairs)) != len(pairs):
        raise DomainError("duplicate k samples")
    if len(pairs) < deg + 2:
        raise DomainError(
            f"need {deg + 2} samples for degree {deg} plus a witness, "
            f"got {len(pairs)}")
    nodes, witnesses = pairs[:deg + 1], pairs[deg + 1:]
    coeffs = _interpolate([kk for kk, _ in nodes], [v for _, v in nodes])
    for kk, v in witnesses:
        if horner(coeffs, kk) != v:
            raise StructureViolation(
                f"degree-{deg} interpolant fails at witness k={kk} "
                f"for alpha={alpha}")
    return tuple(coeffs)


def _interpolate(xs: List[int], ys: List[Fraction]) -> List[Fraction]:
    """Newton divided differences, expanded to ascending coefficients."""
    n = len(xs)
    dd = [as_rational(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    poly = [dd[-1]]
    for i in range(n - 2, -1, -1):
        shifted = [Fraction(0)] + poly
        for j in range(len(poly)):
            shifted[j] -= xs[i] * poly[j]
        shifted[0] += dd[i]
        poly = shifted
    return poly


def _deflate(coeffs: List[Fraction], root: Fraction) -> List[Fraction]:
    """Divide by (k - root); the remainder must vanish."""
    desc = list(reversed(coeffs))
    out = [desc[0]]
    for c in desc[1:]:
        out.append(c + root * out[-1])
    if out[-1] != 0:
        raise StructureViolation(f"nonzero remainder dividing by k - {root}")
    return list(reversed(out[:-1]))


class StructureCheck(Record):
    name: str
    expected: object
    actual: object
    ok: bool


def structure_checks(pred: StructuralPrediction,
                     coeffs) -> Tuple[StructureCheck, ...]:
    """The individual prediction-vs-polynomial comparisons.

    The one screen for p_alpha, whether extract_p took it from the
    closed forms or interpolate_p fitted it to pipeline
    approximants.  A check whose coefficient the polynomial lacks
    reports actual None and fails; the zero polynomial raises
    DomainError.
    """
    coeffs = tuple(as_rational(c) for c in coeffs)
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg] == 0:
        deg -= 1
    if deg < 0:
        raise DomainError("the zero polynomial has no structure to check")
    coeffs = coeffs[:deg + 1]

    def below_top(poly, drop: int) -> Optional[Fraction]:
        """The coefficient drop degrees below the top of poly, over the
        top one; None when poly has no such coefficient."""
        top = len(poly) - 1
        return poly[top - drop] / poly[top] if top >= drop else None

    checks = [
        StructureCheck("degree", pred.degree, deg, deg == pred.degree),
        StructureCheck("leading_coeff", pred.leading_coeff, coeffs[deg],
                       coeffs[deg] == pred.leading_coeff),
    ]
    if pred.g1 is not None:
        chain = list(range(pred.g1, pred.g2 + 1))
        divisible = all(horner(coeffs, -i) == 0 for i in chain)
        checks.append(StructureCheck("factor_chain", True, divisible, divisible))
        monic2 = below_top(coeffs, 1)
        checks.append(StructureCheck("monic_second", pred.c2, monic2,
                                     monic2 == pred.c2))
        rdeg = red2 = None              # unknown unless the chain divides
        if divisible:
            reduced = list(coeffs)
            for i in chain:
                reduced = _deflate(reduced, Fraction(-i))
            rdeg, red2 = len(reduced) - 1, below_top(reduced, 1)
        expect = pred.c2 - pred.c2_prime
        checks.append(StructureCheck("reduced_degree", pred.reduced_degree,
                                     rdeg, rdeg == pred.reduced_degree))
        checks.append(StructureCheck("reduced_second", expect, red2,
                                     red2 == expect))
        if pred.c3 is not None:
            monic3 = below_top(coeffs, 2)
            checks.append(StructureCheck("monic_third", pred.c3, monic3,
                                         monic3 == pred.c3))
    return tuple(checks)


def log_ratio(alpha: RationalLike, k: int, precision: int = DEFAULT_LOG_DIGITS) -> mpmath.mpf:
    """log P(alpha, k+1) / log P(alpha, k) via log-gamma.

    F is astronomically small at large k, so both logs are taken as
    log1p(-exp(log F)) with log F assembled from loggamma; big-float
    exponents keep exp(log F) representable at any k.  The a-priori error
    bound 10^(12 - precision) * (1 + |log F_k| + |log F_{k+1}|) must stay
    below 10^-3 and the ratio's distance from 16/27 or the call refuses.
    """
    alpha = _check_alpha_case(alpha)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if not isinstance(precision, int) or precision < 15:
        raise DomainError(f"precision must be an integer >= 15, got {precision!r}")
    with mpmath.mp.workdps(precision):
        lf_k = _FORMULAS[alpha].log(k)
        lf_k1 = _FORMULAS[alpha].log(k + 1)
        bound = mpmath.mpf(10) ** (12 - precision) * (1 + abs(lf_k) + abs(lf_k1))
        value = mpmath.log1p(-mpmath.exp(lf_k1)) / mpmath.log1p(-mpmath.exp(lf_k))
        gap = abs(value - mpmath.mpf(ASYMPTOTE.numerator) / ASYMPTOTE.denominator)
        if bound >= min(mpmath.mpf("1e-3"), gap):
            # nstr writes the whole mantissa out, past str(int)'s limit
            with mpmath.mp.workdps(15):
                raise PrecisionError(
                    f"precision {precision} cannot resolve the ratio at "
                    f"k={k}: error bound {mpmath.nstr(+bound, 3)} >= "
                    f"min(1e-3, {mpmath.nstr(+gap, 3)} from 16/27)")
    return value
