"""Tail-probability reconstruction from truncated moment sequences.

The density f on [a, b] is expanded in orthogonal polynomials for the weight
(1 - t^2)^w after mapping t = c0 + c1 x with c0 = -(a+b)/(b-a),
c1 = 2/(b-a).  Writing the normalized Gegenbauer polynomials (value 1 at
t = 1) around the point c0,

    P_j(c0 + y) = sum_i B[j][i] y^i,

the tail integral over [xi, b] becomes a plain linear functional of the
moments,

    Pr{X > xi} ~= sum_i A_i mu_i,
    A_0 = q0/h0 + (q1/h0) sum_j (g_j / eta_j) B[j][0],
    A_i = c1^i (q1/h0) sum_{j>=i} (g_j / eta_j) B[j][i],

where h_j = h0 eta_j are the structure constants, q_j = q1 g_j the partial
weight integrals from zeta = c0 + c1 xi to 1, and g_j the degree-(j-1)
polynomials of the shifted weight evaluated at zeta.  w = 0 is the Legendre
case.  All quantities are rational when the interval, w and xi are rational,
so the truncated tail estimate is always computed exactly.  Float mode only
changes how the result is reported: the exact value and the exact A_i, each
correctly rounded once to the requested number of digits.

The exact evaluator below streams the B rows in scaled-integer form (one
big-int row per degree, no per-entry gcd) and keeps the accumulated sums
S_i at a common running scale, reducing to Fractions only when a truncation
order is emitted.  One stream is kept per (interval, w, zeta), with every
vector it has emitted, so increasing truncation orders and further
scenarios on the same interval reuse all previous rows; the A_i do not
depend on the moments at all.  A stream only moves forward: an order below
the one it has reached, and not emitted before, restarts it from row 0.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

import mpmath
from mpmath.libmp import dps_to_prec, from_rational, round_nearest

from .errors import DomainError
from .exactnum import RationalLike, as_rational, check_digits
from .moments import MomentSequence, Scenario, moment_sequence

METHOD_LEGENDRE = "legendre"
METHOD_GEGENBAUER = "gegenbauer"

MODE_EXACT = "exact"
MODE_FLOAT = "float"
MODE_AUTO = "auto"

# the automatic mode reports an exact rational up to this truncation order
# and the exact value rounded to this many digits past it
AUTO_EXACT_LIMIT = 500
DEFAULT_FLOAT_DIGITS = 300


@dataclass(frozen=True)
class TailEstimate:
    """A truncated tail reconstruction sum_i A_i mu_i.

    In float mode value and coeffs are the exact ones rounded to precision
    digits; in exact mode they are Fractions and precision is None.
    """

    scenario: Scenario
    method: str
    alpha_w: int
    m: int
    mode: str
    precision: Optional[int]
    value: Union[Fraction, mpmath.mpf]
    coeffs: Tuple[Union[Fraction, mpmath.mpf], ...]


def _map_constants(lo: Fraction, hi: Fraction) -> Tuple[Fraction, Fraction]:
    if not lo < hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    return -(lo + hi) / (hi - lo), 2 / (hi - lo)


def _check_weight(alpha_w: int) -> int:
    if isinstance(alpha_w, bool) or not isinstance(alpha_w, int) or alpha_w < 0:
        raise DomainError(
            f"weight exponent must be a nonnegative integer, got {alpha_w!r}")
    return alpha_w


def _h0(a: int) -> Fraction:
    # Gamma(1/2) Gamma(a+1) / Gamma(a+3/2) = a! 2^(a+1) / (1*3*...*(2a+1))
    return Fraction(math.factorial(a) * 2 ** (a + 1),
                    math.prod(range(1, 2 * a + 2, 2)))


def _q0(a: int, zeta: Fraction) -> Fraction:
    # integral of (1-t^2)^a over [zeta, 1], expanded binomially
    return sum((Fraction(math.comb(a, r) * (-1) ** r, 2 * r + 1)
                * (1 - zeta ** (2 * r + 1))) for r in range(a + 1))


def _q1(a: int, zeta: Fraction) -> Fraction:
    return (1 - zeta * zeta) ** (a + 1) / (2 * (a + 1))


# ---------------------------------------------------------------------------
# Exact coefficient streaming
# ---------------------------------------------------------------------------

class _ExactCoeffStream:
    """Resumable scaled-integer stream of the A coefficient vectors.

    Scales chosen so every recurrence stays in big ints:
      B row n       scaled by D_n = q^n * prod_{i=1..n} (i + 2a)
      g_n           scaled by E_n = Q^(n-1) * prod_{i=2..n} (i + 2a + 1)
      accumulators  at V_j = E_j * j! * (2a+1) * D_j
    with c0 = p/q and zeta = P/Q.  A row's contribution to S_i is
    u * N[j][i] / V_j with u = Ghat_j * (2a+1)_j * (2j + 2a + 1), because
    (g_j / eta_j) B[j][i] expands to exactly that after inserting the three
    scale factors.
    """

    def __init__(self, c0: Fraction, c1: Fraction, alpha_w: int,
                 zeta: Fraction) -> None:
        self.a, self.c1 = alpha_w, c1
        self.p, self.q = c0.numerator, c0.denominator
        self.P, self.Q = zeta.numerator, zeta.denominator
        self.h0 = _h0(alpha_w)
        self.q0 = _q0(alpha_w, zeta)
        self.q1 = _q1(alpha_w, zeta)
        self.j = 0
        self.shat: List[int] = [0]
        self.V: Optional[int] = None
        self._nprev: List[int] = [1]
        self._ncur: List[int] = []
        self._ghat_prev: Optional[int] = None
        self._ghat_cur: Optional[int] = None
        self._poch = 1            # (2a+1)_j

    def _advance_row(self) -> None:
        a, p, q, P, Q = self.a, self.p, self.q, self.P, self.Q
        j = self.j + 1
        if j == 1:
            self._ncur = [p * (1 + 2 * a), q * (1 + 2 * a)]
            self._ghat_cur = 1
            self._poch = 1 + 2 * a
            self.V = (2 * a + 1) * q * (1 + 2 * a)
        else:
            prev, prev2 = self._ncur, self._nprev
            lead = 2 * j + 2 * a - 1
            drag = q * q * (j - 1) * (j - 1 + 2 * a)
            row = []
            for i in range(j + 1):
                t = p * prev[i] if i <= j - 1 else 0
                if i >= 1:
                    t += q * prev[i - 1]
                t *= lead
                if i <= j - 2:
                    t -= drag * prev2[i]
                row.append(t)
            self._nprev, self._ncur = prev, row
            if j == 2:
                self._ghat_prev, self._ghat_cur = self._ghat_cur, P * (2 * a + 3)
            else:
                self._ghat_prev, self._ghat_cur = self._ghat_cur, (
                    (2 * j + 2 * a - 1) * P * self._ghat_cur
                    - (j - 2) * (j + 2 * a) * Q * Q * self._ghat_prev)
            self._poch *= 2 * a + j
            ratio = Q * (j + 2 * a + 1) * j * q * (j + 2 * a)
            self.V *= ratio
            for i in range(j):
                self.shat[i] *= ratio
        u = self._ghat_cur * self._poch * (2 * j + 2 * a + 1)
        self.shat.append(0)
        for i in range(j + 1):
            self.shat[i] += u * self._ncur[i]
        self.j = j

    def _emit(self) -> Tuple[Fraction, ...]:
        qh = self.q1 / self.h0
        if self.j == 0:
            return (self.q0 / self.h0,)
        out = [self.q0 / self.h0 + qh * Fraction(self.shat[0], self.V)]
        ci = Fraction(1)
        for i in range(1, self.j + 1):
            ci *= self.c1
            out.append(ci * qh * Fraction(self.shat[i], self.V))
        return tuple(out)


# (c0, c1, w, zeta) -> the stream and the vectors it has emitted, by order
_BANKS: dict[Tuple[Fraction, Fraction, int, Fraction],
             Tuple[_ExactCoeffStream, dict[int, Tuple[Fraction, ...]]]] = {}
_BANKS_LOCK = threading.Lock()


def _exact_coeffs(c0: Fraction, c1: Fraction, alpha_w: int, zeta: Fraction,
                  m: int) -> Tuple[Fraction, ...]:
    """A_0..A_m: advance the stream to m, then emit."""
    key = (c0, c1, alpha_w, zeta)
    with _BANKS_LOCK:
        stream, emitted = _BANKS.get(key, (None, {}))
        if m not in emitted:
            if stream is None or stream.j > m:
                stream = _ExactCoeffStream(c0, c1, alpha_w, zeta)
                _BANKS[key] = stream, emitted
            while stream.j < m:
                stream._advance_row()
            emitted[m] = stream._emit()
        return emitted[m]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _resolve_mode(mode: str, m: int, precision: Optional[int]):
    digits = check_digits(precision, DEFAULT_FLOAT_DIGITS)
    if mode == MODE_AUTO:
        mode = MODE_EXACT if m <= AUTO_EXACT_LIMIT else MODE_FLOAT
    if mode == MODE_EXACT:
        return MODE_EXACT, None
    if mode == MODE_FLOAT:
        return MODE_FLOAT, digits
    raise DomainError(f"unknown mode {mode!r}")


def _rounded(x: Fraction, bits: int) -> mpmath.mpf:
    """x correctly rounded (half to even) to a bits-bit mantissa."""
    return mpmath.mp.make_mpf(
        from_rational(x.numerator, x.denominator, bits, round_nearest))


def gegenbauer_tail(moments: MomentSequence, alpha_w: int, xi: RationalLike,
                    m: int, mode: str = MODE_AUTO,
                    precision: Optional[int] = None) -> TailEstimate:
    """Truncated tail estimate Pr{X > xi} from mu_0..mu_m.

    The estimate is always computed exactly.  Float mode reports the exact
    value and coefficients correctly rounded to `precision` digits.
    """
    alpha_w = _check_weight(alpha_w)
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"truncation order must be an integer >= 0, got {m!r}")
    if len(moments) < m + 1:
        raise DomainError(
            f"need {m + 1} moments, sequence has {len(moments)}")
    lo, hi = moments.scenario.interval
    xi = as_rational(xi)
    if not lo <= xi <= hi:
        raise DomainError(f"xi={xi} outside support [{lo}, {hi}]")
    c0, c1 = _map_constants(lo, hi)
    zeta = c0 + c1 * xi
    mode, precision = _resolve_mode(mode, m, precision)
    A = _exact_coeffs(c0, c1, alpha_w, zeta, m)
    value = Fraction(0)
    for i in range(m + 1):
        value += A[i] * moments.mu[i]
    if mode == MODE_FLOAT:
        bits = dps_to_prec(precision)
        value = _rounded(value, bits)
        A = tuple(_rounded(a, bits) for a in A)
    return TailEstimate(scenario=moments.scenario, method=METHOD_GEGENBAUER,
                        alpha_w=alpha_w, m=m, mode=mode, precision=precision,
                        value=value, coeffs=A)


def legendre_tail(moments: MomentSequence, xi: RationalLike, m: int,
                  mode: str = MODE_AUTO,
                  precision: Optional[int] = None) -> TailEstimate:
    """The flat-weight (w = 0) tail estimate, the primary instrument here.

    Identical by definition to gegenbauer_tail with alpha_w = 0; exposed on
    its own and reported under its own method name.
    """
    return dataclasses.replace(
        gegenbauer_tail(moments, 0, xi, m, mode, precision),
        method=METHOD_LEGENDRE)


def _check_orders(orders: List[int]) -> List[int]:
    if any(not isinstance(m, int) or m < 0 for m in orders):
        raise DomainError("truncation orders must be integers >= 0")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise DomainError("truncation orders must be strictly increasing")
    return orders


def convergence_profile(scenario: Scenario, method: str, xi: RationalLike,
                        m_list: Iterable[int], mode: str = MODE_AUTO,
                        precision: Optional[int] = None,
                        alpha_w: int = 0) -> List[Tuple[int, Union[Fraction, mpmath.mpf]]]:
    """Tail estimates at increasing truncation orders, sharing all tables."""
    orders = _check_orders(list(m_list))
    if method == METHOD_LEGENDRE:
        alpha_w = 0
    elif method != METHOD_GEGENBAUER:
        raise DomainError(f"unknown method {method!r}")
    if not orders:
        return []
    moments = moment_sequence(scenario, orders[-1])
    return [(m, gegenbauer_tail(moments, alpha_w, xi, m, mode,
                                precision).value) for m in orders]
