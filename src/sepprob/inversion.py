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
changes how the value is reported: correctly rounded once to the requested
number of digits.  The A_i stay exact Fractions in every mode.

The exact evaluator below sums the B rows in scaled-integer form (no
per-entry gcd) by one backward Clenshaw pass per truncation order, at that
order's common scale.  The pass runs in y' = (q/p) y with c0 = p/q, where
p + q y = p (1 + y'), so each coefficient step takes two products of a
big integer by a small one; the power step of the A_i becomes c1 q/p
(when c0 = 0 the factor is q y and the pass stays in y).  The
integer g weights come from a forward pass that divides each one by the
part of j + 2a + 1 it is exactly divisible by (one small gcd per order),
so the common scale V_m = (2a+1) q^m Q^(m-1) m! prod_j (j+2a+1)/f_j
carries only what that division leaves behind, about 7.9k bits at
m = 500 where the undivided weights needed 11.6k.

The bank is content-scaled: all A_i are written over one denominator,
and one gcd of it with every numerator leaves integers an_i over the lcm
of the reduced denominators (4.1k bits at m = 500).  No Fraction is
built per coefficient; TailEstimate.coeffs reduces them once per bank,
on first access.  Every bank is kept per (interval, w, zeta, order), so
further scenarios on the same interval and repeated orders cost only the
dot product; the A_i do not depend on the moments at all.  The dot
product is one integer sum of the an_i against the moments at their
common denominator, reduced once.  Orders are independent of each other:
there is no resumable state, and they may be asked for in any sequence.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple, Union

import mpmath
from mpmath.libmp import dps_to_prec, from_rational, round_nearest

from .errors import DomainError
from .exactnum import RationalLike, as_rational, is_order
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

    bank holds the exact A_i over their common scale, shared by every
    estimate of the same interval, weight, cut point and order; coeffs
    are those A_i as reduced Fractions in every mode, built once per bank
    on first access.  In float mode value is the exact one rounded to
    precision digits; in exact mode it is a Fraction and precision is
    None.
    """

    scenario: Scenario
    method: str
    alpha_w: int
    m: int
    mode: str
    precision: Optional[int]
    value: Union[Fraction, mpmath.mpf]
    bank: _Bank = dataclasses.field(repr=False)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The exact A_i as reduced Fractions."""
        return self.bank.coeffs


def _map_constants(lo: Fraction, hi: Fraction) -> Tuple[Fraction, Fraction]:
    if not lo < hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    return -(lo + hi) / (hi - lo), 2 / (hi - lo)


def _check_weight(alpha_w: int) -> int:
    if not is_order(alpha_w):
        raise DomainError(
            f"weight exponent must be a nonnegative integer, got {alpha_w!r}")
    return alpha_w


def _check_xi(interval: Tuple[Fraction, Fraction],
              xi: RationalLike) -> Fraction:
    lo, hi = interval
    xi = as_rational(xi)
    if not lo <= xi <= hi:
        raise DomainError(f"xi={xi} outside support [{lo}, {hi}]")
    return xi


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
# Exact coefficient bank
# ---------------------------------------------------------------------------

def _scaled_sums(c0: Fraction, a: int, zeta: Fraction,
                 m: int) -> Tuple[List[int], int]:
    """S_0..S_m at the common scale V of order m >= 1, as (shat, V), in
    the variable y' = (q/p) y, or in y itself when c0 = 0.

    Scales chosen so every recurrence stays in big ints, with c0 = p/q and
    zeta = P/Q:
      B row j   N_j = B_j * q^j * (2a+1)_j
      g_j       H_j = g_j * Q^(j-1) * prod_{i=2..j} r_i,
    where r_i = (i + 2a + 1) / f_i is the part of i + 2a + 1 that the
    weights keep.  The g_j obey (j+2a+1) g_j = (2j+2a-1) zeta g_{j-1}
    - (j-2) g_{j-2}, so

      f_j H_j = (2j+2a-1) P H_{j-1} - (j-2) Q^2 r_{j-1} H_{j-2},

    and f_j = gcd(right-hand side, j + 2a + 1) makes the division exact
    by construction: the factor prod (i + 2a + 1), which the plain
    integer weights would carry, enters the scale only where a step
    leaves some of it behind.
    Since 1/eta_j = (2a+1)_j (2j+2a+1) / (j! (2a+1)), row j adds
    u_j N_j(y) / V_j to S(y) = sum_i S_i y^i, with u_j = H_j (2j+2a+1)
    and V_j = (2a+1) q^j Q^(j-1) j! prod_{i=2..j} r_i.
    The rows obey

      N_j = (2j+2a-1) (p + q y) N_{j-1} - q^2 (j-1) (j-1+2a) N_{j-2},

    so S(y) V_m = b_0(y) by Clenshaw's backward recurrence

      b_j = u_j V_m / V_j + (2j+2a+1) (p + q y) b_{j+1}
            - q^2 (j+1) (j+1+2a) b_{j+2}.

    In y' the factor p + q y is p (1 + y'), so each coefficient of b_j
    costs two products of a big integer by a small one,
    (2j+2a+1) p (b_{j+1}[i] + b_{j+1}[i-1]) - q^2 (j+1) (j+1+2a) b_{j+2}[i],
    and only the constant term takes a full-width one.  When c0 = 0 the
    factor is q y, a single product, and the pass stays in y.
    """
    p, q = c0.numerator, c0.denominator
    P, Q = zeta.numerator, zeta.denominator
    # forward pass for u_j and r_j
    u = [0, 2 * a + 3]
    r = [1, 1]
    h_prev, h = 0, 1
    for j in range(2, m + 1):
        rhs = ((2 * j + 2 * a - 1) * P * h
               - (j - 2) * Q * Q * r[j - 1] * h_prev)
        f = math.gcd(rhs, j + 2 * a + 1)
        h_prev, h = h, rhs // f
        r.append((j + 2 * a + 1) // f)
        u.append(h * (2 * j + 2 * a + 1))
    # backward pass at scale = V_m / V_j; row 0 carries no weight (u_0 = 0)
    b1: List[int] = []
    b2: List[int] = []
    scale = 1
    for j in range(m, -1, -1):
        lead = (2 * j + 2 * a + 1) * (p or q)
        drag = q * q * (j + 1) * (j + 1 + 2 * a)
        if p:
            b = [lead * (x + y) - drag * z
                 for x, y, z in zip(b1 + [0], [0] + b1, b2 + [0, 0])]
        else:
            b = [lead * y - drag * z for y, z in zip([0] + b1, b2 + [0, 0])]
        b[0] += u[j] * scale
        if j > 1:
            scale *= Q * q * j * r[j]     # V_j / V_{j-1}
        b1, b2 = b, b1
    return b1, (2 * a + 1) * q * scale


@dataclass(frozen=True)
class _Bank:
    """A_0..A_m of one order as integers over one scale: A_i = an[i] / scale,
    where scale is the lcm of the reduced denominators of the A_i."""

    an: Tuple[int, ...]
    scale: int

    @functools.cached_property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The A_i as reduced Fractions, built on first access."""
        return tuple(Fraction(n, self.scale) for n in self.an)


def _emit(c0: Fraction, c1: Fraction, a: int, zeta: Fraction,
          m: int) -> _Bank:
    """A_0..A_m of order m from the scaled sums, content-scaled.

    With s = c1 q/p the power step of y' (c1 when c0 = 0), the A_i are
    written as N_i / D over the one denominator D = e_d h_d s_d^m V of
    head = e_n / e_d, q1/h0 = h_n / h_d and s = s_n / s_d.  One gcd g of
    D and all N_i leaves an_i = N_i / g over D / g, which is the lcm of
    the reduced denominators: lcm(D / g_i) = D / gcd(g_i) for divisors
    g_i of D.
    """
    h0 = _h0(a)
    head = _q0(a, zeta) / h0
    if m == 0:
        return _Bank((head.numerator,), head.denominator)
    shat, V = _scaled_sums(c0, a, zeta, m)
    qh = _q1(a, zeta) / h0
    step = c1 / c0 if c0 else c1
    sn, sd = step.numerator, step.denominator
    # N_i = e_d h_n s_n^i s_d^(m-i) shat_i, and N_0 also carries head
    lift = [head.denominator * qh.numerator]
    for _ in range(m):
        lift.append(lift[-1] * sn)
    drop = 1
    for i in range(m, -1, -1):
        lift[i] *= drop * shat[i]
        drop *= sd
    den = head.denominator * qh.denominator * sd ** m * V
    lift[0] += head.numerator * (den // head.denominator)
    g = math.gcd(den, *lift)
    return _Bank(tuple(n // g for n in lift), den // g)


# (c0, c1, w, zeta, m) -> the bank of that order
_BANKS: dict[Tuple[Fraction, Fraction, int, Fraction, int], _Bank] = {}
_BANKS_LOCK = threading.Lock()


def _exact_bank(c0: Fraction, c1: Fraction, alpha_w: int, zeta: Fraction,
                m: int) -> _Bank:
    """A_0..A_m over their common scale, computed once per
    (interval, w, zeta, order)."""
    key = (c0, c1, alpha_w, zeta, m)
    with _BANKS_LOCK:
        if key not in _BANKS:
            _BANKS[key] = _emit(c0, c1, alpha_w, zeta, m)
        return _BANKS[key]


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _check_digits(precision: Optional[int]) -> int:
    """A requested number of decimal digits: the default when None, else
    an int >= 1."""
    if precision is None:
        return DEFAULT_FLOAT_DIGITS
    if isinstance(precision, bool) or not isinstance(precision, int) \
            or precision < 1:
        raise DomainError("precision must be a whole number of digits >= 1, "
                          f"got {precision!r}")
    return precision


def _resolve_mode(mode: str, m: int, precision: Optional[int]):
    digits = _check_digits(precision)
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
    value correctly rounded to `precision` digits; the coefficients stay
    exact.
    """
    alpha_w = _check_weight(alpha_w)
    if not is_order(m):
        raise DomainError(f"truncation order must be an integer >= 0, got {m!r}")
    if len(moments) < m + 1:
        raise DomainError(
            f"need {m + 1} moments, sequence has {len(moments)}")
    xi = _check_xi(moments.scenario.interval, xi)
    c0, c1 = _map_constants(*moments.scenario.interval)
    zeta = c0 + c1 * xi
    mode, precision = _resolve_mode(mode, m, precision)
    bank = _exact_bank(c0, c1, alpha_w, zeta, m)
    # one integer sum at the common denominator, reduced once
    mu = moments.mu[:m + 1]
    mu_scale = math.lcm(*(x.denominator for x in mu))
    total = sum(a * (x.numerator * (mu_scale // x.denominator))
                for a, x in zip(bank.an, mu))
    value = Fraction(total, bank.scale * mu_scale)
    if mode == MODE_FLOAT:
        value = _rounded(value, dps_to_prec(precision))
    return TailEstimate(scenario=moments.scenario, method=METHOD_GEGENBAUER,
                        alpha_w=alpha_w, m=m, mode=mode, precision=precision,
                        value=value, bank=bank)


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
    if not all(map(is_order, orders)):
        raise DomainError("truncation orders must be integers >= 0")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise DomainError("truncation orders must be strictly increasing")
    return orders


def convergence_profile(scenario: Scenario, method: str, xi: RationalLike,
                        m_list: Iterable[int], mode: str = MODE_AUTO,
                        precision: Optional[int] = None,
                        alpha_w: int = 0) -> List[Tuple[int, Union[Fraction, mpmath.mpf]]]:
    """Tail estimates at increasing truncation orders.

    The orders share one moment sequence, computed to the highest of them;
    each order runs its own pass of the coefficient bank.
    """
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
