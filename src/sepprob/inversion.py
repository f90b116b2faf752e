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

The exact evaluator below builds the A_i of one truncation order in O(m)
steps, without the B rows.  The A_i are the Taylor coefficients of
S(t) = sum_j (q_j / h_j) P_j(t) at c0, and S obeys the Gegenbauer
differential equation with a right-hand side that the Christoffel-Darboux
formula gives in closed form from P_m and P_{m+1} (Szego, Orthogonal
Polynomials, 1939, sections 3.2 and 4.7).  So four three-term recurrences
in the index i, each run backward in integers with only small multipliers
and exact small divisions, replace the sum over j; the constant term comes
from S at t = 1.  At m = 500 the whole bank takes about 0.02 s of CPU
time on a 2-vCPU host with CPython's own big integers.

The bank is content-scaled: all A_i are written over one denominator,
and one gcd of it with every numerator leaves integers an_i over the lcm
of the reduced denominators (4.1k bits at m = 500).  No Fraction is
built per coefficient; TailEstimate.coeffs reduces them once per bank,
on first access.  The few most recent banks are kept per (interval, w,
zeta, order), so further scenarios on the same interval and a repeated
order cost only the dot product; the A_i do not depend on the moments at
all.  The dot product reads the moments in their scaled form,
mu_i = nums_i / S_i over a scale that grows by a small factor steps_i
per order, and sums sum_i an_i mu_i by Horner at S_m: one product of
the running sum by a small factor and one an_i nums_i per term, then
one reduction.  The an_i keep the power of two of z^i, so each enters
its product without its trailing zero bits, which a shift puts back
(_dot).  Orders are independent of each other: there is no resumable
state, and they may be asked for in any sequence.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import mpmath
from mpmath.libmp import dps_to_prec, from_rational, round_nearest

from .errors import DomainError
from .exactnum import RationalLike, Record, as_rational, is_order
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


class TailEstimate(Record, hide=("bank",)):
    """A truncated tail reconstruction sum_i A_i mu_i.

    bank holds the exact A_i over their common scale, shared by the
    estimates of the same interval, weight, cut point and order while the
    bank memo keeps it; coeffs are those A_i as reduced Fractions in every
    mode, built once per bank on first access.  In float mode value is the exact one rounded to
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
    bank: _Bank

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

def _taylor(n: int, a: int, l: int, h: int, top: int = 1) -> Iterator[int]:
    """top E_n L^n times the Taylor coefficients of P_n(t) at x' = 0, from
    degree n down to 0, where t = c0 + 2 x' / L maps the integer interval
    [l, h] of x' onto [-1, 1], L = h - l, and E_n = 2^n C(2a, a) C(n+2a, 2a)
    makes E_n P_n(t) a polynomial with integer coefficients.

    D P_n = -n (n+2a+1) P_n, read coefficientwise in x', gives

      (k-n)(k+n+2a+1) U_k = -l h (k+1)(k+2) U_{k+2}
                            + (l+h)(k+1)(k+a+1) U_{k+1},

    stepped down from U_n = top 2^n E_n k_n = top 2^n C(2n+2a, n+a)
    C(n+a, a).  Every U_k is an integer, so each division is exact, and a
    big top costs no product of two big integers.
    """
    u1 = top * 2 ** n * math.comb(2 * n + 2 * a, n + a) * math.comb(n + a, a)
    u2 = 0
    yield u1
    lh, mid = l * h, l + h
    for k in range(n - 1, -1, -1):
        u1, u2 = ((mid * (k + 1) * (k + a + 1) * u1
                   - lh * (k + 1) * (k + 2) * u2)
                  // ((k - n) * (k + n + 2 * a + 1))), u1
        yield u1


def _value_and_slope(u: Iterable[int], x: int) -> Tuple[int, int]:
    """sum_k u_k x^k and its derivative in x, by one Horner pass over the
    u_k from the highest degree down."""
    value = slope = 0
    for c in u:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _sum_at_one(a: int, zeta: Fraction, m: int) -> Fraction:
    """S(1) = sum_{j<=m} c_j: the tail polynomial at t = 1, where every P_j
    is 1.

    c_0 = q0/h0, and for j >= 1 c_j = (q1/h0) g_j / eta_j, with
    1/eta_j = C(j+2a, 2a) (2j+2a+1) / (2a+1) and g_j = P^(a+1)_{j-1}(zeta)
    the degree-(j-1) polynomial of the shifted weight.  With zeta = P/Q the
    g_j obey (j+2a+1) g_j = (2j+2a-1) zeta g_{j-1} - (j-2) g_{j-2}; the
    integers H_j = g_j Q^(j-1) prod_{i<=j} r_i step as

      f_j H_j = (2j+2a-1) P H_{j-1} - (j-2) Q^2 r_{j-1} H_{j-2},

    where f_j = gcd(right-hand side, j+2a+1) makes the division exact and
    r_j = (j+2a+1) / f_j is the part the scale keeps.
    """
    P, Q = zeta.numerator, zeta.denominator
    h_prev, h, r = 0, 1, 1
    total, scale = (2 * a + 1) * (2 * a + 3), 1
    for j in range(2, m + 1):
        rhs = (2 * j + 2 * a - 1) * P * h - (j - 2) * Q * Q * r * h_prev
        f = math.gcd(rhs, j + 2 * a + 1)
        h_prev, h, r = h, rhs // f, (j + 2 * a + 1) // f
        total = (total * Q * r
                 + math.comb(j + 2 * a, 2 * a) * (2 * j + 2 * a + 1) * h)
        scale *= Q * r
    return (_q0(a, zeta) + _q1(a, zeta) * Fraction(total, (2 * a + 1) * scale)
            ) / _h0(a)


class _Bank(Record):
    """A_0..A_m of one order as integers over one scale: A_i = an[i] / scale,
    where scale is the lcm of the reduced denominators of the A_i."""

    an: Tuple[int, ...]
    scale: int

    @functools.cached_property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The A_i as reduced Fractions, built on first access."""
        return tuple(Fraction(n, self.scale) for n in self.an)


def _reduced(den: int, nums: List[int]) -> _Bank:
    """The bank N_i / den with the common factor g = gcd(den, *N) divided
    out, taking one divmod per numerator.  nums is consumed: each N_i is
    replaced by its quotient and remainder as it is divided.

    The common power of two, most of g, goes first by shifts.  A
    provisional g0 from den and a few numerators is then usually the rest
    of g: g = gcd(g0, *remainders), and when g < g0 each quotient is
    mended as N_i / g = q_i (g0/g) + r_i / g.
    """
    twos = min((n & -n).bit_length() for n in nums + [den] if n) - 1
    den >>= twos
    g0 = math.gcd(den, *(n >> twos for n in nums[:3]))
    for i, n in enumerate(nums):
        nums[i] = divmod(n >> twos, g0)
    g = math.gcd(g0, *(r for _, r in nums))
    if g < g0:
        up = g0 // g
        return _Bank(tuple(q * up + r // g for q, r in nums), den // g)
    return _Bank(tuple(q for q, _ in nums), den // g0)


def _emit(c0: Fraction, c1: Fraction, a: int, zeta: Fraction,
          m: int) -> _Bank:
    """A_0..A_m of order m in O(m) steps, content-scaled.

    The A_i are the Taylor coefficients in x of the tail polynomial
    S(t) = sum_{j<=m} c_j P_j(t), t = c0 + c1 x, with c_j = h_j^-1 times
    the integral of (1-t^2)^a P_j over [zeta, 1].  The operator
    D = (1-t^2) d^2/dt^2 - (2a+2) t d/dt is self-adjoint for the weight and
    D P_j = -j (j+2a+1) P_j, so integrating by parts gives D S = T with
    T(t) = -(1-zeta^2)^(a+1) d/ds K_m(s, t) at s = zeta, and the
    Christoffel-Darboux kernel K_m has a closed form in P_m and P_{m+1}.
    D fixes S up to its constant term, which is read at t = 1
    (_sum_at_one).

    All of it runs in integers in x' = z x, where z clears the denominators
    of the interval ends and of xi: the ends become integers l < h, xi an
    integer x, and t = c0 + 2 x' / L with L = h - l.  With a dot for d/dx',

      (x - x')^2 T = (1-zeta^2)^(a+1) kappa (L/2)^2 [N - (x - x') N_s],
      N   = P_{m+1}(zeta) P_m - P_m(zeta) P_{m+1},
      N_s = P_{m+1}'(zeta) P_m - P_m'(zeta) P_{m+1},

    kappa = k_m / (k_{m+1} h_m).  Four recurrences of O(m) steps, run
    backward together in one pass that keeps no row but sigma:
      1. the Taylor rows of P_m and P_{m+1} (_taylor), their values and
         slopes at x, and the rows again started from those values, so the
         coefficients n_k of N - (x - x') N_s come out as integers at the
         scale E_m E_{m+1} L^(2m+1) with no product of two big integers;
      2. rho with (x - x')^2 rho = n: rho_{k-2} = n_k + 2 x rho_{k-1}
         - x^2 rho_k;
      3. D sigma = rho coefficientwise,
         k (k+2a+1) sigma_k = -l h (k+1)(k+2) sigma_{k+2}
                              + (l+h)(k+1)(k+a+1) sigma_{k+1} - rho_k,
         each step dividing out gcd(right-hand side, k (k+2a+1)) and
         keeping the rest lam_k in the scale of every sigma_j, j <= k;
      4. the sum of the sigma_k h^k by Horner, which turns S(1) into
         A_0 = S(c0), since x' = h is t = 1.
    Then A_i = c z^i (lam_1 ... lam_{i-1}) sigma_i for i >= 1, with
    c = (1-zeta^2)^(a+1) kappa (L/2)^2 / (E_m E_{m+1} L^(2m+1) lam_1 ...
    lam_m).  No step divides by 1 - c0^2, by c0 or by zeta - c0, so
    c0 = 0, c0 = +-1, |c0| > 1 and zeta = +-1 take the same path.  All A_i
    are written over one denominator and reduced once (_reduced).
    """
    if m == 0:
        head = _q0(a, zeta) / _h0(a)
        return _Bank((head.numerator,), head.denominator)
    lo, hi, xi = (-1 - c0) / c1, (1 - c0) / c1, (zeta - c0) / c1
    z = math.lcm(lo.denominator, hi.denominator, xi.denominator)
    l, h, x = int(lo * z), int(hi * z), int(xi * z)
    big_l = h - l
    # 1. values and slopes at x, then the rows of
    # n = (vp - x wp) P_m + wp x' P_m - (vm - x wm) P_{m+1} - wm x' P_{m+1}
    # as (f_m, s_m, f_p, s_p) with n_k = f_m[k] + s_m[k-1] - f_p[k]
    # - s_p[k-1], from k = m + 2 down
    vm, wm = _value_and_slope(_taylor(m, a, l, h), x)
    vp, wp = _value_and_slope(_taylor(m + 1, a, l, h), x)
    rows = zip(itertools.chain((0, 0), _taylor(m, a, l, h, vp - x * wp)),
               itertools.chain((0,), _taylor(m, a, l, h, wp)),
               itertools.chain((0,), _taylor(m + 1, a, l, h, vm - x * wm)),
               _taylor(m + 1, a, l, h, wm))
    sigma = [0] * (m + 1)
    lam = [1] * (m + 1)
    r1 = r2 = 0                     # rho_{j+1}, rho_{j+2}
    keep = 1                        # lam_{j+1} ... lam_m
    b1 = b2 = 0                     # sigma_{j+1}, sigma_{j+2}, at scale keep
    acc = 0
    lh, mid = l * h, l + h
    for j, (fm, sm, fp, sp) in zip(range(m, 0, -1), rows):
        # 2. rho_j = n_{j+2} + 2 x rho_{j+1} - x^2 rho_{j+2}
        r1, r2 = fm + sm - fp - sp + x * (2 * r1 - x * r2), r1
        # 3. D sigma = rho; sigma_j is kept at scale lam_j ... lam_m
        rhs = (mid * (j + 1) * (j + a + 1) * b1
               - lh * (j + 1) * (j + 2) * b2 - keep * r1)
        div = j * (j + 2 * a + 1)
        f = math.gcd(rhs, div)
        sigma[j], lam[j] = rhs // f, div // f
        keep *= lam[j]
        b1, b2 = sigma[j], b1 * lam[j]
        # 4. sum_k s_k h^k by Horner, the s_k read from sigma_k
        acc = sigma[j] + h * lam[j] * acc
    # c of the docstring, with kappa and E_m E_{m+1} written out
    c = (_q1(a, zeta) / _h0(a) * (a + 1) * (m + 2 * a + 1)
         / ((2 * a + 1) * 2 ** (2 * m + 2) * math.comb(2 * a, a) ** 2
            * math.comb(m + 2 * a + 1, 2 * a) * big_l ** (2 * m - 1) * keep))
    s0 = _sum_at_one(a, zeta, m) - c * h * acc     # S(c0) = S(1) - ...
    # one denominator: N_i = c z^i (lam_1 ... lam_{i-1}) sigma_i in place
    # of sigma_i, with the power of two in z applied as a shift
    twos = (z & -z).bit_length() - 1
    den = math.lcm(c.denominator, s0.denominator)
    mult = c.numerator * (den // c.denominator)
    nums = sigma
    nums[0] = s0.numerator * (den // s0.denominator)
    for i in range(1, m + 1):
        mult *= z >> twos
        nums[i] = nums[i] * mult << twos * i
        mult *= lam[i]
    return _reduced(den, nums)


@functools.lru_cache(maxsize=8)
def _exact_bank(c0: Fraction, c1: Fraction, alpha_w: int, zeta: Fraction,
                m: int) -> _Bank:
    """A_0..A_m over their common scale, kept for the few most recent
    (interval, w, zeta, order)."""
    return _emit(c0, c1, alpha_w, zeta, m)


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


def _dot(an: Iterable[int], nums: Iterable[int],
         steps: Iterable[int]) -> int:
    """sum_i an_i nums_i (steps_{i+1} ... steps_m), i = 0..m with
    m + 1 = len(an), by Horner: acc = acc steps_i + an_i nums_i.  The
    moments may run past order m.

    Each an_i is multiplied without its trailing zero bits, which are
    shifted back onto the product.  The bank's A_i carry z^i, and the
    power of two in z, 8 bits per order for pt and 4 for diff, stays in
    an_i, so at m = 300 the top pt coefficient has 4.2k bits of which
    2.4k are zeros that the product would otherwise multiply.
    """
    acc = 0
    for a, num, step in zip(an, nums, steps):
        twos = (a & -a).bit_length() - 1
        acc = acc * step + ((a >> twos) * num << twos if a else 0)
    return acc


def _tail(moments: MomentSequence, alpha_w: int, xi: RationalLike, m: int,
          mode: str, precision: Optional[int], method: str) -> TailEstimate:
    """The tail estimate of gegenbauer_tail, reported under method: the
    order's bank dotted with the moments' scaled form by _dot, which
    skips each bank integer's trailing zero bits, then one reduction."""
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
    value = Fraction(_dot(bank.an, moments.nums, moments.steps),
                     bank.scale * math.prod(moments.steps[:m + 1]))
    if mode == MODE_FLOAT:
        value = _rounded(value, dps_to_prec(precision))
    return TailEstimate(moments.scenario, method, alpha_w, m, mode, precision,
                        value, bank)


def gegenbauer_tail(moments: MomentSequence, alpha_w: int, xi: RationalLike,
                    m: int, mode: str = MODE_AUTO,
                    precision: Optional[int] = None) -> TailEstimate:
    """Truncated tail estimate Pr{X > xi} from mu_0..mu_m.

    The estimate is always computed exactly, as sum_i A_i mu_i with
    A_i = an_i / scale from the bank and mu_i = nums_i / S_i from the
    moments' scaled form, where S_i = steps_0 ... steps_i.  By Horner,
    acc_i = acc_{i-1} steps_i + an_i nums_i, and the value is
    acc_m / (scale S_m), reduced once; no Fraction of a moment is read.
    Float mode reports the exact value correctly rounded to `precision`
    digits; the coefficients stay exact.
    """
    return _tail(moments, alpha_w, xi, m, mode, precision, METHOD_GEGENBAUER)


def legendre_tail(moments: MomentSequence, xi: RationalLike, m: int,
                  mode: str = MODE_AUTO,
                  precision: Optional[int] = None) -> TailEstimate:
    """The flat-weight (w = 0) tail estimate, the primary instrument here.

    Identical by definition to gegenbauer_tail with alpha_w = 0; exposed on
    its own and reported under its own method name.
    """
    return _tail(moments, 0, xi, m, mode, precision, METHOD_LEGENDRE)


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
    each order builds its own coefficient bank, in O(m) steps.
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
