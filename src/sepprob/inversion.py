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
Polynomials, 1939, sections 3.2, 4.7 and 4.21).  So one forward pass of
the degree recurrence and four three-term recurrences in the index i, run
backward, all in integers with small multipliers and exact small
divisions, replace the sum over j; the constant term comes from
S(1) = sum_j c_j, each c_j a slope at the cut point summed in the same
forward pass.  At m = 500 the whole bank takes about 0.010 s of CPU time
on a 2-vCPU host with CPython's own big integers.

The bank is content-scaled (_reduced): the A_i are integers an_i over the
lcm of their reduced denominators (4.1k bits at m = 500), each held as its
odd part and its power of two, so the dot product (_dot) multiplies each
without its trailing zero bits.  The latest bank is kept, keyed by
(interval, w, xi, order): further scenarios on the same interval at the
same order cost only the dot product, which reads the moments in their
scaled form and sums by Horner with one reduction.  Orders are
independent of each other: there is no resumable state.  The public API
is gegenbauer_tail and legendre_tail, its w = 0 case under the paper's
name; a convergence profile is a loop of one of them over one
moment_sequence at the highest order, as tail --m-list runs it.
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
from .moments import MomentSequence, Scenario

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
    estimates of the same interval, weight, cut point and order made
    while it is the latest bank; coeffs are those A_i as reduced
    Fractions in every mode, built once per bank on first access.  In
    float mode value is the exact one rounded to precision digits; in
    exact mode it is a Fraction and precision is None.
    """

    scenario: Scenario
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

def _taylor(n: int, a: int, l: int, h: int, c: int, d: int) -> Iterator[int]:
    """The coefficients of (c + d x') e_n L^n P_n(t) in x', from degree
    n + 1 down to 0, where t = c0 + 2 x' / L maps the integer interval
    [l, h] of x' onto [-1, 1], L = h - l, and e_n = C(2a, a) C(n+2a, 2a).
    e_n L^n P_n has integer coefficients U_k: with t - 1 = 2 (x'-h) / L
    and t + 1 = 2 (x'-l) / L the Jacobi sum (Szego, section 4.21) for
    P_n(1) = 1 reads

      e_n L^n P_n(t) = C(n+2a, a) sum_k C(n+a, k) C(n+a, n-k)
                       (x'-h)^(n-k) (x'-l)^k.

    D P_n = -n (n+2a+1) P_n, read coefficientwise in x', gives

      (k-n)(k+n+2a+1) U_k = -l h (k+1)(k+2) U_{k+2}
                            + (l+h)(k+1)(k+a+1) U_{k+1},

    stepped down twice from the sum's leading coefficient U_n = C(n+2a, a)
    C(2n+2a, n), as c U_k and d U_k with the same small factors: each
    division is exact, and big c and d cost no product of big integers.
    """
    lead = math.comb(n + 2 * a, a) * math.comb(2 * n + 2 * a, n)
    u1, v1, u2, v2 = c * lead, d * lead, 0, 0   # c U_k, d U_k; c, d U_{k+1}
    yield v1
    lh, mid = l * h, l + h
    for k in range(n - 1, -1, -1):
        p, q = mid * (k + 1) * (k + a + 1), lh * (k + 1) * (k + 2)
        r = (k - n) * (k + n + 2 * a + 1)
        u1, u2, v1, v2 = (p * u1 - q * u2) // r, u1, (p * v1 - q * v2) // r, v1
        yield u2 + v1               # the coefficient of x'^(k+1)
    yield u1


def _at_cut(m: int, a: int, l: int, h: int, x: int) -> Tuple[int, ...]:
    """p_m, p_m', p_{m+1}, p_{m+1}' at x' = x, where p_n = e_n L^n P_n(t)
    is the polynomial _taylor expands and ' is d/dx', and the numerator
    and scale of T = sum_{j=1..m} (2j+2a+1) p'_j L^(m-j) / (j (j+2a+1)),
    by one pass of the degree recurrence from p_0 = C(2a, a), p'_0 = 0,
    with s = 2 x - (l+h):

      (n+1) p_{n+1} = (2n+2a+1) s p_n - (n+2a) L^2 p_{n-1},
      (n+1) p'_{n+1} = (2n+2a+1) (2 p_n + s p'_n) - (n+2a) L^2 p'_{n-1}.

    Every p_n and p'_n is an integer at an integer x: each division is
    exact.  T gives _emit its S(1): integrating D P_j = -j (j+2a+1) P_j
    from zeta to 1 makes q_j = (1-zeta^2)^(a+1) P_j'(zeta) / (j (j+2a+1))
    a slope (Szego, section 4.21).  Each step of T's Horner sum divides
    out gcd(right-hand side, j (j+2a+1)) and keeps the rest in the scale,
    as _emit's sigma step does.
    """
    s, big_l, ll = 2 * x - l - h, h - l, (h - l) ** 2
    p0 = d0 = 0                         # p_{n-1}, p'_{n-1}
    p1, d1 = math.comb(2 * a, a), 0     # p_n, p'_n
    total, scale = 0, 1                 # T over j < n, as total / scale
    for n in range(m + 1):
        f, g = 2 * n + 2 * a + 1, (n + 2 * a) * ll
        if n:
            rhs, div = f * scale * d1, n * (n + 2 * a + 1)
            cut = math.gcd(rhs, div)
            total = total * big_l * (div // cut) + rhs // cut
            scale *= div // cut
        p0, p1, d0, d1 = (p1, (f * s * p1 - g * p0) // (n + 1),
                          d1, (f * (2 * p1 + s * d1) - g * d0) // (n + 1))
    return p0, d0, p1, d1, total, scale


class _Bank(Record):
    """A_0..A_m of one order as integers over one scale, each split into
    its odd part and its power of two: A_i = odd[i] 2^twos[i] / scale,
    where scale is the lcm of the reduced denominators of the A_i.  A zero
    A_i is stored as odd 0, twos 0."""

    odd: Tuple[int, ...]
    twos: Tuple[int, ...]
    scale: int

    @functools.cached_property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The A_i as reduced Fractions, built on first access."""
        return tuple(Fraction(o << t, self.scale)
                     for o, t in zip(self.odd, self.twos))


def _reduced(den: int, nums: List[int], step: int) -> _Bank:
    """The bank A_i = N_i 2^(step i) / den over the lcm of their reduced
    denominators, each integer kept as its odd part and its power of two,
    with one divmod per numerator.  nums is consumed, each N_i replaced by
    its odd part and then its quotient, so no bank integer is held twice.

    The walk that strips each N_i's trailing zeros counts them, plus
    step i; the least count, or den's, is the common power of two, and the
    rest g of the common factor is odd.  A provisional g0 from den and a
    few odd parts is usually g: g = gcd(g0, *remainders), and when g < g0
    each quotient is mended as o_i / g = q_i (g0/g) + r_i / g.
    """
    twos = []
    for i, n in enumerate(nums):
        t = (n & -n).bit_length() - 1 if n else 0
        nums[i] = n >> t
        twos.append(t + step * i)
    common = min([t for t, n in zip(twos, nums) if n]
                 + [(den & -den).bit_length() - 1])
    den >>= common
    g0 = math.gcd(den, *nums[:3])
    for i, n in enumerate(nums):
        nums[i] = divmod(n, g0)
        twos[i] = twos[i] - common if n else 0
    g = math.gcd(g0, *(r for _, r in nums))
    up = g0 // g
    for i, (q, r) in enumerate(nums):
        nums[i] = q * up + r // g if up > 1 else q
    return _Bank(tuple(nums), tuple(twos), den // g)


def _emit(lo: Fraction, hi: Fraction, a: int, xi: Fraction,
          m: int) -> _Bank:
    """A_0..A_m of order m in O(m) steps, content-scaled, on the support
    [lo, hi] at weight exponent a and cut point xi.

    The A_i are the Taylor coefficients in x of the tail polynomial
    S(t) = sum_{j<=m} c_j P_j(t), t = c0 + c1 x, with c_j = h_j^-1 times
    the integral of (1-t^2)^a P_j over [zeta, 1], zeta = c0 + c1 xi.
    The operator D = (1-t^2) d^2/dt^2 - (2a+2) t d/dt is self-adjoint for
    the weight and D P_j = -j (j+2a+1) P_j, so integrating by parts gives
    D S = T with T(t) = -(1-zeta^2)^(a+1) d/ds K_m(s, t) at s = zeta, and
    the Christoffel-Darboux kernel K_m has a closed form in P_m and P_{m+1}.
    D fixes S up to its constant term, which is read at t = 1, where every
    P_j is 1: S(1) = sum_j c_j, each c_j a slope at the cut point.

    All of it runs in integers in x' = z x, where z clears the denominators
    of the interval ends and of xi: the ends become integers l < h, xi an
    integer x, t = c0 + 2 x' / L with L = h - l, and zeta, for q0 and q1,
    is (2 x - l - h) / L.  With a dot for d/dx',

      (x - x')^2 T = (1-zeta^2)^(a+1) kappa (L/2)^2 [N - (x - x') N_s],
      N   = P_{m+1}(zeta) P_m - P_m(zeta) P_{m+1},
      N_s = P_{m+1}'(zeta) P_m - P_m'(zeta) P_{m+1},

    kappa = k_m / (k_{m+1} h_m).  The values and slopes of P_m and
    P_{m+1} at x, and S(1), come first, from one forward pass (_at_cut).
    Then four recurrences of O(m) steps run backward together in one pass
    that keeps no row but sigma:
      1. the Taylor rows of (v + w (x' - x)) P_n for n = m, m + 1 and
         the value v and slope w of the other polynomial (_taylor), so
         the coefficients n_k of N - (x - x') N_s come out as integers at
         the scale e_m e_{m+1} L^(2m+1) with no product of two big
         integers;
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
    c = (1-zeta^2)^(a+1) kappa (L/2)^2 / (e_m e_{m+1} L^(2m+1) lam_1 ...
    lam_m).  No step divides by l h, l + h, x or (x - l)(h - x), so an
    interval symmetric about 0 (c0 = 0), an end at 0 (c0 = +-1), 0 outside
    [lo, hi] (|c0| > 1), xi = 0 (zeta = c0) and xi at an end (zeta = +-1)
    take the same path, and so does m = 0, where the backward pass is
    empty and A_0 = S(1) = q0/h0.
    All A_i are written over one denominator, without the power of two of
    z^i, and reduced once (_reduced).
    """
    z = math.lcm(lo.denominator, hi.denominator, xi.denominator)
    l, h, x = int(lo * z), int(hi * z), int(xi * z)
    big_l = h - l
    zeta = Fraction(2 * x - l - h, big_l)
    # values and slopes at x, then 1. the rows g_m and g_p of
    # n = (vp - x wp + wp x') P_m - (vm - x wm + wm x') P_{m+1},
    # n_k = g_m[k] - g_p[k], from k = m + 2 down
    vm, wm, vp, wp, total, scale = _at_cut(m, a, l, h, x)
    rows = zip(itertools.chain((0,), _taylor(m, a, l, h, vp - x * wp, wp)),
               _taylor(m + 1, a, l, h, vm - x * wm, wm))
    sigma = [0] * (m + 1)
    lam = [1] * (m + 1)
    r1 = r2 = 0                     # rho_{j+1}, rho_{j+2}
    keep = 1                        # lam_{j+1} ... lam_m
    b1 = b2 = 0                     # sigma_{j+1}, sigma_{j+2}, at scale keep
    acc = 0
    lh, mid = l * h, l + h
    x2, xx = 2 * x, x * x
    for j, (gm, gp) in zip(range(m, 0, -1), rows):
        # 2. rho_j = n_{j+2} + 2 x rho_{j+1} - x^2 rho_{j+2}
        r1, r2 = gm - gp + x2 * r1 - xx * r2, r1
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
    # c_j = u (2j+2a+1) p'_j / (j (j+2a+1) L^j) for j >= 1 (_at_cut), and
    # c of the docstring, with kappa and e_m e_{m+1} written out
    u = (_q1(a, zeta) * (a + 1) * big_l
         / ((2 * a + 1) * math.comb(2 * a, a) * _h0(a)))
    c = u * (m + 2 * a + 1) / (2 * math.comb(2 * a, a)
                               * math.comb(m + 2 * a + 1, 2 * a)
                               * big_l ** (2 * m) * keep)
    s1 = _q0(a, zeta) / _h0(a) + u * Fraction(total, scale * big_l ** m)
    s0 = s1 - c * h * acc                           # S(c0) = S(1) - ...
    # one denominator: N_i = c z'^i (lam_1 ... lam_{i-1}) sigma_i in place
    # of sigma_i, z' the odd part of z, whose power of two _reduced applies
    twos = (z & -z).bit_length() - 1
    den = math.lcm(c.denominator, s0.denominator)
    mult = c.numerator * (den // c.denominator)
    nums = sigma
    nums[0] = s0.numerator * (den // s0.denominator)
    for i in range(1, m + 1):
        mult *= z >> twos
        nums[i] *= mult
        mult *= lam[i]
    return _reduced(den, nums, twos)


@functools.lru_cache(maxsize=1)
def _exact_bank(lo: Fraction, hi: Fraction, alpha_w: int, xi: Fraction,
                m: int) -> _Bank:
    """A_0..A_m over their common scale, kept for the latest (interval,
    w, xi, order): the scenarios of a sweep share one bank in turn.  The
    last bank is dropped first, so a profile holds one bank at a time."""
    _exact_bank.cache_clear()
    return _emit(lo, hi, alpha_w, xi, m)


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


def _dot(bank: _Bank, nums: Iterable[int], steps: Iterable[int]) -> int:
    """sum_i an_i nums_i (steps_{i+1} ... steps_m), i = 0..m with
    m + 1 = len(bank.odd) and an_i = odd_i 2^twos_i, by Horner:
    acc = acc steps_i + (odd_i nums_i << twos_i).  The moments may run
    past order m.

    Each product takes the bank integer without its trailing zero bits,
    kept apart since the bank was built, and a shift puts them back.
    The bank's A_i carry z^i, and the power of two in z, 8 bits per order
    for pt and 4 for diff, stays in an_i, so at m = 300 the top pt
    coefficient has 4.2k bits of which 2.4k are zeros that the product
    would otherwise multiply.
    """
    acc = 0
    for odd, twos, num, step in zip(bank.odd, bank.twos, nums, steps):
        acc = acc * step + (odd * num << twos)
    return acc


def gegenbauer_tail(moments: MomentSequence, alpha_w: int, xi: RationalLike,
                    m: int, mode: str = MODE_AUTO,
                    precision: Optional[int] = None) -> TailEstimate:
    """Truncated tail estimate Pr{X > xi} from mu_0..mu_m.

    The estimate is always computed exactly, as sum_i A_i mu_i with
    A_i = an_i / scale from the bank and mu_i = nums_i / S_i from the
    moments' scaled form, where S_i = steps_0 ... steps_i.  By Horner,
    acc_i = acc_{i-1} steps_i + an_i nums_i, and the value is
    acc_m / (scale S_m), reduced once; no Fraction of a moment is read
    (_dot skips each bank integer's trailing zero bits).  Float mode
    reports the exact value correctly rounded to `precision` digits; the
    coefficients stay exact.
    """
    alpha_w = _check_weight(alpha_w)
    if not is_order(m):
        raise DomainError(f"truncation order must be an integer >= 0, got {m!r}")
    if len(moments) < m + 1:
        raise DomainError(
            f"need {m + 1} moments, sequence has {len(moments)}")
    xi = _check_xi(moments.scenario.interval, xi)
    mode, precision = _resolve_mode(mode, m, precision)
    bank = _exact_bank(*moments.scenario.interval, alpha_w, xi, m)
    value = Fraction(_dot(bank, moments.nums, moments.steps),
                     bank.scale * math.prod(moments.steps[:m + 1]))
    if mode == MODE_FLOAT:
        value = _rounded(value, dps_to_prec(precision))
    return TailEstimate(moments.scenario, alpha_w, m, mode, precision,
                        value, bank)


def legendre_tail(moments: MomentSequence, xi: RationalLike, m: int,
                  mode: str = MODE_AUTO,
                  precision: Optional[int] = None) -> TailEstimate:
    """The flat-weight (w = 0) tail estimate, the paper's Legendre
    expansion: the record gegenbauer_tail returns with alpha_w = 0."""
    return gegenbauer_tail(moments, 0, xi, m, mode, precision)
