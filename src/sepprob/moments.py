"""Exact determinantal moments of random induced generalized two-qubit states.

Two moment families are evaluated, both normalized by <|rho|^k> and both
terminating hypergeometric sums:

* pt_moment: <|rho^PT|^n |rho|^k> / <|rho|^k>, a 5F4-type sum over j = 0..n
  whose prefactor is (k+1)_n (k+1+a)_n (k+1+2a)_n /
  [2^(6n) (k+3a+3/2)_n (2k+6a+5/2)_(2n)] with a the Dyson-like parameter.
* diff_moment: <|rho|^k (|rho^PT| - |rho|)^n> / <|rho|^k>, a 4F3-type sum
  that terminates at floor(n/2).

For integer k < n the 5F4 sum degenerates: terms with k+1 <= j <= (k+n)/2
vanish outright, while terms with j > (k+n)/2 are 0/0 forms whose finite
cancellation limits contribute.  One evaluator, _fast_moment, sums either
family directly: it doubles every half-integer parameter and runs each sum
as a single pass in big integers.  The pass takes those limits exactly by
carrying the paired zero factors, one on top and one below, as 1.
pt_moment and diff_moment are its validated public front.

moment_sequence does not sum each order afresh.  Each family obeys a
linear recurrence in n, sum_{i=0..r} c_i(n) mu_{n+i} = 0, of order r = 3
(pt) or 2 (diff), whose coefficients are integer polynomials in n,
2 alpha and 2k of degree 20 or 11 (the table recurrences.txt next to this
module, written by tools/derive_recurrences.py).  Zeilberger's creative
telescoping proves it: tests/test_recurrence.py checks the certificate's
telescoping identity and its boundary terms exactly.  The identity holds
for generic alpha and k, and each mu_n is a rational function of both, so
the recurrence holds at the 0/0 orders as well.  The table is read and
parsed once per process and variable and kept as integers; it is
specialized to 2 alpha, by Horner, once per (variable, alpha), leaving
each coefficient a polynomial in 2k.  A small memo keeps the last few
alphas, so the scenarios of a sweep that share an alpha share that
set-up.  A sequence then evaluates those polynomials at its 2k by Horner
(924 steps for pt) and steps the recurrence in integers over one running
scale S: the r orders of the window are integers over S, each order is
one sum of r products, and one division of that sum by c_r, a number of
a few hundred bits, with one gcd of the small remainder and c_r, leaves
the order's numerator and the small factor (at most 34 bits up to order
1000) by which S grows.  The r + 1 values c_i(n - r) of an order are
the slots of one integer: the coefficients of each power of n are
packed, c_i in the bits iW..iW+W-1, plus a bias of 2^(W-1) per slot.
The forward differences of that packed polynomial, 21 for pt and 12
for diff, are the (r + 1) W-bit fields of one integer, whose lowest field
is the packed value: one shift and one addition move the whole table to
the next order, with no product, and shifts and masks read the slots
back.  W is one bit more than the largest sum_d |c_{i,d}| (m - r)^d,
which bounds |c_i(x)| for 0 <= x <= m - r, so it is derived afresh for
each requested order m and no slot borrows from the next; the bias
keeps the packed value in [1, 2^((r+1) W)), so the shift that moves the
table never borrows from it either.  No Fraction is reduced per order:
a MomentSequence is built from the scaled form alone, MomentSequence.mu
reduces the moments once, for the callers that read them as Fractions,
and the tail's dot product reads the scaled form.
c_r has only positive coefficients, so every step is defined.
_fast_moment computes only the first r orders.  Each call builds its
sequence from order 0 in one pass and keeps nothing: no sequence
outlives the caller that holds it.

The underlying random variables are supported on [-1/16, 1/256] (pt) and
[-1/16, 1/432] (diff), so the bound |mu_n| <= (1/16)^n holds for every n.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import os
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import DomainError
from .exactnum import RationalLike, Record, as_rational, check_alpha, \
    horner, is_half_integer, is_order

PT_INTERVAL = (Fraction(-1, 16), Fraction(1, 256))
DIFF_INTERVAL = (Fraction(-1, 16), Fraction(1, 432))


class Variable(enum.Enum):
    """Which determinantal functional the moments refer to."""

    PT_DET = "pt"        # |rho^PT|, weighted by |rho|^k
    DIFF = "diff"        # |rho^PT| - |rho|, weighted by |rho|^k

    def __str__(self) -> str:
        return self.value


def _check_params(alpha: Fraction, k: Fraction, n: int) -> None:
    check_alpha(alpha)
    if not is_half_integer(k) or k < 0:
        raise DomainError(f"k must be a half-integer >= 0, got {k}")
    if not is_order(n):
        raise DomainError(f"moment order must be an integer >= 0, got {n!r}")


class Scenario(Record):
    """A moment scenario: variable, Dyson-like parameter alpha and measure
    exponent k.  The support interval is determined by the variable."""

    variable: Variable
    alpha: Fraction
    k: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.variable, Variable):
            try:
                variable = Variable(self.variable)
            except ValueError:
                raise DomainError("variable must be pt or diff, "
                                  f"got {self.variable!r}") from None
            object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        object.__setattr__(self, "k", as_rational(self.k))
        _check_params(self.alpha, self.k, 0)

    @property
    def interval(self) -> Tuple[Fraction, Fraction]:
        if self.variable is Variable.PT_DET:
            return PT_INTERVAL
        return DIFF_INTERVAL


class MomentSequence:
    """Exact moments mu_0..mu_m of one scenario (mu_0 = 1).

    The moments are held as integers over one running scale:
    mu_n = nums[n] / S_n with S_n = steps[0] steps[1] ... steps[n], so each
    S_i divides S_m, and the lcm of the reduced denominators of mu_0..mu_n
    divides S_n.  The constructor takes that scaled form; mu, the reduced
    Fractions, is built from it once, on first access.
    """

    def __init__(self, scenario: Scenario, nums: Tuple[int, ...],
                 steps: Tuple[int, ...]) -> None:
        if len(nums) != len(steps):
            raise DomainError("a moment sequence needs one step per "
                              f"numerator, got {len(nums)} numerators and "
                              f"{len(steps)} steps")
        if not nums or nums[0] != steps[0] or steps[0] == 0:
            raise DomainError("a moment sequence must start with mu_0 = 1")
        self.scenario, self.nums, self.steps = scenario, nums, steps

    @functools.cached_property
    def mu(self) -> Tuple[Fraction, ...]:
        """mu_0..mu_m as reduced Fractions."""
        out, scale = [], 1
        for num, step in zip(self.nums, self.steps):
            scale *= step
            out.append(Fraction(num, scale))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1


# ---------------------------------------------------------------------------
# Doubled-integer evaluation
# ---------------------------------------------------------------------------
#
# All parameters are half-integers, so doubling every linear factor turns the
# whole computation into big-int arithmetic, reduced to Fractions only at
# the end.  Numerator and denominator always carry equally many doubled
# factors, so the introduced powers of 2 cancel.  The running series sum is
# kept as sum_n / td over the current term's denominator td, which avoids
# per-term gcd work.
#
# In the 5F4 sum the bottom pair -(k+n)/2, -(k+n-1)/2 enters through the
# duplication identity (x/2)_j ((x+1)/2)_j = (x)_(2j) / 4^j with x = -k-n,
# so every factor moves at the same unit rate in k.  For integer k < n
# exactly two factors vanish: the top factor -k+j at j = k and, at
# j = (k+n)//2, one factor of the bottom pair.  Under k -> k + eps both are
# -eps, so their ratio tends to 1 and the single pass carries each of them
# as 1.  The terms between the two zeros keep an unpaired zero on top and
# are exactly 0: they add nothing, while the running product still moves
# through them to the finite 0/0 limits beyond.

def _rising2(start: int, count: int) -> int:
    """start (start+2) ... (start+2(count-1)): a doubled rising factorial."""
    return math.prod(range(start, start + 2 * count, 2))


def _pt_series_fast(a2: int, k2: int, n: int) -> Fraction:
    tn = td = sum_n = 1
    unpaired = 0            # 1 while a top zero waits for its bottom partner
    for j in range(n):
        top = -k2 + 2 * j
        low = -k2 - 2 * n + 4 * j
        unpaired += (top == 0) - (low * (low + 2) == 0)
        tn *= 4 * ((-2 * n + 2 * j) * (top or 1) * (a2 + 2 * j)
                   * (a2 + 1 + 2 * j) * (-2 * k2 - 4 * n - 2 - 5 * a2 + 2 * j))
        sd = ((-k2 - 2 * n - a2 + 2 * j) * (-k2 - 2 * n - 2 * a2 + 2 * j)
              * (low or 1) * (low + 2 or 1) * (2 * j + 2))
        td *= sd
        sum_n = sum_n * sd + (0 if unpaired else tn)
    return Fraction(sum_n, td)


def _diff_series_fast(a2: int, k2: int, n: int) -> Fraction:
    tn = td = sum_n = 1
    for j in range(n // 2):
        tn *= ((-2 * n + 4 * j) * (-2 * n + 4 * j + 2)
               * (k2 + 2 + a2 + 2 * j) * (k2 + 2 + 2 * a2 + 2 * j))
        sd = 4 * ((2 - 2 * n - a2 + 2 * j) * (1 - 2 * n - a2 + 2 * j)
                  * (2 * n + 2 * k2 + 4 + 5 * a2 + 2 * j) * (2 * j + 2))
        td *= sd
        sum_n = sum_n * sd + tn
    return Fraction(sum_n, td)


def _fast_moment(variable: Variable, alpha: Fraction, k: Fraction, n: int) -> Fraction:
    a2, k2 = int(2 * alpha), int(2 * k)
    # (k+3a+3/2)_n (2k+6a+5/2)_(2n), shared by both families
    den = _rising2(k2 + 3 * a2 + 3, n) * _rising2(2 * k2 + 6 * a2 + 5, 2 * n)
    if variable is Variable.PT_DET:
        num = (_rising2(k2 + 2, n) * _rising2(k2 + 2 + a2, n)
               * _rising2(k2 + 2 + 2 * a2, n))
        return Fraction(num, den << 6 * n) * _pt_series_fast(a2, k2, n)
    num = (math.prod(range(a2, a2 + 2 * n))
           * _rising2(2 * n + 2 * k2 + 4 + 5 * a2, n))
    return (Fraction((-1) ** n * num, den << 4 * n)
            * _diff_series_fast(a2, k2, n))


# ---------------------------------------------------------------------------
# Public single moments
# ---------------------------------------------------------------------------

def pt_moment(alpha: RationalLike, k: RationalLike, n: int) -> Fraction:
    """<|rho^PT|^n |rho|^k> / <|rho|^k>, exactly.

    A 5F4-type sum over j = 0..n; for integer k < n its 0/0 terms are
    replaced by their exact cancellation limits.
    """
    alpha, k = as_rational(alpha), as_rational(k)
    _check_params(alpha, k, n)
    return _fast_moment(Variable.PT_DET, alpha, k, n)


def diff_moment(alpha: RationalLike, k: RationalLike, n: int) -> Fraction:
    """<|rho|^k (|rho^PT| - |rho|)^n> / <|rho|^k>, exactly.

    The 4F3 top pair -n/2, (1-n)/2 merges to (-n)_(2j) / 4^j, so the sum
    terminates at floor(n/2).  No denominator factor can vanish for
    alpha >= 1/2, k >= 0, so this variable never needs a cancellation limit.
    """
    alpha, k = as_rational(alpha), as_rational(k)
    _check_params(alpha, k, n)
    return _fast_moment(Variable.DIFF, alpha, k, n)


# ---------------------------------------------------------------------------
# Whole sequences: the certified recurrence in n
# ---------------------------------------------------------------------------

_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "recurrences.txt")
# the order r of each variable's recurrence: the table holds c_0..c_r
_ORDER = {Variable.PT_DET: 3, Variable.DIFF: 2}


def _table_rows(variable: Variable):
    """(i, d, top, row) for each line of the variable's table: row holds
    the decimal coefficients of n^d in c_i, those of (2 alpha)^u (2k)^v of
    total degree at most top, in the order u = 0..top and for each u
    v = 0..top-u."""
    prefix = variable.value + " "
    with open(_TABLE, encoding="ascii") as fh:
        for line in fh:
            if line.startswith(prefix):
                _, i, d, top, *row = line.split()
                yield int(i), int(d), int(top), row


def _runs(top: int) -> tuple[int, ...]:
    """0 and the ends of the runs of lengths top + 1, top, ..., 1 that
    make up a row of total degree top, both in the file (one run per
    power u of 2 alpha) and in _int_table (one per power v of 2k)."""
    return tuple(itertools.accumulate(range(top + 1, 0, -1), initial=0))


@functools.lru_cache(maxsize=2)
def _int_table(variable: Variable) -> tuple[tuple[tuple[int, tuple[int, ...]],
                                                 ...], ...]:
    """The variable's table as integers, read from the file once per
    process: for each c_i and each power of n, (top, coeffs), where coeffs
    holds the coefficients of (2 alpha)^u (2k)^v, u + v <= top, in the
    order v = 0..top and for each v u = 0..top-v.  Both variables'
    tables stay resident, one flat tuple per row to keep them small:
    0.30 MiB for pt and 0.04 MiB for diff."""
    out: list[list[tuple[int, tuple[int, ...]]]] = []
    for i, _, top, row in _table_rows(variable):
        if i == len(out):
            out.append([])
        starts = _runs(top)
        values = tuple(map(int, row))
        out[i].append((top, tuple(values[starts[u] + v]
                                  for v in range(top + 1)
                                  for u in range(top - v + 1))))
    return tuple(map(tuple, out))


@functools.lru_cache(maxsize=4)
def _alpha_table(variable: Variable,
                 a2: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The variable's table at 2 alpha = a2: for each c_i and each power
    of n, the integer coefficients of a polynomial in 2k, ascending.

    Each coefficient of 2k is one run of _int_table's row, a polynomial
    in a2 summed by Horner, so a new alpha reads no file.  One pass
    serves every k at this alpha.  Four alphas are kept: tables
    --approx-m and plot-data --figure 2 step through three alphas for
    each k.
    """
    return tuple(tuple(tuple(horner(coeffs[lo:hi], a2) for lo, hi in
                             itertools.pairwise(_runs(top)))
                       for top, coeffs in c)
                 for c in _int_table(variable))


def _recurrence(variable: Variable, alpha: Fraction,
                k: Fraction) -> tuple[tuple[int, ...], ...]:
    """c_0..c_r of the scenario's recurrence, each as its integer
    coefficients in ascending powers of n: the table at this alpha,
    evaluated at 2k by Horner."""
    k2 = int(2 * k)
    return tuple(tuple(horner(poly, k2) for poly in c)
                 for c in _alpha_table(variable, int(2 * alpha)))


def _rescale(mu: Iterable[Fraction]) -> tuple[list[int], list[int]]:
    """The scaled form nums, steps of mu by a running lcm from scale 1:
    each step is the part of the denominator that the scale so far
    lacks."""
    nums, steps, scale = [], [], 1
    for x in mu:
        step = x.denominator // math.gcd(scale, x.denominator)
        scale *= step
        nums.append(x.numerator * (scale // x.denominator))
        steps.append(step)
    return nums, steps


def _pack(coeffs: tuple[tuple[int, ...], ...],
          xmax: int) -> tuple[int, list[int]]:
    """c_0..c_r packed for evaluation at 0 <= x <= xmax: (W, P)
    with P_d = sum_i c_{i,d} 2^(iW), and the bias sum_i 2^(W-1) 2^(iW)
    added to P_0.

    B_i = sum_d |c_{i,d}| xmax^d bounds |c_i(x)| on that range.  The width
    W = 1 + max_i bitlen(B_i) is those bits and one for the sign, so each
    c_i(x) + 2^(W-1) lies in [1, 2^W) and horner(P, x) holds it in slot
    i, the bits iW..iW+W-1, with no borrow between slots.
    """
    width = 1 + max(horner(tuple(map(abs, c)), xmax).bit_length()
                    for c in coeffs)
    packed = [sum(c << i * width for i, c in enumerate(column))
              for column in itertools.zip_longest(*coeffs, fillvalue=0)]
    packed[0] += sum(1 << (i + 1) * width - 1 for i in range(len(coeffs)))
    return width, packed


def _differences(packed: list[int], shift: int) -> int:
    """The forward differences Delta^0..Delta^D at x = 0 of the packed
    polynomial of _pack, D its degree, as one integer
    T = sum_j Delta^j 2^(j shift).

    While Delta^0 lies in [0, 2^shift), T & (2^shift - 1) reads it, and
    T += T >> shift moves the whole table from x to x + 1 (Delta^j +=
    Delta^(j+1) for every j at once): the floor shift drops Delta^0
    alone, whatever the signs of the higher differences, since
    T = Delta^0 + 2^shift (T >> shift).  With shift = (r + 1) W, _pack's
    bias keeps Delta^0 there at every x of its range.  The values at
    0..D that the table starts from are exact integers even where j
    lies past that range.
    """
    values = [horner(packed, j) for j in range(len(packed))]
    table = 0
    for j in range(len(packed)):
        table += values[0] << j * shift
        values = list(map(operator.sub, values[1:], values))
    return table


def _scaled(variable: Variable, alpha: Fraction, k: Fraction,
            m: int) -> tuple[list[int], list[int]]:
    """The scaled form nums, steps of mu_0..mu_m of a scenario, built
    from order 0 in one pass.

    _fast_moment gives the orders below r.  Every later order is one
    step of the recurrence in integers.  The window holds the r orders
    before it over the running scale S = S_{n-1}, as integers w_i, so
    mu_n = num / (c_r(n-r) S) with num = -sum_i c_i(n-r) w_i.  One
    division num = q c_r(n-r) + rem, 0 <= rem < c_r(n-r), and
    g = gcd(rem, c_r(n-r)), which is gcd(num, c_r(n-r)), a number of a
    few hundred bits, give

        steps[n] = c_r(n-r) / g,  nums[n] = num / g = q steps[n] + rem / g,

    so the long num is divided once, and the window moves to the new
    scale by that step, a few tens of bits.  c_0(n-r)..c_r(n-r) are the
    slots of one packed value (_pack, whose width W bounds every |c_i(x)|
    up to x = m - r).  That value is the lowest (r + 1) W bits of one
    integer holding its whole forward-difference table (_differences):
    per order one mask reads it and one shift and one addition move the
    table on, in place of D additions, D = 20 for pt and 11 for diff, or
    a Horner pass of D products.  Shifts and masks read the slots in the
    loop.  A request below order r reads no table.
    """
    r = _ORDER[variable]
    nums, steps = _rescale(_fast_moment(variable, alpha, k, n)
                           for n in range(min(r, m + 1)))
    if m < r:
        return nums, steps
    width, packed = _pack(_recurrence(variable, alpha, k), m - r)
    shift = (r + 1) * width
    table = _differences(packed, shift)
    mask, slot, half = (1 << shift) - 1, (1 << width) - 1, 1 << width - 1
    window = [nums[i] * math.prod(steps[i + 1:]) for i in range(r)]
    kept = range(r - 1)
    for _ in range(r, m + 1):
        value = table & mask
        table += table >> shift
        num = 0
        for w in window:
            num -= ((value & slot) - half) * w
            value >>= width
        den = value - half
        q, rem = divmod(num, den)
        g = math.gcd(rem, den)
        step = den // g
        num = q * step + rem // g
        nums.append(num)
        steps.append(step)
        del window[0]
        for i in kept:
            window[i] *= step
        window.append(num)
    return nums, steps


def moment_sequence(scenario: Scenario, m: int) -> MomentSequence:
    """mu_0..mu_m for a scenario, computed afresh on every call.

    _scaled builds the scaled form from order 0 in one pass, and nothing
    is kept: the sequence lives as long as its caller holds it.  The
    commands use each scenario's moments once, right away, at the highest
    order they need.
    """
    if not is_order(m):
        raise DomainError(f"sequence order must be an integer >= 0, got {m!r}")
    nums, steps = _scaled(scenario.variable, scenario.alpha, scenario.k, m)
    return MomentSequence(scenario, tuple(nums), tuple(steps))
