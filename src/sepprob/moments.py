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
specialized to 2 alpha once per (variable, alpha), leaving each
coefficient a polynomial in 2k; a small memo keeps the last few alphas,
so the scenarios of a sweep that share an alpha share that set-up.  A
sequence then evaluates those polynomials at its 2k by Horner (924
steps for pt) and steps the recurrence in integers over one running
scale S: the r orders of the window are integers over S, each order is
one sum of r products, and one division of that sum by c_r, a number of
a few hundred bits, with one gcd of the small remainder and c_r, leaves
the order's numerator and the small factor (at most 34 bits up to order
1000) by which S grows.  The r + 1 values c_i(n - r) of an order are
the slots of one integer: the coefficients of each power of n are
packed, c_i in the bits iW..iW+W-1, plus a bias of 2^(W-1) per slot.
That packed polynomial moves from one order to the next by forward
differences, one addition per degree (20 for pt, 11 for diff) and no
product, and shifts and masks read the slots back.  W is one bit more
than the largest sum_d |c_{i,d}| (m - r)^d, which bounds |c_i(x)| for
0 <= x <= m - r, so it is derived afresh for each requested order m
and no slot borrows from the next.  No Fraction is reduced per order:
MomentSequence.mu reduces the moments once, for the callers that read
them as Fractions, and the tail's dot product reads the scaled form.
c_r has only positive coefficients, so every step is defined.
_fast_moment computes only the first r orders of a new scenario; a
longer request continues from the remembered orders.

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
import threading
from fractions import Fraction
from typing import Iterable, List, Tuple

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
            object.__setattr__(self, "variable", Variable(self.variable))
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
    divides S_n.  mu, the reduced Fractions, is built once, on first
    access.  A sequence built from Fractions keeps them as its mu and
    derives the scaled form by a running lcm.
    """

    def __init__(self, scenario: Scenario, mu: Iterable[Fraction]) -> None:
        mu = tuple(mu)
        if not mu or mu[0] != 1:
            raise DomainError("a moment sequence must start with mu_0 = 1")
        nums: List[int] = []
        steps: List[int] = []
        _rescale(mu, nums, steps)
        self.scenario, self.nums, self.steps = scenario, tuple(nums), \
            tuple(steps)
        self.mu = mu

    @classmethod
    def _scaled(cls, scenario: Scenario, nums: Tuple[int, ...],
                steps: Tuple[int, ...]) -> MomentSequence:
        seq = cls.__new__(cls)
        seq.scenario, seq.nums, seq.steps = scenario, nums, steps
        return seq

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
# Whole sequences: the certified recurrence in n, with memoization
# ---------------------------------------------------------------------------

_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "recurrences.txt")
# the order r of each variable's recurrence: the table holds c_0..c_r
_ORDER = {Variable.PT_DET: 3, Variable.DIFF: 2}


def _table_rows(variable: Variable):
    """(i, d, top, row) for each line of the variable's table: row holds
    the decimal coefficients of n^d in c_i, those of (2 alpha)^u (2k)^v of
    total degree at most top, in the order u = 0..top and for each u
    v = 0..top-u.  The table is read one line at a time, so that nothing of
    it stays in memory."""
    prefix = variable.value + " "
    with open(_TABLE, encoding="ascii") as fh:
        for line in fh:
            if line.startswith(prefix):
                _, i, d, top, *row = line.split()
                yield int(i), int(d), int(top), row


@functools.lru_cache(maxsize=4)
def _alpha_table(variable: Variable,
                 a2: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The variable's table at 2 alpha = a2: for each c_i and each power
    of n, the integer coefficients of a polynomial in 2k, ascending.

    Each row's runs of equal u hold the coefficients of (2 alpha)^u; the
    runs are summed by Horner in a2, coefficient by coefficient of 2k.
    One reading serves every k at this alpha, and the few most recent
    alphas are kept.
    """
    out: list[list[tuple[int, ...]]] = []
    for i, _, top, row in _table_rows(variable):
        if i == len(out):
            out.append([])
        runs, start = [], 0
        for u in range(top + 1):
            end = start + top - u + 1
            runs.append(map(int, row[start:end]))
            start = end
        poly: list[int] = []
        for run in reversed(runs):
            poly = [c + a2 * x for c, x in
                    itertools.zip_longest(run, poly, fillvalue=0)]
        out[i].append(tuple(poly))
    return tuple(map(tuple, out))


def _recurrence(variable: Variable, alpha: Fraction,
                k: Fraction) -> tuple[tuple[int, ...], ...]:
    """c_0..c_r of the scenario's recurrence, each as its integer
    coefficients in ascending powers of n: the table at this alpha,
    evaluated at 2k by Horner."""
    k2 = int(2 * k)
    return tuple(tuple(horner(poly, k2) for poly in c)
                 for c in _alpha_table(variable, int(2 * alpha)))


def _rescale(mu: Iterable[Fraction], nums: List[int],
             steps: List[int]) -> None:
    """Append mu to the scaled form nums, steps by a running lcm: each
    step is the part of the denominator that the scale so far lacks."""
    scale = math.prod(steps)
    for x in mu:
        step = x.denominator // math.gcd(scale, x.denominator)
        scale *= step
        nums.append(x.numerator * (scale // x.denominator))
        steps.append(step)


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


def _unpack(value: int, width: int, count: int) -> list[int]:
    """c_0(x)..c_r(x) from value = horner(P, x) of _pack: each slot less
    the bias; the top slot needs no mask."""
    mask, half = (1 << width) - 1, 1 << width - 1
    out = []
    for _ in range(count - 1):
        out.append((value & mask) - half)
        value >>= width
    out.append(value - half)
    return out


def _differences(packed: list[int], x: int) -> list[int]:
    """The forward differences Delta^0..Delta^D at x of the packed
    polynomial of _pack, D its degree: Delta^0 is horner(packed, x) and
    Delta^D is constant.  Adding each difference to the one below it,
    Delta^j += Delta^(j+1), moves the whole table from x to x + 1.

    The values at x..x+D that the table starts from are exact integers
    even where x + j lies past the range that _pack's width covers; only
    Delta^0 at an order inside that range is ever unpacked.
    """
    values = [horner(packed, x + j) for j in range(len(packed))]
    table = []
    while values:
        table.append(values[0])
        values = list(map(operator.sub, values[1:], values))
    return table


def _extend(variable: Variable, alpha: Fraction, k: Fraction,
            nums: List[int], steps: List[int], m: int) -> None:
    """Extend the scaled form nums, steps of a scenario to order m, in
    place.

    _fast_moment gives the orders below r that are missing.  Every later
    order is one step of the recurrence in integers.  The window holds the
    r orders before it over the running scale S = S_{n-1}, as integers w_i,
    so mu_n = num / (c_r(n-r) S) with num = -sum_i c_i(n-r) w_i.  One
    division num = q c_r(n-r) + rem, 0 <= rem < c_r(n-r), and
    g = gcd(rem, c_r(n-r)), which is gcd(num, c_r(n-r)), a number of a
    few hundred bits, give

        steps[n] = c_r(n-r) / g,  nums[n] = num / g = q steps[n] + rem / g,

    so the long num is divided once, and the window moves to the new
    scale by that step, a few tens of bits.  c_0(n-r)..c_r(n-r) are the
    slots of one packed value (_pack, whose width W bounds every |c_i(x)|
    up to x = m - r, so each stretch derives W afresh from its own m).
    That value steps by forward differences (_differences): per order one
    map of D additions, D = 20 for pt and 11 for diff, in place of a
    Horner pass of D products.  A stretch continues from the remembered
    orders, so no order is computed twice, and a request below order r
    reads no table.
    """
    r = _ORDER[variable]
    n = len(nums)
    _rescale((_fast_moment(variable, alpha, k, i)
              for i in range(n, min(r, m + 1))), nums, steps)
    n = len(nums)
    if n > m:
        return
    width, packed = _pack(_recurrence(variable, alpha, k), m - r)
    table = _differences(packed, n - r)
    window = [nums[i] * math.prod(steps[i + 1:n]) for i in range(n - r, n)]
    for n in range(n, m + 1):
        *lower, den = _unpack(table[0], width, r + 1)
        table = [*map(operator.add, table, table[1:]), table[-1]]
        q, rem = divmod(-sum(map(operator.mul, lower, window)), den)
        g = math.gcd(rem, den)
        step = den // g
        num = q * step + rem // g
        nums.append(num)
        steps.append(step)
        window = [w * step for w in window[1:]]
        window.append(num)


# LRU bound on the memo: the bits of the scaled forms it keeps
_SEQ_MEMO_BITS = 1 << 26
_SEQ_MEMO: dict[tuple[Variable, Fraction, Fraction],
                tuple[MomentSequence, int]] = {}
_SEQ_LOCK = threading.Lock()


def _bits(seq: MomentSequence) -> int:
    return sum(x.bit_length() for x in itertools.chain(seq.nums, seq.steps))


def moment_sequence(scenario: Scenario, m: int) -> MomentSequence:
    """mu_0..mu_m for a scenario, memoized per process.

    Only computed orders enter the memo.  A longer request extends the
    remembered sequence from its last orders.  The memo keeps the most
    recently used sequences while their scaled forms hold at most
    _SEQ_MEMO_BITS bits in all, and always the latest one; each kept
    sequence builds its mu at most once.
    """
    if not is_order(m):
        raise DomainError(f"sequence order must be an integer >= 0, got {m!r}")
    key = (scenario.variable, scenario.alpha, scenario.k)
    with _SEQ_LOCK:
        hit = _SEQ_MEMO.pop(key, None)
        if hit is not None:
            _SEQ_MEMO[key] = hit            # the most recent goes last
    seq = hit[0] if hit else None
    if seq is None or seq.order < m:
        nums = list(seq.nums) if seq else []
        steps = list(seq.steps) if seq else []
        _extend(scenario.variable, scenario.alpha, scenario.k, nums, steps, m)
        seq = MomentSequence._scaled(scenario, tuple(nums), tuple(steps))
        bits = _bits(seq)
        with _SEQ_LOCK:
            old = _SEQ_MEMO.pop(key, None)
            _SEQ_MEMO[key] = (seq, bits) if old is None \
                or old[0].order < seq.order else old
            total = sum(b for _, b in _SEQ_MEMO.values())
            while total > _SEQ_MEMO_BITS and len(_SEQ_MEMO) > 1:
                total -= _SEQ_MEMO.pop(next(iter(_SEQ_MEMO)))[1]
    if seq.order == m:
        return seq
    prefix = MomentSequence._scaled(scenario, seq.nums[:m + 1],
                                    seq.steps[:m + 1])
    if "mu" in seq.__dict__:
        prefix.mu = seq.mu[:m + 1]
    return prefix
