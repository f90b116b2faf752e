"""Independently coded reference implementations for cross-checking.

The moment oracles evaluate the two determinantal moment formulas straight
from their raw hypergeometric parameter lists, without the duplication
identity rewrite the library uses.  Each linear factor is carried as a
(value, slope) pair describing its behavior under the perturbation
k -> k + eps; a term that degenerates to 0/0 at integer k is resolved by
pairing zero factors against zero factors and taking the ratio of their
slopes, which is the exact eps -> 0 limit of the term.

The Gegenbauer table oracle builds the B / eta / g tables by their defining
three-term recurrences in plain Fractions, one entry at a time, for checking
the library's scaled-integer coefficient stream.  value_and_slope reads a
polynomial and its slope at a point from its coefficients by Horner, the
check of the bank's cut-point values.

The reconstruction oracles answer best-approximation and uniqueness
questions by exhaustive scan over every denominator up to the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from sepprob.errors import DomainError
from sepprob.exactnum import as_rational, pochhammer

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

Factor = Tuple[Fraction, Fraction]


def _poch_factors(base: Fraction, slope: Fraction, count: int) -> List[Factor]:
    return [(base + i, slope) for i in range(count)]


def _plain_poch(base: Fraction, count: int) -> Fraction:
    out = Fraction(1)
    for i in range(count):
        out *= base + i
    return out


def _term_limit(numer: List[Factor], denom: List[Factor]) -> Fraction:
    num_zero_slopes = [s for v, s in numer if v == 0]
    den_zero_slopes = [s for v, s in denom if v == 0]
    if any(s == 0 for s in den_zero_slopes):
        raise ZeroDivisionError("denominator vanishes for every eps")
    if any(s == 0 for s in num_zero_slopes):
        return Fraction(0)
    if len(num_zero_slopes) > len(den_zero_slopes):
        return Fraction(0)
    if len(num_zero_slopes) < len(den_zero_slopes):
        raise ZeroDivisionError("term diverges as eps -> 0")
    num = Fraction(1)
    for v, s in numer:
        num *= s if v == 0 else v
    den = Fraction(1)
    for v, s in denom:
        den *= s if v == 0 else v
    return num / den


def pt_moment_oracle(alpha, k, n: int) -> Fraction:
    """<|rho^PT|^n |rho|^k> / <|rho|^k> from the raw 5F4 term list."""
    a, kf = as_rational(alpha), as_rational(k)
    pre = (_plain_poch(kf + 1, n) * _plain_poch(kf + 1 + a, n)
           * _plain_poch(kf + 1 + 2 * a, n)) / (
        Fraction(2) ** (6 * n)
        * _plain_poch(kf + 3 * a + Fraction(3, 2), n)
        * _plain_poch(2 * kf + 6 * a + Fraction(5, 2), 2 * n))
    total = Fraction(0)
    for j in range(n + 1):
        numer = (_poch_factors(Fraction(-n), ZERO, j)
                 + _poch_factors(-kf, -ONE, j)
                 + _poch_factors(a, ZERO, j)
                 + _poch_factors(a + HALF, ZERO, j)
                 + _poch_factors(-2 * kf - 2 * n - 1 - 5 * a, -2 * ONE, j))
        denom = (_poch_factors(-kf - n - a, -ONE, j)
                 + _poch_factors(-kf - n - 2 * a, -ONE, j)
                 + _poch_factors(-(kf + n) / 2, -HALF, j)
                 + _poch_factors(-(kf + n - 1) / 2, -HALF, j)
                 + _poch_factors(ONE, ZERO, j))
        total += _term_limit(numer, denom)
    return pre * total


def diff_moment_oracle(alpha, k, n: int) -> Fraction:
    """<|rho|^k (|rho^PT| - |rho|)^n> / <|rho|^k> from the raw 4F3 term list.

    The loop runs to n rather than floor(n/2); the slope machinery turns
    every term past the natural termination point into an exact zero.
    """
    a, kf = as_rational(alpha), as_rational(k)
    pre = Fraction(-1) ** n * (
        _plain_poch(a, n) * _plain_poch(a + HALF, n)
        * _plain_poch(n + 2 * kf + 2 + 5 * a, n)) / (
        Fraction(2) ** (4 * n)
        * _plain_poch(kf + 3 * a + Fraction(3, 2), n)
        * _plain_poch(2 * kf + 6 * a + Fraction(5, 2), 2 * n))
    total = Fraction(0)
    for j in range(n + 1):
        numer = (_poch_factors(Fraction(-n, 2), ZERO, j)
                 + _poch_factors(Fraction(1 - n, 2), ZERO, j)
                 + _poch_factors(kf + 1 + a, ONE, j)
                 + _poch_factors(kf + 1 + 2 * a, ONE, j))
        denom = (_poch_factors(1 - n - a, ZERO, j)
                 + _poch_factors(HALF - n - a, ZERO, j)
                 + _poch_factors(n + 2 * kf + 2 + 5 * a, 2 * ONE, j)
                 + _poch_factors(ONE, ZERO, j))
        total += _term_limit(numer, denom)
    return pre * total


@dataclass(frozen=True)
class GegenbauerTables:
    """Exact recurrence tables for one (interval, weight exponent, order).

    B is the lower-triangular coefficient table of the shifted polynomials
    around c0, eta the normalized structure constants (eta_0 = 1) and g the
    shifted-weight polynomial values at the mapped cut point
    zeta = c0 + c1 xi.
    """

    alpha_w: int
    m: int
    c0: Fraction
    c1: Fraction
    zeta: Fraction
    B: Tuple[Tuple[Fraction, ...], ...]
    eta: Tuple[Fraction, ...]
    g: Tuple[Fraction, ...]


def build_tables(interval, alpha_w: int, m: int,
                 xi=0) -> GegenbauerTables:
    """Compute the B / eta / g tables by their defining recurrences, with
    g for the cut point xi."""
    if isinstance(alpha_w, bool) or not isinstance(alpha_w, int) or alpha_w < 0:
        raise DomainError(
            f"weight exponent must be a nonnegative integer, got {alpha_w!r}")
    if m < 0:
        raise DomainError(f"truncation order must be >= 0, got {m}")
    lo, hi = as_rational(interval[0]), as_rational(interval[1])
    if not lo < hi:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    c0, c1 = -(lo + hi) / (hi - lo), 2 / (hi - lo)
    zeta = c0 + c1 * as_rational(xi)
    a = alpha_w

    rows: List[Tuple[Fraction, ...]] = [(Fraction(1),)]
    if m >= 1:
        rows.append((c0, Fraction(1)))
    for n in range(2, m + 1):
        prev, prev2 = rows[n - 1], rows[n - 2]
        lead = Fraction(2 * n + 2 * a - 1, n + 2 * a)
        drag = Fraction(n - 1, n + 2 * a)
        row = []
        for j in range(n + 1):
            t = c0 * prev[j] if j <= n - 1 else Fraction(0)
            if j >= 1:
                t += prev[j - 1]
            t *= lead
            if j <= n - 2:
                t -= drag * prev2[j]
            row.append(t)
        rows.append(tuple(row))

    eta = [Fraction(1)]
    for n in range(1, m + 1):
        eta.append(eta[-1] * Fraction(n * (2 * n + 2 * a - 1),
                                      (2 * n + 2 * a + 1) * (n + 2 * a)))

    g: List[Fraction] = []
    if m >= 1:
        g.append(Fraction(1))
    if m >= 2:
        g.append(zeta)
    for n in range(3, m + 1):
        g.append((Fraction(2 * n + 2 * a - 1, n + 2 * a + 1) * zeta * g[-1]
                  - Fraction(n - 2, n + 2 * a + 1) * g[-2]))

    return GegenbauerTables(alpha_w=a, m=m, c0=c0, c1=c1, zeta=zeta,
                            B=tuple(rows), eta=tuple(eta), g=tuple(g))


def value_and_slope(u: Iterable[int], x: int) -> Tuple[int, int]:
    """sum_k u_k x^k and its derivative in x, by one Horner pass over the
    u_k from the highest degree down: the cut-point values that the bank
    once read from two whole Taylor rows."""
    value = slope = 0
    for c in u:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def tail_coeffs_from_tables(tables) -> Tuple[Fraction, ...]:
    """A_0..A_m for the tail past the tables' cut point, assembled from
    explicit tables.

    Follows the documented linear functional directly: A_0 = q0/h0 +
    (q1/h0) sum_j (g_j/eta_j) B[j][0] and A_i = c1^i (q1/h0)
    sum_{j>=i} (g_j/eta_j) B[j][i], with the tables' zeta and the structure
    constant h0 recomputed from gamma values rather than taken from the
    inversion module.
    """
    a = tables.alpha_w
    zeta = tables.zeta
    # Gamma(1/2) Gamma(a+1) / Gamma(a+3/2), with Gamma(a+3/2) =
    # (1/2)_(a+1) Gamma(1/2)
    h0 = math.factorial(a) / pochhammer(HALF, a + 1)
    q0 = sum(Fraction(math.comb(a, r) * (-1) ** r, 2 * r + 1)
             * (1 - zeta ** (2 * r + 1)) for r in range(a + 1))
    q1 = (1 - zeta * zeta) ** (a + 1) / (2 * (a + 1))
    qh = q1 / h0
    out = []
    for i in range(tables.m + 1):
        acc = Fraction(0)
        for j in range(max(i, 1), tables.m + 1):
            acc += tables.g[j - 1] / tables.eta[j] * tables.B[j][i]
        if i == 0:
            out.append(q0 / h0 + qh * acc)
        else:
            out.append(tables.c1 ** i * qh * acc)
    return tuple(out)


def best_rational_scan(x: Fraction, bound: int) -> Fraction:
    """Closest fraction to x with denominator <= bound, by brute force.

    Ties on distance go to the smaller denominator, matching the library's
    continued-fraction tie rule.
    """
    best = None
    best_dist = None
    for q in range(1, bound + 1):
        mid = round(x * q)
        for p in (mid - 1, mid, mid + 1):
            cand = Fraction(p, q)
            dist = abs(x - cand)
            if best is None or dist < best_dist or (
                    dist == best_dist
                    and cand.denominator < best.denominator):
                best, best_dist = cand, dist
    return best


def window_fractions_scan(x: Fraction, eps: Fraction,
                          bound: int) -> List[Fraction]:
    """Every reduced fraction with denominator <= bound in [x-eps, x+eps]."""
    lo, hi = x - eps, x + eps
    found = set()
    for q in range(1, bound + 1):
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            found.add(Fraction(p, q))
    return sorted(found)
