"""The recurrences in n that serve the exact moment sequences.

moment_sequence runs, for each variable, sum_i c_i(n) mu_{n+i} = 0 with
the integer polynomial coefficients of src/sepprob/recurrences.bin.  Two
kinds of test cover it:

* The certificate test proves the recurrence.  With the summand F of
  mu_n = sum_j F(n, j) and the certificate R of
  tests/recurrence_certificates.py, it checks the telescoping identity

      sum_i c_i(n) F(n+i, j) = R(n, j+1) F(n, j+1) - R(n, j) F(n, j)

  as an identity of rational functions in n, j, 2 alpha and 2k, by exact
  expansion, and then the boundary terms: R F vanishes at j = 0 and just
  past the support of F(n+r, .), and every rational function the
  summation meets is finite on it for generic alpha and k.  Summing over
  j then gives the recurrence for generic alpha and k, and, since each
  mu_n is a rational function of alpha and k, for every scenario; the
  pt sum's 0/0 limits at integer k < n need no case of their own.
* The served sequences are compared with the direct sums of
  pt_moment/diff_moment, at the 0/0 orders among others, and so are
  stretches started at any order; the leading coefficient is shown never
  to vanish, and the specialized coefficients are compared with the
  table's terms.
"""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import recurrence_certificates as cert
from sepprob import moments
from sepprob.moments import Scenario, Variable, diff_moment, \
    moment_sequence, pt_moment

HALF = Fraction(1, 2)
ALPHAS = (HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
KS = tuple(Fraction(t, 2) for t in range(13))          # 0, 1/2, ..., 6
DIRECT = {Variable.PT_DET: pt_moment, Variable.DIFF: diff_moment}

# A linear form is the integer coefficients of (1, n, j, a2, k2), with
# a2 = 2 alpha and k2 = 2k.
COUNT = {"n": (0, 2, 0, 0, 0), "2n": (0, 4, 0, 0, 0),
         "j": (0, 0, 2, 0, 0), "2j": (0, 0, 4, 0, 0)}


def table_terms(variable):
    """(i, d, u, v, coeff) for each term coeff n^d (2 alpha)^u (2k)^v of
    each recurrence coefficient c_i, expanded from the table's records,
    whose coefficients run v-major: v = 0..top and for each v
    u = 0..top-v."""
    for i, d, top, coeffs in moments._table_rows(Variable(variable)):
        values = iter(coeffs)
        for v in range(top + 1):
            for u in range(top - v + 1):
                yield i, d, u, v, next(values)


def order(variable):
    """r, the order of the variable's recurrence."""
    return max(i for i, *_ in table_terms(variable))


# ---------------------------------------------------------------------------
# Term ratios as products of linear forms
# ---------------------------------------------------------------------------

def ratio(term, dn, dj):
    """F(n+dn, j+dj) / F(n, j) as (constant, Counter of forms to their
    exponents).  F is cn^n cj^j prod rising2(L, count)^e, and
    rising2(L, count) = Gamma2(L + 2 count) / Gamma2(L) with
    Gamma2(M + 2) = M Gamma2(M)."""
    forms = Counter()
    for form, count, e in term["rising"]:
        for m, sign in ((tuple(x + y for x, y in zip(form, COUNT[count])), e),
                        (form, -e)):
            shift = dn * m[1] + dj * m[2]
            assert shift % 2 == 0
            s = shift // 2
            if s >= 0:
                for i in range(s):
                    forms[(m[0] + 2 * i,) + m[1:]] += sign
            else:
                for i in range(1, -s + 1):
                    forms[(m[0] - 2 * i,) + m[1:]] -= sign
    const = term["cn"] ** dn * term["cj"] ** dj
    return const, Counter({f: e for f, e in forms.items() if e})


def at(form, n, j, a2, k2):
    return form[0] + form[1] * n + form[2] * j + form[3] * a2 + form[4] * k2


def shift_j(form):
    """The form with j replaced by j + 1."""
    return (form[0] + form[2],) + form[1:]


def normalized(form):
    """(unit, primitive form): form = unit * primitive form, with the first
    nonzero coefficient of the primitive form positive."""
    g = gcd(*form)
    lead = next(x for x in form if x)
    unit = g if lead > 0 else -g
    return unit, tuple(x // unit for x in form)


def safe(form):
    """True when the form cannot vanish at integers n, j >= 0 for generic
    alpha and k: it depends on alpha or k, or its coefficients of 1, n and
    j share a sign and its constant is nonzero."""
    if form[3] or form[4]:
        return True
    c, n, j = form[:3]
    return c != 0 and (min(c, n, j) >= 0 or max(c, n, j) <= 0)


def reduced(factors):
    """A Counter of forms with every form normalized, and the unit."""
    unit, out = Fraction(1), Counter()
    for form, e in factors.items():
        u, f = normalized(form)
        unit *= Fraction(u) ** e
        out[f] += e
    return unit, Counter({f: e for f, e in out.items() if e})


# ---------------------------------------------------------------------------
# Packed polynomials
# ---------------------------------------------------------------------------
#
# A polynomial in n, j, a2, k2 is kept as {(deg a2, deg k2): P(X, Y)}: its
# value at n = X = 2^B, j = Y = X^Dn.  Evaluation is a ring homomorphism,
# so sums and products of packed polynomials are exact, and every
# multiplication by n or j is a shift.  When the result Q has degree < Dn
# in n and every coefficient below 2^(B-1) in absolute value, each packed
# value sum_(u, v) c X^u Y^v = sum_t c 2^(B t) has one term per (u, v) and
# determines its coefficients, so Q is zero exactly when every packed
# value is.  Both bounds are computed from the terms before packing: the
# degrees add, and a coefficient is at most the sum over terms of the
# products of their L1 norms.

class Packing:
    def __init__(self, bits, dn):
        self.bits, self.jbits = bits, bits * dn
        self.x, self.y = 1 << bits, 1 << (bits * dn)

    def times_form(self, poly, f):
        out = {}
        for (ea, ek), z in poly.items():
            low = f[0] * z
            if f[1]:
                low += f[1] * (z << self.bits)
            if f[2]:
                low += f[2] * (z << self.jbits)
            for key, value in (((ea, ek), low), ((ea + 1, ek), f[3] * z),
                               ((ea, ek + 1), f[4] * z)):
                if value:
                    out[key] = out.get(key, 0) + value
        return out

    def poly(self, entries, j_shift=0):
        """Pack sum coeff n^u j^v a2^x k2^y from (u, v, x, y, coeff)."""
        y = self.y + j_shift
        by_key = {}
        for u, v, ea, ek, coeff in entries:
            by_key.setdefault((ea, ek), {}).setdefault(v, []).append(
                (u, coeff))
        out = {}
        for key, by_v in by_key.items():
            value = 0
            for v in range(max(by_v), -1, -1):      # Horner in j
                value = value * y + sum(c * self.x ** u
                                        for u, c in by_v.get(v, ()))
            out[key] = value
        return out


def l1(entries):
    return sum(abs(e[-1]) for e in entries)


def degree(entries, var):
    return max((e[var] for e in entries), default=0)


def identity_terms(variable):
    """The telescoping identity times d0 as terms (constant, polynomial
    entries (u, v, x, y, coeff) in n, j, a2, k2, j shift of the polynomial,
    Counter of forms): their sum must vanish."""
    term = cert.TERMS[variable]
    den = Counter(cert.DEN[variable])
    d0 = cert.D0[variable]
    terms = []
    coeffs = list(table_terms(variable))
    for i in range(order(variable) + 1):
        const, forms = ratio(term, i, 0)
        entries = [(d, 0, ea, ek, c) for ii, d, ea, ek, c in coeffs
                   if ii == i]
        terms.append((const * d0, entries, 0, forms))
    num = cert.NUM[variable]
    const, forms = ratio(term, 0, 1)
    for f, e in den.items():
        forms[shift_j(f)] -= e
    terms.append((-const, num, 1, forms))
    terms.append((Fraction(1), num, 0, Counter({f: -e for f, e
                                                 in den.items()})))
    return terms


def expand_and_check(terms):
    """True when the terms sum to the zero rational function."""
    units = []
    for const, entries, js, forms in terms:
        unit, forms = reduced(forms)
        units.append((const * unit, entries, js, forms))
    # multiply through by the forms' common denominator and by the
    # constants' common denominator, dividing out common numerator forms
    all_forms = set().union(*(f for *_, f in units))
    low = {f: min(t[3][f] for t in units) for f in all_forms}
    scale = lcm(*(t[0].denominator for t in units))
    work = [(int(const * scale), entries, js,
             Counter({f: forms[f] - low[f] for f in all_forms
                      if forms[f] > low[f]}))
            for const, entries, js, forms in units]
    # injectivity bounds of the packing
    dn = max(degree(e, 0) + sum(x for f, x in fs.items() if f[1])
             for _, e, _, fs in work) + 1
    bound = sum(abs(c) * l1(e) * 2 ** (degree(e, 1) * js)
                * prod(sum(map(abs, f)) ** x for f, x in fs.items())
                for c, e, js, fs in work)
    pack = Packing(bound.bit_length() + 2, dn)
    total = {}
    for c, entries, js, forms in work:
        poly = pack.poly(entries, js)
        for f, x in sorted(forms.items()):
            for _ in range(x):
                poly = pack.times_form(poly, f)
        for key, z in poly.items():
            total[key] = total.get(key, 0) + c * z
    return all(z == 0 for z in total.values())


def term_value(term, n, j, a2, k2):
    """F(n, j) exactly, from the rising products of its definition."""
    value = term["cn"] ** n * term["cj"] ** j
    for form, count, e in term["rising"]:
        start = at(form, n, j, a2, k2)
        steps = at(COUNT[count], n, j, a2, k2) // 2
        value *= Fraction(prod(range(start, start + 2 * steps, 2))) ** e
    return value


# ---------------------------------------------------------------------------
# The certificate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variable", ["pt", "diff"])
def test_terms_sum_to_the_moments(variable):
    # the summand the certificate is about is the one the library sums:
    # at half-integer k no term is a 0/0 form
    direct = DIRECT[Variable(variable)]
    for alpha in (HALF, Fraction(2)):
        for k in (HALF, Fraction(7, 2)):
            a2, k2 = int(2 * alpha), int(2 * k)
            for n in range(9):
                total = sum(term_value(cert.TERMS[variable], n, j, a2, k2)
                            for j in range(n + 1))
                assert total == direct(alpha, k, n), (alpha, k, n)


@pytest.mark.parametrize("variable", ["pt", "diff"])
def test_certificate_identity(variable):
    assert expand_and_check(identity_terms(variable))


def test_certificate_check_rejects_a_wrong_certificate(monkeypatch):
    num = list(cert.NUM["diff"])
    u, v, ea, ek, c = num[len(num) // 2]
    num[len(num) // 2] = (u, v, ea, ek, c + 1)
    monkeypatch.setitem(cert.NUM, "diff", tuple(num))
    assert not expand_and_check(identity_terms("diff"))


@pytest.mark.parametrize("variable", ["pt", "diff"])
def test_certificate_boundary_terms(variable):
    term = cert.TERMS[variable]
    r = order(variable)
    # F(n, j) carries rising2(-2n, j) or rising2(-2n, 2j), so it vanishes
    # for j > n, and the sums run over j = 0..n+r
    assert any(form == (0, -2, 0, 0, 0) and e == 1
               for form, _, e in term["rising"])
    # G = R F vanishes at j = 0
    assert all(v >= 1 for _, v, _, _, _ in cert.NUM[variable])
    # With F(n+r, j) as the base, every rational function of the sum over
    # j = 0..n+r is finite there for generic alpha and k: the other
    # summands F(n+i, j) / F(n+r, j), the certificate
    # sigma = R F(n, j) / F(n+r, j) and the base's own step
    # F(n+r, j+1) / F(n+r, j).  Then G(n, n+r+1) = sigma F(n+r, n+r+1) = 0.
    rho_r = ratio(term, r, 0)[1]
    rationals = [_quotient(ratio(term, i, 0)[1], rho_r) for i in range(r)]
    rationals.append(_quotient(_quotient(Counter(), Counter(
        cert.DEN[variable])), rho_r))
    rationals.append(Counter({(f[0] + r * f[1],) + f[1:]: e
                              for f, e in ratio(term, 0, 1)[1].items()}))
    for forms in rationals:
        _, forms = reduced(forms)
        assert all(safe(f) for f, e in forms.items() if e < 0), forms


def _quotient(top, bottom):
    """The forms of top / bottom, with exponents of either sign."""
    out = Counter(top)
    for f, e in bottom.items():
        out[f] -= e
    return out


# ---------------------------------------------------------------------------
# The served sequences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variable", list(Variable))
def test_leading_coefficient_never_vanishes(variable):
    # c_r has no negative coefficient and a positive constant term, so
    # c_r(n) > 0 at n >= 0 for every alpha >= 1/2 and k >= 0: past its
    # first r orders no stretch of a sequence needs a direct sum
    r = order(variable.value)
    lead = [(d, ea, ek, c) for i, d, ea, ek, c
            in table_terms(variable) if i == r]
    assert all(c > 0 for *_, c in lead if c)
    assert any(c > 0 for d, ea, ek, c in lead if d == ea == ek == 0)


@pytest.mark.parametrize("variable", list(Variable))
def test_served_sequences_match_direct_sums(variable):
    # n <= 80 covers every 0/0 order of the 5F4 at integer k <= 6
    direct = DIRECT[variable]
    for alpha in ALPHAS:
        for k in KS:
            seq = moment_sequence(Scenario(variable, alpha, k), 80)
            assert seq.mu == tuple(direct(alpha, k, n) for n in range(81)), \
                (alpha, k)


@pytest.mark.parametrize("variable", list(Variable))
def test_specialized_coefficients_match_table_terms(variable):
    # the nested Horner evaluation of each row against the term-by-term
    # sum of coeff (2 alpha)^u (2k)^v over the raw table
    terms = list(table_terms(variable))
    for alpha in (HALF, Fraction(3, 2), Fraction(2)):
        for k in (Fraction(0), Fraction(5, 2), Fraction(6)):
            a2, k2 = int(2 * alpha), int(2 * k)
            expect = [[0] * (1 + max(d for ii, d, *_ in terms if ii == i))
                      for i in range(order(variable) + 1)]
            for i, d, u, v, c in terms:
                expect[i][d] += c * a2 ** u * k2 ** v
            assert moments._recurrence(variable, alpha, k) == \
                tuple(map(tuple, expect)), (alpha, k)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(Variable)), st.integers(1, 8), st.integers(0, 16),
       st.integers(0, 60))
def test_integer_steps_from_any_stretch_start(variable, a2, k2, m):
    # the integer steps pass the 0/0 orders of integer k < n too
    alpha, k = Fraction(a2, 2), Fraction(k2, 2)
    nums, steps = moments._scaled(variable, alpha, k, m)
    assert len(nums) == len(steps) == m + 1
    assert [Fraction(x, prod(steps[:n + 1]))
            for n, x in enumerate(nums)] == \
        [moments._fast_moment(variable, alpha, k, n) for n in range(m + 1)]


def test_table_rows_are_whole():
    # each record holds one full triangle of integer coefficients, and
    # each variable's records run c_0..c_r in order, those of every c_i
    # d = 0..D with total degree D - d
    for variable in Variable:
        rows = {}
        for i, d, top, coeffs in moments._table_rows(variable):
            assert all(type(c) is int for c in coeffs), (variable, i, d)
            assert len(coeffs) == (top + 1) * (top + 2) // 2, (variable, i, d)
            assert i >= max(rows, default=0), (variable, i, d)
            rows.setdefault(i, []).append((d, top))
        assert list(rows) == list(range(moments._ORDER[variable] + 1))
        for i, ds in rows.items():
            deg = len(ds) - 1
            assert ds == [(d, deg - d) for d in range(deg + 1)], (variable, i)
