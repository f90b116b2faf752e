#!/usr/bin/env python3
"""Derive and write the certified recurrences in n of the exact moments.

Both moment families are sums mu_n = sum_j F(n, j) of a hypergeometric
term F in n and j.  Zeilberger's creative telescoping (Zeilberger 1991;
Petkovsek, Wilf and Zeilberger, "A = B", ch. 6) gives polynomials
c_0..c_r in n and a rational certificate R(n, j) with

    sum_i c_i(n) F(n+i, j) = G(n, j+1) - G(n, j),   G = R F,

so summing over j gives sum_i c_i(n) mu_{n+i} = 0.  Everything is a
polynomial in n, j, a2 = 2 alpha and k2 = 2k.

This script finds c and R by evaluation and interpolation instead of
symbolic algebra.  For each of a few 61-bit primes p, at a product grid of
random (a2, k2) in GF(p):

* the moments mod p give the recurrence by guessing: the one-dimensional
  nullspace of the order-r, degree-D ansatz, scaled so that the n^D
  coefficient of c_r is 1;
* the partial sums G(n, j) = sum_{j'<j} sum_i c_i(n) F(n+i, j') give the
  certificate's numerator N = R D at an (n, j) grid, where the
  denominator D is a product of linear forms read off the term ratios.

Interpolation in n, j, a2 and k2 gives every coefficient mod p; the
Chinese remainder theorem and rational reconstruction over the primes
give it in Q once two prime counts agree.  Primes come in batches of
BATCH, one per worker process, so the counts compared, and with them the
output, do not depend on the machine.  Scaling to coprime integers
then fixes c, and N over an integer d0 fixes R = N / (d0 D).  The result
is checked against exact moments at a few scenarios; the exact proof, the
telescoping identity as a rational-function identity with its boundary
terms, is ``tests/test_recurrence.py``.

The orders, degree bounds and denominators below come from a mod-p probe
of the same kind; a bound that is too small fails the guess, the check
against exact moments or the certificate test.  Grids and primes are
fixed, so a rerun rewrites both outputs byte for byte:

    python3 tools/derive_recurrences.py      # about 7 minutes on 2 cores

writes ``src/sepprob/recurrences.bin`` (the coefficients c, which
``sepprob.moments`` serves, as binary records: see write_recurrences)
and ``tests/recurrence_certificates.py`` (the terms F and the
certificates, which only the test reads), and prints each variable's
CRC-32 sum, which ``sepprob.moments._CRC`` must hold.
"""

from __future__ import annotations

import argparse
import marshal
import multiprocessing
import random
import sys
import zlib
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A linear form is a tuple of integer coefficients of (1, n, j, a2, k2).
# A term is F(n, j) = cn^n cj^j prod rising2(L, count)^e, where
# rising2(L, count) = L (L+2) ... (L+2(count-1)) and count is n, 2n, j or 2j;
# these are the factors _fast_moment multiplies.
COUNT = {"n": (0, 2, 0, 0, 0), "2n": (0, 4, 0, 0, 0),
         "j": (0, 0, 2, 0, 0), "2j": (0, 0, 4, 0, 0)}     # 2 * count

TERMS = {
    "pt": {
        "cn": Fraction(1, 64), "cj": Fraction(4),
        "rising": (
            ((2, 0, 0, 0, 1), "n", 1), ((2, 0, 0, 1, 1), "n", 1),
            ((2, 0, 0, 2, 1), "n", 1), ((3, 0, 0, 3, 1), "n", -1),
            ((5, 0, 0, 6, 2), "2n", -1),
            ((0, -2, 0, 0, 0), "j", 1), ((0, 0, 0, 0, -1), "j", 1),
            ((0, 0, 0, 1, 0), "j", 1), ((1, 0, 0, 1, 0), "j", 1),
            ((-2, -4, 0, -5, -2), "j", 1),
            ((0, -2, 0, -1, -1), "j", -1), ((0, -2, 0, -2, -1), "j", -1),
            ((0, -2, 0, 0, -1), "2j", -1), ((2, 0, 0, 0, 0), "j", -1)),
    },
    "diff": {
        "cn": Fraction(-1, 16), "cj": Fraction(1, 4),
        "rising": (
            ((0, 0, 0, 1, 0), "n", 1), ((1, 0, 0, 1, 0), "n", 1),
            ((4, 2, 0, 5, 2), "n", 1), ((3, 0, 0, 3, 1), "n", -1),
            ((5, 0, 0, 6, 2), "2n", -1),
            ((0, -2, 0, 0, 0), "2j", 1), ((2, 0, 0, 1, 1), "j", 1),
            ((2, 0, 0, 2, 1), "j", 1),
            ((2, -2, 0, -1, 0), "j", -1), ((1, -2, 0, -1, 0), "j", -1),
            ((4, 2, 0, 5, 2), "j", -1), ((2, 0, 0, 0, 0), "j", -1)),
    },
}

# order r, degree D of the c_i in n (also their total degree in n, a2, k2),
# the certificate denominator's linear forms, and N's degrees in n, j, a2, k2
SHAPES = {
    "pt": {"order": 3, "degree": 20,
           "den": ((-1, -1, 1, 0, 0), (-2, -1, 1, 0, 0), (-3, -1, 1, 0, 0),
                   (-4, -4, 2, -5, -2), (-6, -4, 2, -5, -2),
                   (-8, -4, 2, -5, -2), (-10, -4, 2, -5, -2),
                   (-12, -4, 2, -5, -2), (-14, -4, 2, -5, -2),
                   (3, 2, 0, 3, 1)),
           "num_degrees": (29, 11, 24, 27)},
    "diff": {"order": 2, "degree": 11,
             "den": ((-1, -1, 2, 0, 0), (-2, -1, 2, 0, 0),
                     (4, 2, 2, 5, 2), (3, 2, 0, 3, 1)),
             "num_degrees": (14, 5, 13, 9)},
}

def primes():
    """The primes below 2^61, downwards (deterministic Miller-Rabin)."""
    q = 1 << 61
    while True:
        q -= 1
        if q % 2 and all(pow(b, q - 1, q) == 1 for b in (2, 3)) and \
                _strong_probable_prime(q):
            yield q


def _strong_probable_prime(q: int) -> bool:
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Term ratios
# ---------------------------------------------------------------------------

def gamma2_terms(term) -> dict:
    """F as cn^n cj^j prod Gamma2(M)^e, with Gamma2(M + 2s) / Gamma2(M) =
    M (M+2) ... (M+2(s-1)); rising2(L, count) = Gamma2(L + 2 count) /
    Gamma2(L)."""
    out: Counter = Counter()
    for form, count, e in term["rising"]:
        out[tuple(x + y for x, y in zip(form, COUNT[count]))] += e
        out[form] -= e
    return {m: e for m, e in out.items() if e}


def ratio(term, dn: int, dj: int):
    """F(n+dn, j+dj) / F(n, j) as (constant, numerator forms, denominator
    forms), with common forms cancelled."""
    num: Counter = Counter()
    den: Counter = Counter()
    for m, e in gamma2_terms(term).items():
        shift = dn * m[1] + dj * m[2]
        if shift % 2:
            raise ValueError(f"odd shift of Gamma2 argument {m}")
        s = shift // 2
        if s >= 0:
            forms = [(m[0] + 2 * i,) + m[1:] for i in range(s)]
        else:
            forms = [(m[0] - 2 * i,) + m[1:] for i in range(1, -s + 1)]
        up, down = (num, den) if (e > 0) == (s >= 0) else (den, num)
        for form in forms:
            up[form] += abs(e)
    common = num & den
    num -= common
    den -= common
    const = term["cn"] ** dn * term["cj"] ** dj
    return const, sorted(num.elements()), sorted(den.elements())


def at(form, n, j, a2, k2) -> int:
    return form[0] + form[1] * n + form[2] * j + form[3] * a2 + form[4] * k2


# ---------------------------------------------------------------------------
# Arithmetic mod p
# ---------------------------------------------------------------------------

class ModTerm:
    """Ratios of one term evaluated mod p at fixed (a2, k2)."""

    def __init__(self, term, p: int, a2: int, k2: int) -> None:
        self.p, self.a2, self.k2 = p, a2, k2
        self.step_n = ratio(term, 1, 0)
        self.step_j = ratio(term, 0, 1)

    def _parts(self, rat, n: int, j: int):
        const, num, den = rat
        p, a2, k2 = self.p, self.a2, self.k2
        top, bottom = const.numerator, const.denominator
        for f in num:
            top = top * at(f, n, j, a2, k2) % p
        for f in den:
            bottom = bottom * at(f, n, j, a2, k2) % p
        return top, bottom

    def column(self, n: int, jmax: int):
        """F(n, j) / F(n, 0) for j = 0..jmax (zero past the support)."""
        p = self.p
        tops, steps = [1], []
        bottom = 1
        for j in range(jmax):
            top, step = self._parts(self.step_j, n, j)
            tops.append(tops[-1] * top % p)
            steps.append(step)
            bottom = bottom * step % p
        inv = pow(bottom, p - 2, p)        # one inversion per column
        out = [0] * (jmax + 1)
        for j in range(jmax, -1, -1):
            out[j] = tops[j] * inv % p
            if j:
                inv = inv * steps[j - 1] % p
        return out

    def rise(self, n: int) -> int:
        """F(n+1, 0) / F(n, 0)."""
        top, bottom = self._parts(self.step_n, n, 0)
        return top * pow(bottom, self.p - 2, self.p) % self.p

    def moments(self, m: int):
        p = self.p
        base, out = 1, []
        for n in range(m + 1):
            out.append(base * sum(self.column(n, n)) % p)
            base = base * self.rise(n) % p
        return out


def nullspace(rows, ncols: int, p: int):
    """A basis of the right nullspace mod p, by row echelon form."""
    rows = [r[:] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        iv = pow(rows[r][c], p - 2, p)
        pivot = [x * iv % p for x in rows[r]]
        rows[r] = pivot
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], pivot)]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for i in range(len(pivots) - 1, -1, -1):
            row, pc = rows[i], pivots[i]
            v[pc] = -sum(row[t] * v[t] for t in range(pc + 1, ncols)) % p
        basis.append(v)
    return basis


class Interpolator:
    """Monomial coefficients of the polynomial through fixed nodes mod p,
    as one matrix-vector product."""

    def __init__(self, xs, p: int) -> None:
        self.p = p
        m = len(xs)
        cols = []
        for e in range(m):
            # Lagrange basis polynomial of node e
            poly, denom = [1], 1
            for t, x in enumerate(xs):
                if t != e:
                    poly = [((poly[i - 1] if i else 0)
                             - x * (poly[i] if i < len(poly) else 0)) % p
                            for i in range(len(poly) + 1)]
                    denom = denom * (xs[e] - x) % p
            iv = pow(denom, p - 2, p)
            cols.append([c * iv % p for c in poly])
        self.rows = [[cols[e][i] for e in range(m)] for i in range(m)]

    def __call__(self, ys):
        p = self.p
        return [sum(a * y for a, y in zip(row, ys)) % p for row in self.rows]


# ---------------------------------------------------------------------------
# One prime
# ---------------------------------------------------------------------------

def grid(variable: str, p: int):
    da, dk = (max(d, SHAPES[variable]["degree"])
              for d in SHAPES[variable]["num_degrees"][2:])
    rng = random.Random(f"{variable}/{p}")
    return ([rng.randrange(p) for _ in range(da + 1)],
            [rng.randrange(p) for _ in range(dk + 1)])


def at_point(variable: str, p: int, a2: int, k2: int):
    """c (scaled so the n^D coefficient of c_r is 1) and N at the (n, j)
    grid, mod p, at one (a2, k2)."""
    shape = SHAPES[variable]
    r, deg = shape["order"], shape["degree"]
    dn, dj = shape["num_degrees"][:2]
    term = ModTerm(TERMS[variable], p, a2, k2)
    ncols = (r + 1) * (deg + 1)
    mus = term.moments(ncols + 4 + r)
    rows = [[pow(n, d, p) * mus[n + i] % p
             for i in range(r + 1) for d in range(deg + 1)]
            for n in range(ncols + 4)]
    basis = nullspace(rows, ncols, p)
    if len(basis) != 1:
        raise ValueError(f"{variable}: nullspace of dimension {len(basis)}")
    lead = pow(basis[0][-1], p - 2, p)
    c = [x * lead % p for x in basis[0]]

    n_lo = 2 * dj + 2
    table = []
    for n in range(n_lo, n_lo + dn + 1):
        cs = [sum(c[i * (deg + 1) + d] * pow(n, d, p)
                  for d in range(deg + 1)) % p for i in range(r + 1)]
        base = 1                            # F(n+i, 0) / F(n, 0)
        cols = []
        for i in range(r + 1):
            cols.append([base * x % p for x in term.column(n + i, dj)])
            base = base * term.rise(n + i) % p
        g, row = 0, []
        for j in range(dj + 1):
            d = 1
            for form in shape["den"]:
                d = d * at(form, n, j, a2, k2) % p
            row.append(g * pow(cols[0][j], p - 2, p) * d % p)
            g = (g + sum(ci * col[j] for ci, col in zip(cs, cols))) % p
        table.append(row)
    return c, table


def solve_prime(job):
    """Every coefficient of c and N mod p, by interpolation over the grid."""
    variable, p = job
    shape = SHAPES[variable]
    dn, dj = shape["num_degrees"][:2]
    n_lo = 2 * dj + 2
    ns = list(range(n_lo, n_lo + dn + 1))
    js = list(range(dj + 1))
    avals, kvals = grid(variable, p)
    in_n, in_j = Interpolator(ns, p), Interpolator(js, p)
    in_a, in_k = Interpolator(avals, p), Interpolator(kvals, p)
    cvals, nvals = {}, {}
    for a2 in avals:
        for k2 in kvals:
            c, table = at_point(variable, p, a2, k2)
            cvals[a2, k2] = c
            # N at this (a2, k2): interpolate in j, then in n
            by_j = [in_j(row) for row in table]
            nvals[a2, k2] = [in_n([row[v] for row in by_j])
                             for v in range(dj + 1)]       # [v][u]

    def bivariate(value):
        rows = [in_k([value(a2, k2) for k2 in kvals]) for a2 in avals]
        return [in_a([row[w] for row in rows])
                for w in range(len(kvals))]       # [k power][a power]

    c_out = [bivariate(lambda a2, k2, t=t: cvals[a2, k2][t])
             for t in range(len(cvals[avals[0], kvals[0]]))]
    n_out = [[bivariate(lambda a2, k2, u=u, v=v: nvals[a2, k2][v][u])
              for v in range(dj + 1)] for u in range(dn + 1)]
    return variable, p, c_out, n_out


# ---------------------------------------------------------------------------
# Lifting to Q
# ---------------------------------------------------------------------------

def rational(residue: int, modulus: int):
    """a/b = residue mod modulus with |a|, b < sqrt(modulus / 2), or None."""
    bound = isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, residue % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def flatten(c_out, n_out):
    """Every residue, keyed by coefficient: ('c', t, ka, kk) and
    ('N', u, v, ka, kk)."""
    out = {}
    for t, by_k in enumerate(c_out):
        for kk, by_a in enumerate(by_k):
            for ka, x in enumerate(by_a):
                out["c", t, ka, kk] = x
    for u, row in enumerate(n_out):
        for v, by_k in enumerate(row):
            for kk, by_a in enumerate(by_k):
                for ka, x in enumerate(by_a):
                    out["N", u, v, ka, kk] = x
    return out


# primes lifted per round, and worker processes
BATCH = 2


class Lift:
    """Residues CRT-combined over the primes seen so far."""

    def __init__(self) -> None:
        self.residues, self.modulus, self.last = {}, 1, None

    def add(self, flat, p: int) -> None:
        if not self.residues:
            self.residues = dict(flat)
        else:
            inv = pow(self.modulus, -1, p)
            for key, x in flat.items():
                r = self.residues[key]
                self.residues[key] = r + self.modulus * ((x - r) * inv % p)
        self.modulus *= p

    def settled(self):
        """The rationals, once they equal those of the last call."""
        values = {key: rational(x, self.modulus)
                  for key, x in self.residues.items()}
        done = None not in values.values() and values == self.last
        self.last = values
        return values if done else None


def to_integers(values, variable):
    """Integer c (coprime coefficients) and N over d0, from the lifted
    rationals."""
    shape = SHAPES[variable]
    deg = shape["degree"]
    cvals = {k: v for k, v in values.items() if k[0] == "c" and v}
    nvals = {k: v for k, v in values.items() if k[0] == "N" and v}
    scale = lcm(*(v.denominator for v in cvals.values()))
    content = gcd(*(int(v * scale) for v in cvals.values()))
    scale = Fraction(scale, content)
    coeffs = {}
    for (_, t, ka, kk), v in cvals.items():
        i, d = divmod(t, deg + 1)
        if d + ka + kk > deg:
            raise RuntimeError(f"{variable}: c_{i} has total degree > {deg}")
        coeffs[i, d, ka, kk] = int(v * scale)
    d0 = lcm(*((v * scale).denominator for v in nvals.values()))
    num = {(u, v_, ka, kk): int(x * scale * d0)
           for (_, u, v_, ka, kk), x in nvals.items()}
    return coeffs, d0, num


# ---------------------------------------------------------------------------
# Checks against exact moments
# ---------------------------------------------------------------------------

def check_against_moments(variable, coeffs) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from sepprob.moments import Variable, _fast_moment
    var = Variable(variable)
    r = SHAPES[variable]["order"]
    for alpha, k in ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(3, 2)),
                     (Fraction(3), Fraction(5))):
        a2, k2 = int(2 * alpha), int(2 * k)
        mus = [_fast_moment(var, alpha, k, n) for n in range(50 + r)]
        for n in range(50):
            total = sum(c * n ** d * a2 ** ka * k2 ** kk * mus[n + i]
                        for (i, d, ka, kk), c in coeffs.items())
            if total != 0:
                raise RuntimeError(f"{variable} recurrence fails at "
                                   f"alpha={alpha} k={k} n={n}")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def poly_lines(entries, indent="    "):
    return [f"{indent}{entry!r}," for entry in entries]


def write_recurrences(results) -> bytes:
    """The coefficients c as records, one per c_i and power n^d.

    Each record is a 4-byte little-endian length, then
    marshal.dumps((variable, i, d, top, coefficients), 4), where the
    coefficient of n^d in c_i is a polynomial in a2 = 2 alpha and
    k2 = 2k of total degree at most top and coefficients holds the
    integer coefficients of a2^u k2^v in the order v = 0..top and for
    each v u = 0..top-v: one run in a2 per power of k2, the order in
    which sepprob.moments evaluates them.  diff's records, the smaller
    table, come first, so that sepprob.moments decodes no pt record for
    diff.
    """
    out = bytearray()
    for variable in ("diff", "pt"):
        coeffs = results[variable][0]
        shape = SHAPES[variable]
        deg = shape["degree"]
        for i in range(shape["order"] + 1):
            for d in range(deg + 1):
                top = deg - d
                row = tuple(coeffs.get((i, d, u, v), 0)
                            for v in range(top + 1)
                            for u in range(top - v + 1))
                record = marshal.dumps((variable, i, d, top, row), 4)
                out += len(record).to_bytes(4, "little") + record
    return bytes(out)


def table_checks(table: bytes) -> dict:
    """Per variable, the sum mod 2^32 of the CRC-32s of its records, each
    with its 4-byte length: the constants sepprob.moments._CRC holds."""
    checks, pos = {}, 0
    while pos < len(table):
        end = pos + 4 + int.from_bytes(table[pos:pos + 4], "little")
        variable = marshal.loads(table[pos + 4:end])[0]
        checks[variable] = (checks.get(variable, 0)
                            + zlib.crc32(table[pos:end])) % 2 ** 32
        pos = end
    return checks


def write_certificates(results) -> str:
    lines = [
        '"""Creative-telescoping certificates of the moment recurrences.',
        "",
        "Generated by tools/derive_recurrences.py; do not edit.  For each",
        "variable, TERMS gives the summand F(n, j) of mu_n = sum_j F(n, j) as",
        "cn^n cj^j prod rising2(L, count)^e, with rising2(L, count) =",
        "L (L+2) ... (L+2(count-1)), count one of n, 2n, j, 2j, and each",
        "linear form L the integer coefficients of (1, n, j, 2 alpha, 2k).",
        "The certificate is R(n, j) = N(n, j) / (D0 * prod DEN), with",
        "N = sum coeff n^u j^v (2 alpha)^x (2k)^y over NUM's (u, v, x, y, coeff),",
        "such that sum_i c_i(n) F(n+i, j) = R(n, j+1) F(n, j+1) - R(n, j) F(n, j)",
        "with the c_i of src/sepprob/recurrences.bin.",
        '"""',
        "",
        "from fractions import Fraction",
        "",
        "TERMS = {",
    ]
    for variable, term in TERMS.items():
        lines.append(f"    {variable!r}: {{")
        lines.append(f"        'cn': Fraction({term['cn'].numerator}, "
                     f"{term['cn'].denominator}),")
        lines.append(f"        'cj': Fraction({term['cj'].numerator}, "
                     f"{term['cj'].denominator}),")
        lines.append("        'rising': (")
        lines += poly_lines(term["rising"], " " * 12)
        lines.append("        ),")
        lines.append("    },")
    lines += ["}", "", "DEN = {"]
    for variable in TERMS:
        lines.append(f"    {variable!r}: (")
        lines += poly_lines(SHAPES[variable]["den"], " " * 8)
        lines.append("    ),")
    lines += ["}", "", "D0 = {"]
    for variable in TERMS:
        lines.append(f"    {variable!r}: {results[variable][1]},")
    lines += ["}", "", "NUM = {"]
    for variable in TERMS:
        num = results[variable][2]
        lines.append(f"    {variable!r}: (")
        lines += poly_lines(((u, v, x, y, c) for (u, v, x, y), c
                             in sorted(num.items())), " " * 8)
        lines.append("    ),")
    lines += ["}", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args(argv)
    results = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(BATCH) as pool:
        for variable in TERMS:
            lift, values, source = Lift(), None, primes()
            while values is None:
                batch = [(variable, next(source)) for _ in range(BATCH)]
                for _, p, c_out, n_out in pool.map(solve_prime, batch):
                    lift.add(flatten(c_out, n_out), p)
                print(f"{variable}: {lift.modulus.bit_length()} bits",
                      file=sys.stderr, flush=True)
                values = lift.settled()
            coeffs, d0, num = to_integers(values, variable)
            check_against_moments(variable, coeffs)
            results[variable] = (coeffs, d0, num)
    table = write_recurrences(results)
    (ROOT / "src" / "sepprob" / "recurrences.bin").write_bytes(table)
    for variable, check in table_checks(table).items():
        print(f"{variable}: CRC-32 sum {check:#010x}")
    (ROOT / "tests" / "recurrence_certificates.py").write_text(
        write_certificates(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
