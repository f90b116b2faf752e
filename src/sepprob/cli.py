"""Command-line driver: moment caches, tail pipelines, tables and figures.

Every experiment behind the tables and figures is reachable from here
without code edits.  All exact values are printed as "num/den"; decimals
appear only as renderings of exact values or as genuine big-float output
(float-mode tails are exact values rounded once to the requested digits).
Output formats: text (comment lines starting '#', then space-separated
rows), json (one object with "meta" and "rows"), csv (header plus rows).
A given config always produces identical bytes in exact mode.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import operator
import os
import sys
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator, List, Optional

import mpmath

from . import closedform, inversion, recon
from .errors import CacheHeaderError, CacheIntegrityError, CacheIOError, \
    DomainError, SepprobError, StructureViolation
from .exactnum import as_rational, is_order
from .moments import MomentSequence, Scenario, Variable, moment_sequence
from .reported import DIFF_TAILS, TABLE_IV

CACHE_HEADER_PREFIX = "sepprob-moments v1"

DEFAULT_DECIMAL_DIGITS = 15
EXACT_VALUE_DIGITS = 30

FIT_MARGIN = Fraction(1, 100)
FIT_ORDER = 1000
ALPHA_COLUMNS = (Fraction(1, 2), Fraction(1), Fraction(2))
ALPHA_NAMES = {Fraction(1, 2): "rebit", Fraction(1): "qubit",
               Fraction(2): "quaterbit"}


def _int_text(n: int) -> str:
    """n in decimal, in full.

    str() refuses ints past the interpreter's digit limit (4300 digits
    unless set otherwise), so a longer n is split at a power of ten into
    halves that are written the same way.
    """
    try:
        return str(n)
    except ValueError:
        pass
    low_digits = int(n.bit_length() * 0.30103) // 2
    high, low = divmod(abs(n), 10 ** low_digits)
    return (("-" if n < 0 else "") + _int_text(high)
            + _int_text(low).zfill(low_digits))


def _rat(v: Fraction) -> str:
    return f"{_int_text(v.numerator)}/{_int_text(v.denominator)}"


def _dec(v, digits: int = DEFAULT_DECIMAL_DIGITS) -> str:
    with mpmath.mp.workdps(digits + 5):
        if isinstance(v, Fraction):
            v = mpmath.mpf(v.numerator) / v.denominator
        return mpmath.nstr(v, digits)


def _emit(fmt: str, meta: Dict[str, str], rows: List[Dict[str, str]]) -> None:
    stream = sys.stdout
    fields = list(rows[0])  # every command prints at least one row
    if fmt == "json":
        import json
        json.dump({"meta": meta, "rows": rows}, stream, indent=2,
                  sort_keys=True)
        stream.write("\n")
    elif fmt == "csv":
        import csv
        writer = csv.DictWriter(stream, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    else:
        pairs = " ".join(f"{k}={v}" for k, v in meta.items())
        stream.write(f"# {pairs}\n")
        stream.write("# " + " ".join(fields) + "\n")
        for row in rows:
            stream.write(" ".join(str(row[f]) for f in fields) + "\n")


# ---------------------------------------------------------------------------
# Moment cache files
# ---------------------------------------------------------------------------

def _int_of(text: str) -> Optional[int]:
    """The int that _int_text spells as text, or None when _int_text
    spells no int so: '-' is the only sign, zero is '0', and no other
    number starts with a 0.

    The cache is read as ASCII, where isdigit() admits only 0-9.
    """
    digits = text.removeprefix("-")
    if not digits.isdigit() or (digits[0] == "0" and text != "0"):
        return None
    value = _digits_value(digits)
    return -value if len(digits) < len(text) else value


def _digits_value(digits: str) -> int:
    """The value of a string of decimal digits, in full.

    int() refuses text past the interpreter's digit limit, so a longer
    string is split into halves that are read the same way.
    """
    try:
        return int(digits)
    except ValueError:
        pass
    half = len(digits) // 2
    return (_digits_value(digits[:-half]) * 10 ** half
            + _digits_value(digits[-half:]))


def _is_record(line: str, n: int, num: int, scale: int) -> bool:
    """Whether line is, byte for byte, the record write emits for
    mu_n = num / scale (scale > 0): "n p/q" with q > 0, gcd(p, q) = 1
    and p / q = num / scale, each integer spelled as _int_text spells it.

    One spelling per value makes the test exact with no reduction of
    num / scale: q divides scale, p times the cofactor is num, and p
    and q are coprime.
    """
    prefix = f"{n} "
    if not line.startswith(prefix):
        return False
    p_text, _, q_text = line[len(prefix):].partition("/")
    p, q = _int_of(p_text), _int_of(q_text)
    if p is None or q is None or q <= 0:
        return False
    cofactor, rest = divmod(scale, q)
    return rest == 0 and p * cofactor == num and math.gcd(p, q) == 1


class MomentCacheFile:
    """One scenario's exact moments as a text file.

    Header line pins the scenario; records are "n num/den" with n counting
    up from 0 and num/den in lowest terms.  Loading computes the moments
    afresh, refuses every file whose header belongs to a different
    scenario or whose records are not, line for line, what a write of
    those moments emits, and hands on the sequence it checked.  Loads
    and writes work on the sequence's scaled form, mu_n = nums[n] / S_n,
    so no moment becomes a reduced Fraction on the cache path, and a
    load streams the file rather than hold it.  Each write goes to a
    temp file of its own next to the cache and replaces the cache with
    one atomic rename, so readers see either the old file or a new
    complete one and concurrent writers never share a file; the last
    complete writer wins.  A failed write removes its temp file; a
    killed writer may leave one behind, which nothing reads.  A file
    that cannot be opened, read, decoded or written raises CacheIOError.
    """

    def __init__(self, path: str, scenario: Scenario) -> None:
        self.path = path
        self.scenario = scenario

    def header(self) -> str:
        s = self.scenario
        return (f"{CACHE_HEADER_PREFIX} variable={s.variable} "
                f"alpha={s.alpha} k={s.k}")

    def _unreadable(self, exc: Exception) -> CacheIOError:
        return CacheIOError(f"cannot read cache {self.path}: {exc}")

    def _lines(self, fh) -> Iterator[str]:
        """The non-blank lines of fh from its start, stripped."""
        try:
            fh.seek(0)
            for line in fh:
                line = line.strip()
                if line:
                    yield line
        except (OSError, UnicodeDecodeError) as exc:
            raise self._unreadable(exc) from exc

    def load(self, m: int) -> MomentSequence:
        """The scenario's moments to order m or to the last record,
        whichever is higher, each record checked against them.

        A first pass over the file reads the header and counts the
        records, so a file that cannot be decoded is refused before its
        header is judged.  One moment_sequence call then computes the
        moments afresh, and a second pass over the same open file checks
        each record against its scaled moment with _is_record.  A file
        that holds fewer than m + 1 records is rewritten with all of
        them, and the checked sequence is returned, so no order is
        computed twice.
        """
        try:
            fh = open(self.path, encoding="ascii")
        except OSError as exc:
            raise self._unreadable(exc) from exc
        with fh:
            lines = self._lines(fh)
            first = next(lines, None)
            records = sum(1 for _ in lines)
            if first != self.header():
                found = "<empty>" if first is None else first
                raise CacheHeaderError(
                    f"cache {self.path} belongs to another scenario: "
                    f"expected {self.header()!r}, found {found!r}")
            if not records:
                raise CacheIntegrityError(
                    f"cache {self.path} has no records")
            seq = moment_sequence(self.scenario, max(m, records - 1))
            lines = self._lines(fh)
            next(lines)
            scales = accumulate(seq.steps, operator.mul)
            for n, (line, num, scale) in enumerate(
                    zip(lines, seq.nums, scales)):
                if _is_record(line, n, num, scale):
                    continue
                if line.split()[0] != str(n):
                    raise CacheIntegrityError(
                        f"cache {self.path}: expected record {n}, "
                        f"found {line!r}")
                raise CacheIntegrityError(
                    f"cache {self.path}: record n={n} fails recomputation")
        if records <= m:
            self.write(seq)
        return seq

    def write(self, mus: MomentSequence) -> None:
        """Write the header and one record per moment of mus.

        Each record is reduced from the scaled form by one gcd of
        nums[n] and S_n and written at once.
        """
        # os.urandom rather than uuid4, whose import costs every run ~2 ms
        tmp = f"{self.path}.{os.urandom(16).hex()}.tmp"
        try:
            fh = open(tmp, "x", encoding="ascii")
            try:
                with fh:
                    fh.write(self.header() + "\n")
                    scales = accumulate(mus.steps, operator.mul)
                    for n, (num, scale) in enumerate(zip(mus.nums, scales)):
                        g = math.gcd(num, scale)
                        fh.write(f"{n} {_int_text(num // g)}/"
                                 f"{_int_text(scale // g)}\n")
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise CacheIOError(
                f"cannot write cache {self.path}: {exc}") from exc


def _sequence_with_cache(scenario: Scenario, m: int,
                         cache_path: Optional[str]) -> MomentSequence:
    """mu_0..mu_m or more: those of the cache file when it exists, else
    computed, and written to the cache file when one is named."""
    if cache_path and os.path.exists(cache_path):
        return MomentCacheFile(cache_path, scenario).load(m)
    seq = moment_sequence(scenario, m)
    if cache_path:
        MomentCacheFile(cache_path, scenario).write(seq)
    return seq


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _scenario_of(args) -> Scenario:
    return Scenario(variable=Variable(args.variable),
                    alpha=as_rational(args.alpha), k=as_rational(args.k))


def cmd_moments(args) -> int:
    scenario = _scenario_of(args)
    seq = _sequence_with_cache(scenario, args.m, args.cache)
    meta = {"command": "moments", "variable": str(scenario.variable),
            "alpha": str(scenario.alpha), "k": str(scenario.k),
            "m": str(args.m)}
    # a cache load may return more orders than are printed; a prefix of
    # the scaled form is itself a sequence, so only those are reduced
    printed = MomentSequence(scenario, seq.nums[:args.m + 1],
                             seq.steps[:args.m + 1])
    rows = [{"n": str(n), "mu": _rat(mu)} for n, mu in enumerate(printed.mu)]
    _emit(args.format, meta, rows)
    return 0


def _int_list(text: str, flag: str, what: str) -> List[int]:
    """The integers of a comma-separated flag value, blank parts skipped."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SepprobError(
            f"{flag} takes comma-separated integers, got {text!r}") from None
    if not values:
        raise SepprobError(f"{flag} names no {what}")
    return values


def _check_orders(orders: List[int]) -> List[int]:
    if not all(map(is_order, orders)):
        raise DomainError("truncation orders must be integers >= 0")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise DomainError("truncation orders must be strictly increasing")
    return orders


def cmd_tail(args) -> int:
    scenario = _scenario_of(args)
    if (args.m is None) == (args.m_list is None):
        raise SepprobError("exactly one of --m and --m-list is required")
    reconstruct = args.bound is not None or args.radius is not None
    if args.m_list is None:
        orders = [args.m]
        if reconstruct and None in (args.bound, args.radius):
            raise SepprobError(
                "reconstruction needs both --bound and --radius")
    else:
        orders = _check_orders(
            _int_list(args.m_list, "--m-list", "truncation orders"))
        if reconstruct:
            raise SepprobError(
                "reconstruction applies to a single estimate; use --m")
    # everything the tails and the reconstruction would reject is rejected
    # before the cache is used
    if reconstruct:
        recon._check_bound(args.bound)
        recon._check_radius(args.radius)
    inversion._check_weight(args.geg_alpha)
    xi = inversion._check_xi(scenario.interval, args.xi)
    mode, _ = inversion._resolve_mode(args.mode, orders[-1], args.precision)
    seq = _sequence_with_cache(scenario, orders[-1], args.cache)
    meta = {"command": "tail", "variable": str(scenario.variable),
            "alpha": str(scenario.alpha), "k": str(scenario.k),
            "method": "gegenbauer" if args.geg_alpha else "legendre",
            "alpha_w": str(args.geg_alpha), "xi": str(xi)}
    if args.m_list is None:
        meta.update(m=str(args.m), mode=mode)
    else:
        meta.update(m_list=args.m_list, mode=args.mode)
    rows = []
    # one estimate at a time, dropped with its bank once its row is made
    for m in orders:
        est = inversion.gegenbauer_tail(seq, args.geg_alpha, xi, m,
                                        mode=args.mode,
                                        precision=args.precision)
        value, exact = est.value, est.mode == inversion.MODE_EXACT
        if not exact:
            # a rounded value holds only the digits it was rounded to
            meta["precision"] = str(est.precision)
        digits = est.precision or EXACT_VALUE_DIGITS
        rows.append({"m": str(m), "value_decimal": _dec(value, digits),
                     "value_exact": _rat(value) if exact else "-"})
        del est
    if args.m_list is not None:
        _emit(args.format, meta, rows)
        return 0
    rows = [{"field": field, "value": rows[0][field]}
            for field in ("value_decimal", "value_exact")
            if rows[0][field] != "-"]
    if reconstruct:
        guess = recon.reconstruct(value, args.radius, args.bound)
        rows.append({"field": "reconstructed", "value": _rat(guess.value)})
        rows.append({"field": "confidence",
                     "value": guess.confidence.value})
        rows.append({"field": "residual", "value": _dec(guess.residual, 8)})
        meta["bound"] = str(args.bound)
        meta["radius"] = str(args.radius)
    _emit(args.format, meta, rows)
    return 0


def _factored(v: Fraction) -> str:
    try:
        from sympy import factorint
    except ImportError:
        raise SepprobError(
            "--factor needs sympy; install the optional extra: "
            "pip install 'sepprob[factor]'") from None

    def side(n: int) -> str:
        if n in (1, -1):
            return str(n)
        sign = "-" if n < 0 else ""
        parts = [f"{p}^{e}" if e > 1 else str(p)
                 for p, e in sorted(factorint(abs(n)).items())]
        return sign + "*".join(parts)

    return f"{side(v.numerator)}/{side(v.denominator)}"


def _check_k_max(k_max: Optional[int]) -> None:
    if k_max is not None and k_max < 0:
        raise DomainError(f"--k-max must be an integer >= 0, got {k_max}")


def cmd_tables(args) -> int:
    _check_k_max(args.k_max)
    if args.table == "all" and args.format != "text":
        raise SepprobError(
            "--table all emits several tables and supports text only; "
            "pick a single table for json or csv")
    tables = [args.table] if args.table != "all" else ["1", "2", "3", "4"]
    for idx, table in enumerate(tables):
        if idx:
            sys.stdout.write("\n")
        if table == "4":
            _table_four(args)
        else:
            _table_probabilities(args, int(table))
    return 0


def _table_probabilities(args, number: int) -> None:
    alpha = ALPHA_COLUMNS[number - 1]
    meta = {"command": "tables", "table": str(number),
            "alpha": str(alpha), "case": ALPHA_NAMES[alpha]}
    rows = []
    for k in range(0, args.k_max + 1):
        value = closedform.sep_prob(alpha, k)
        row = {"k": str(k), "sep_prob": _rat(value), "decimal": _dec(value)}
        if args.factor:
            row["factored"] = _factored(value)
        rows.append(row)
    _emit(args.format, meta, rows)


def _table_four(args) -> None:
    meta = {"command": "tables", "table": "4"}
    rows = []
    for k in range(0, 7):
        for alpha in ALPHA_COLUMNS:
            tail = DIFF_TAILS.get((alpha, k))
            recorded = TABLE_IV.get((alpha, k))
            if tail is not None:
                prop = tail / closedform.sep_prob(alpha, k)
                if recorded is not None and prop != recorded:
                    raise StructureViolation(
                        f"proportion identity fails at alpha={alpha}, k={k}: "
                        f"{_rat(prop)} vs recorded {_rat(recorded)}")
                cell = (_rat(prop), _dec(prop), "identity")
            elif recorded is not None:
                cell = (_rat(recorded), _dec(recorded), "recorded")
            else:
                cell = ("-", "-", "none")
            rows.append({"k": str(k), "alpha": str(alpha),
                         "proportion": cell[0], "decimal": cell[1],
                         "source": cell[2]})
    _emit(args.format, meta, rows)


def cmd_fit(args) -> int:
    alpha = as_rational(args.alpha)
    if alpha not in ALPHA_COLUMNS and not args.from_approximants:
        pred = closedform.structural_prediction(alpha)
        meta = {"command": "fit", "alpha": str(alpha),
                "note": "prediction only; no closed form for this alpha"}

        def shown(field, v):
            if v is None:
                return "-"
            if field == "half_integer_pochhammer":
                return f"(k+{v[0]})_{v[1]}"
            return str(v)

        rows = [{"field": f, "value": shown(f, getattr(pred, f))}
                for f in pred._fields if f != "alpha"]
        _emit(args.format, meta, rows)
        return 0
    if args.format == "csv":  # the result is in the header, which csv lacks
        raise SepprobError(f"fit --alpha {alpha} prints its result in the "
                           "header and supports text and json only")
    if args.from_approximants:
        return _fit_from_approximants(args, alpha)
    coeffs = closedform.extract_p(alpha)
    checks = closedform.structure_checks(
        closedform.structural_prediction(alpha), coeffs)
    meta = {"command": "fit", "alpha": str(alpha),
            "polynomial": _poly_str(coeffs),
            "all_checks_pass": str(all(c.ok for c in checks)).lower()}
    rows = [{"check": c.name, "expected": str(c.expected),
             "actual": str(c.actual), "status": "pass" if c.ok else "FAIL"}
            for c in checks]
    _emit(args.format, meta, rows)
    return 0


def _fit_from_approximants(args, alpha: Fraction) -> int:
    pred = closedform.structural_prediction(alpha)
    # an alpha without a closed form is refused before any pipeline work
    expected = closedform.extract_p(alpha)
    # D p_alpha(k), D = scale, is an integer: the lowest deg+3 consecutive k
    # where both orders' tails give it within FIT_MARGIN hold the nodes and
    # witnesses of p_alpha; the orders loop outside the k (one bank memo)
    scale, width = pred.leading_coeff.denominator, pred.degree + 3
    ks = range(3 * width)
    seqs = [moment_sequence(Scenario(Variable.PT_DET, alpha, k), FIT_ORDER)
            for k in ks]
    scaled = [[scale * closedform.p_sample(alpha, k, inversion.legendre_tail(
                   seq, 0, m, mode=inversion.MODE_EXACT).value)
               for k, seq in zip(ks, seqs)]
              for m in (FIT_ORDER // 2, FIT_ORDER)]
    nearest = [round(x) for x in scaled[1]]
    dists = [[abs(x - n) for x, n in zip(row, nearest)] for row in scaled]
    inside = [max(pair) <= FIT_MARGIN for pair in zip(*dists)]
    start = next((k for k in range(len(ks) - width + 1)
                  if all(inside[k:k + width])), None)
    meta = {"command": "fit", "alpha": str(alpha), "pipeline": "approximants",
            "m": str(FIT_ORDER), "scale": str(scale),
            "margin": _rat(FIT_MARGIN), "confidence": "ambiguous",
            "window": "-"}
    coeffs = None
    if start is not None:
        meta["window"] = f"{start}..{start + width - 1}"
        with contextlib.suppress(StructureViolation):
            coeffs = closedform.interpolate_p(alpha, [(k, Fraction(
                nearest[k], scale)) for k in ks[start:start + width]])
    if coeffs is not None:
        meta.update(confidence="unique", polynomial=_poly_str(coeffs),
                    matches_extract_p=str(coeffs == expected).lower(),
                    structure_checks=",".join(
                        f"{c.name}:{'pass' if c.ok else 'FAIL'}"
                        for c in closedform.structure_checks(pred, coeffs)))
    rows = [{"k": str(k), "Dp": str(n), "dist_half_m": _dec(low, 3),
             "dist_m": _dec(high, 3)}
            for k, n, low, high in zip(ks, nearest, *dists)]
    _emit(args.format, meta, rows)
    return 0 if coeffs is not None else 1


def _poly_str(coeffs) -> str:
    terms = [str(c) if p == 0 else f"{c}*k" if p == 1 else f"{c}*k^{p}"
             for p, c in reversed(list(enumerate(coeffs))) if c]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def cmd_asymptote(args) -> int:
    alpha = as_rational(args.alpha)
    ks = _int_list(args.k_list, "--k-list", "k values")
    target = closedform.ASYMPTOTE
    meta = {"command": "asymptote", "alpha": str(alpha),
            "precision": str(args.precision), "target": _rat(target)}
    rows = []
    for k in ks:
        ratio = closedform.log_ratio(alpha, k, precision=args.precision)
        # the error falls below 10^-30 at large k, so it is taken at the
        # ratio's own precision
        with mpmath.mp.workdps(max(args.precision, 30)):
            err = abs(ratio - mpmath.mpf(target.numerator) / target.denominator)
        rows.append({"k": str(k), "ratio": _dec(ratio),
                     "abs_error": _dec(err, 6)})
    _emit(args.format, meta, rows)
    return 0


def cmd_plot_data(args) -> int:
    _check_k_max(args.k_max)
    meta = {"command": "plot-data", "figure": str(args.figure)}
    if args.figure == 1:
        if args.m is not None:
            raise SepprobError("--m is the truncation order of figure 2; "
                               "figure 1 plots the closed forms")
        k_max, value = 20, closedform.sep_prob
    else:
        k_max, m = 4, 200 if args.m is None else args.m
        meta["m"] = str(m)

        def value(alpha, k):
            seq = moment_sequence(Scenario(Variable.DIFF, alpha, k), m)
            tail = inversion.legendre_tail(seq, 0, m,
                                           mode=inversion.MODE_EXACT).value
            return tail / closedform.sep_prob(alpha, k)

    if args.k_max is not None:
        k_max = args.k_max
    rows = [{"k": str(k), **{ALPHA_NAMES[alpha]: _dec(value(alpha, k))
                             for alpha in ALPHA_COLUMNS}}
            for k in range(k_max + 1)]
    _emit(args.format, meta, rows)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_format(parser, default="text"):
    parser.add_argument("--format", choices=["text", "json", "csv"],
                        default=default, help="output format")


def _add_scenario(parser):
    parser.add_argument("--variable", choices=["pt", "diff"], required=True,
                        help="moment family: partial-transpose determinant "
                             "(pt) or determinant difference (diff)")
    parser.add_argument("--alpha", required=True,
                        help="half-integer Dyson-like parameter, e.g. 1/2")
    parser.add_argument("--k", required=True,
                        help="half-integer induced-measure index >= 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepprob",
        description="Exact moments, tail inversion and closed-form "
                    "separability probabilities of random induced "
                    "two-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    mo = sub.add_parser("moments", help="compute and cache exact moments")
    _add_scenario(mo)
    mo.add_argument("--m", type=int, required=True, help="highest order")
    mo.add_argument("--cache", help="cache file to read/extend")
    _add_format(mo)
    mo.set_defaults(func=cmd_moments)

    ta = sub.add_parser("tail", help="moment-based tail estimate")
    _add_scenario(ta)
    ta.add_argument("--m", type=int, help="truncation order")
    ta.add_argument("--m-list",
                    help="comma-separated increasing truncation orders; "
                         "prints the whole convergence profile instead")
    ta.add_argument("--geg-alpha", type=int, default=0,
                    help="Gegenbauer weight exponent w of (1 - t^2)^w; "
                         "0 (the default) is the Legendre expansion")
    ta.add_argument("--xi", default="0",
                    help="tail threshold (rational); give a negative one "
                         "as --xi=-1/20, since a separate -1/20 reads as "
                         "an option")
    ta.add_argument("--mode", choices=["exact", "float", "auto"],
                    default="auto")
    ta.add_argument("--precision", type=int,
                    help="digits float mode rounds the exact result to "
                         f"(default {inversion.DEFAULT_FLOAT_DIGITS})")
    ta.add_argument("--bound", type=int,
                    help="reconstruct a rational under this denominator bound")
    ta.add_argument("--radius", help="error radius for reconstruction")
    ta.add_argument("--cache", help="moment cache file to read/extend")
    _add_format(ta)
    ta.set_defaults(func=cmd_tail)

    tb = sub.add_parser("tables",
                        help="reproduce the probability and proportion tables")
    tb.add_argument("--table", choices=["1", "2", "3", "4", "all"],
                    default="all")
    tb.add_argument("--k-max", type=int, default=8,
                    help="last row of the probability tables")
    tb.add_argument("--factor", action="store_true",
                    help="add prime factorizations (needs the optional "
                         "sympy extra)")
    _add_format(tb)
    tb.set_defaults(func=cmd_tables)

    fi = sub.add_parser("fit", help="polynomial structure of the closed forms")
    fi.add_argument("--alpha", required=True)
    fi.add_argument("--from-approximants", action="store_true",
                    help="source the probabilities from the moment pipeline "
                         "instead of the closed forms")
    _add_format(fi)
    fi.set_defaults(func=cmd_fit)

    asy = sub.add_parser("asymptote", help="log-probability ratio sweep")
    asy.add_argument("--alpha", required=True)
    asy.add_argument("--k-list", default="10,100,1000,10000",
                     help="comma-separated k grid")
    asy.add_argument("--precision", type=int,
                     default=closedform.DEFAULT_LOG_DIGITS)
    _add_format(asy)
    asy.set_defaults(func=cmd_asymptote)

    pl = sub.add_parser("plot-data", help="figure curve samples")
    pl.add_argument("--figure", type=int, choices=[1, 2], required=True)
    pl.add_argument("--k-max", type=int,
                    help="last k sample (default: 20 for figure 1, 4 for 2)")
    pl.add_argument("--m", type=int,
                    help="figure 2 truncation order (default 200)")
    _add_format(pl, default="csv")
    pl.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SepprobError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe.  Send what is still buffered to
        # devnull, so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
