#!/usr/bin/env python3
"""Record the reference values the benchmark's correctness gate checks.

    python3 perfbench/make_refs.py > perfbench/refs.json

Run it only at a commit whose results are trusted: the gate compares every
later commit with these values.  For every (scenario, order) any seed and
size can pick it records the exact tail estimate at xi = 0 (a SHA-256
digest of "num/den" and 320 significant digits), its distance from the
closed form rounded up to three digits, and for the tail workloads the
digest of the cache file ``sepprob moments --cache`` writes.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_work"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from sepprob import closedform, inversion  # noqa: E402
from sepprob.moments import Scenario, Variable, moment_sequence  # noqa: E402
from worker import (closed_form_key, digest, estimate_key,  # noqa: E402
                    make_cache)

DIGITS = 320


def round_up(x: Fraction) -> str:
    """x rounded up to three significant digits, as a decimal string."""
    if x == 0:
        return "0"
    log10 = math.log10(x.numerator) - math.log10(x.denominator)
    exponent = math.floor(log10) - 2
    scaled = math.ceil(x / Fraction(10) ** exponent)
    return f"{scaled}e{exponent}"


def decimal_digits(x: Fraction) -> str:
    context = decimal.Context(prec=DIGITS)
    return str(context.divide(decimal.Decimal(x.numerator),
                              decimal.Decimal(x.denominator)))


def cache_digest(scenario: dict, m: int) -> str:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = Path(tmp) / "moments.cache"
        make_cache({"scenario": scenario, "m": m, "cache": str(path)})
        return hashlib.sha256(path.read_bytes()).hexdigest()


def entry(scenario: dict, m: int) -> dict:
    sc = Scenario(Variable(scenario["variable"]), Fraction(scenario["alpha"]),
                  Fraction(scenario["k"]))
    value = inversion.legendre_tail(moment_sequence(sc, m), 0, m,
                                    mode=inversion.MODE_EXACT).value
    closed = closedform.sep_prob(sc.alpha, int(sc.k))
    return {"exact_sha256": digest(f"{value.numerator}/{value.denominator}"),
            "decimal": decimal_digits(value),
            "trunc_err": round_up(abs(value - closed))}


def main() -> None:
    refs = {"closed_form": {}, "estimates": {}}
    for alpha in run.SWEEP_ALPHAS:
        for k in run.SWEEP_KS:
            sc = {"alpha": alpha, "k": str(k)}
            refs["closed_form"][closed_form_key(sc)] = str(
                closedform.sep_prob(Fraction(alpha), k))
    tail_orders = sorted(set(run.TAIL_ORDERS.values())
                         | set(run.SMOKE_TAIL_ORDERS.values()))
    for k in run.TAIL_KS:
        sc = {"variable": "pt", "alpha": "1", "k": str(k)}
        for m in tail_orders:
            refs["estimates"][estimate_key(sc, m)] = dict(
                entry(sc, m), cache_sha256=cache_digest(sc, m))
    for alpha in run.SWEEP_ALPHAS:
        for k in run.SWEEP_KS:
            sc = {"variable": "pt", "alpha": alpha, "k": str(k)}
            for m in sorted(set(run.SWEEP_ORDER.values())):
                refs["estimates"][estimate_key(sc, m)] = entry(sc, m)
    json.dump(refs, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
