"""Spans around calls into sepprob's layers, recorded from outside the package.

A traced repetition wraps every public function of the layer modules
(cli, moments, inversion, recon, closedform) and the load/write methods of
``cli.MomentCacheFile``, in every loaded sepprob module that holds them, so
calls made through ``from .moments import moment_sequence`` are seen too.
``exactnum`` has no served path of its own; its work counts inside the
spans of its callers.  Nothing inside ``src/`` is changed.

The first exact tail call at each (interval, weight, xi, order) is repeated
once, untraced, right after it returns: the repeat finds the coefficient
bank cached and does only the dot product, so the difference splits the
call into bank time and dot-product time.  Repeats are recorded as "probe"
spans and left out of every layer's time and of the traced solve time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "moments", "inversion", "recon", "closedform")
CACHE_METHODS = ("load", "write")
TAIL_FUNCTIONS = ("inversion.legendre_tail", "inversion.gegenbauer_tail")
PROBE = "probe"


def _log10_abs(x) -> float:
    """log10 |x| for a Fraction or an mpmath number; -inf for zero."""
    if x == 0:
        return -math.inf
    if isinstance(x, Fraction):
        return math.log10(abs(x.numerator)) - math.log10(x.denominator)
    import mpmath
    return float(mpmath.log10(abs(x)))


class Tracer:
    """Records one span per call into a layer, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._results: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple] = []
        self._probed: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"sepprob.{layer}")
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._replace_everywhere(
                        fn, self._wrap(layer, f"{layer}.{name}", fn))
        cache_cls = importlib.import_module("sepprob.cli").MomentCacheFile
        for name in CACHE_METHODS:
            fn = vars(cache_cls)[name]
            self._patches.append((cache_cls, name, fn))
            setattr(cache_cls, name,
                    self._wrap("cli", f"cli.MomentCacheFile.{name}", fn))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sepprob" and not mod_name.startswith("sepprob."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = {"name": name, "layer": layer,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            bound = signature.bind(*args, **kwargs).arguments
            self._results[index] = (bound, result)
            if name.startswith("cli.MomentCacheFile."):
                span["bytes"] = os.path.getsize(bound["self"].path)
            if name in TAIL_FUNCTIONS and not self._nested_tail(span):
                self._maybe_probe(span, bound, result, fn, args, kwargs)
            return result

        return traced

    def _nested_tail(self, span: dict) -> bool:
        parent = span["parent"]
        return (parent is not None
                and self.spans[parent]["name"] in TAIL_FUNCTIONS)

    def _maybe_probe(self, span, bound, est, fn, args, kwargs) -> None:
        if est.mode != "exact":
            return
        xi = bound.get("xi")
        try:
            xi = Fraction(xi)
        except (TypeError, ValueError):
            xi = str(xi)
        key = (est.scenario.interval, est.alpha_w, xi, est.m)
        if key in self._probed:
            return
        self._probed.add(key)
        probe = {"name": PROBE, "layer": PROBE, "parent": span["parent"],
                 "start": time.perf_counter(), "end": None}
        self._paused = True
        try:
            fn(*args, **kwargs)
        finally:
            self._paused = False
            probe["end"] = time.perf_counter()
        span["probe_s"] = probe["end"] - probe["start"]
        self.spans.append(probe)

    # -- results -----------------------------------------------------------

    @property
    def probe_s(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["layer"] == PROBE)

    def dump(self) -> list[dict]:
        """Spans as plain records, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                for s in self.spans]

    def metrics(self, solve_s: float) -> dict:
        """Per-layer metrics of this repetition; solve_s excludes probes."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        busy = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for i, s in enumerate(spans):
            if s["layer"] == PROBE:
                continue
            busy[s["layer"]] += s["end"] - s["start"] - covered[i]
            parent = s["parent"]
            if parent is None or spans[parent]["layer"] != s["layer"]:
                calls[s["layer"]] += 1

        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.calls"] = calls[layer]
        out.update(self._moment_sizes())
        out.update(self._inversion_split())
        out.update(self._cache_io())
        out.update(self._recon_verdicts())
        out["trace.solve_s"] = solve_s
        out["trace.unattributed_s"] = solve_s - sum(busy.values())
        return out

    def _finished(self, name: str):
        for i, s in enumerate(self.spans):
            if s["name"] == name and i in self._results:
                yield s, self._results[i]

    def _moment_sizes(self) -> dict:
        # moment_sequence extends a per-process memo and seed_sequence
        # installs a prefix into it; replaying both gives the terms computed
        known: dict = {}
        terms = bits = 0
        for i in sorted(self._results):
            name = self.spans[i]["name"]
            bound, result = self._results[i]
            if name == "moments.seed_sequence":
                scenario, values = bound["scenario"], bound["values"]
                key = (scenario.variable, scenario.alpha, scenario.k)
                known[key] = max(known.get(key, 0), len(values))
            elif name == "moments.moment_sequence":
                scenario = result.scenario
                key = (scenario.variable, scenario.alpha, scenario.k)
                have = known.get(key, 0)
                terms += max(0, len(result.mu) - have)
                known[key] = max(have, len(result.mu))
                bits = max(bits, max(mu.denominator.bit_length()
                                     for mu in result.mu))
        return {"moments.terms": terms, "moments.mu_bits": bits}

    def _inversion_split(self) -> dict:
        bank = dot = flt = 0.0
        order = coeff_bits = 0
        cancel = 0.0
        for name in TAIL_FUNCTIONS:
            for span, (bound, est) in self._finished(name):
                if self._nested_tail(span):
                    continue
                duration = span["end"] - span["start"]
                if est.mode == "exact":
                    probe = span.get("probe_s")
                    if probe is None:
                        dot += duration
                    else:
                        bank += duration - probe
                        dot += probe
                    coeff_bits = max(coeff_bits, max(
                        a.denominator.bit_length() for a in est.coeffs))
                else:
                    flt += duration
                order = max(order, est.m)
                peak = max(_log10_abs(a) + _log10_abs(mu) for a, mu in
                           zip(est.coeffs, bound["moments"].mu))
                cancel = max(cancel, peak - _log10_abs(est.value))
        return {"inversion.bank_s": bank, "inversion.dot_s": dot,
                "inversion.float_s": flt, "inversion.order": order,
                "inversion.coeff_bits": coeff_bits,
                "inversion.cancel_digits": cancel}

    def _cache_io(self) -> dict:
        out = {"cli.cache_load_s": 0.0, "cli.cache_write_s": 0.0,
               "cli.cache_bytes": 0, "cli.cache_records": 0}
        for method in CACHE_METHODS:
            for span, (bound, result) in self._finished(
                    f"cli.MomentCacheFile.{method}"):
                out[f"cli.cache_{method}_s"] += span["end"] - span["start"]
                out["cli.cache_bytes"] += span["bytes"]
                out["cli.cache_records"] += len(
                    result if method == "load" else bound["mus"])
        return out

    def _recon_verdicts(self) -> dict:
        attempts = [i for i, s in enumerate(self.spans)
                    if s["name"] == "recon.reconstruct"]
        unique = sum(1 for i in attempts if i in self._results
                     and self._results[i][1].confidence.value == "unique")
        return {"recon.unique_ratio": unique / len(attempts) if attempts
                else 0.0}
