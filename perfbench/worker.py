"""One cold repetition of a perfbench workload, in a fresh interpreter.

run.py starts this file with ``python3 -I`` and writes one JSON job to its
standard input.  The worker imports sepprob from the job's source
directory, notes when set-up ends, drives the workload through the
package's public API, checks every result against the references and
prints one JSON line on standard output.

Job kinds:

* ``tail``: one ``sepprob tail ... --cache FILE`` invocation through
  ``cli.main``, exactly as typed on the command line.  Three operations:
  the cache (the file afterwards holds exactly the reference records), the
  tail estimate (exact: equal to the reference rational; float: equal to
  it to the printed digits) and the reconstruction (the closed-form value
  with the verdict ``unique``).
* ``sweep``: the library calls ``plot-data`` makes, one operation per
  scenario: ``moment_sequence``, an exact ``legendre_tail`` at xi = 0 and
  the ratio to ``closedform.sep_prob``.  The estimate must equal the
  reference rational and lie within the reference truncation error of
  the closed form.
* ``moments``: ``sepprob moments ... --cache FILE``, used by run.py to
  make the cache file a ``tail`` job starts from.  Not measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs.json"

# The host's speed is sampled while an untraced job solves: every
# SPEED_PERIOD_S of wall time a SIGALRM handler times one run of
# speed_kernel.  SPEED_REF_S is the kernel's time on a quiet host (2-vCPU
# Xeon at 2.1 GHz, Python 3.11, pure-Python big ints); solve_s is the
# solve's wall time scaled to that speed.
SPEED_PERIOD_S = 0.05
SPEED_REF_S = 0.68e-3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def estimate_key(scenario: dict, m: int) -> str:
    return (f"{scenario['variable']}/alpha={scenario['alpha']}"
            f"/k={scenario['k']}/m={m}")


def closed_form_key(scenario: dict) -> str:
    return f"alpha={scenario['alpha']}/k={scenario['k']}"


def _cli(argv: list[str]) -> tuple[int, str, str]:
    import sepprob.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sepprob.cli.main(argv)
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _scenario_argv(scenario: dict) -> list[str]:
    return ["--variable", scenario["variable"], "--alpha", scenario["alpha"],
            "--k", scenario["k"]]


def _parse_tail_output(text: str) -> tuple[dict, dict]:
    """The meta pairs and the field/value rows of ``tail``'s text output."""
    lines = text.splitlines()
    meta = dict(pair.split("=", 1) for pair in lines[0][2:].split())
    fields = dict(line.split(" ", 1) for line in lines[2:])
    return meta, fields


def check_value(meta: dict, fields: dict, ref: dict) -> str | None:
    """None when the printed estimate matches the reference, else why not."""
    if meta["mode"] == "exact":
        if digest(fields["value_exact"]) != ref["exact_sha256"]:
            return "exact value differs from the reference rational"
        return None
    digits = int(meta["precision"])
    reference = Decimal(ref["decimal"])
    ref_digits = len(reference.as_tuple().digits)
    if digits >= ref_digits - 2:
        return f"reference has too few digits for precision {digits}"
    # Half a unit in the last printed place, plus the half unit the
    # reference itself was rounded by.
    unit = Fraction(10) ** (reference.adjusted() + 1 - digits)
    slack = Fraction(10) ** (reference.adjusted() + 1 - ref_digits)
    error = abs(Fraction(fields["value_decimal"]) - Fraction(reference))
    if error > (unit + slack) / 2:
        return f"float value is not the exact value rounded to {digits} digits"
    return None


def run_tail(job: dict, refs: dict) -> list[tuple[str, str | None]]:
    from sepprob import closedform

    scenario, m = job["scenario"], job["m"]
    ref = refs["estimates"][estimate_key(scenario, m)]
    closed = refs["closed_form"][closed_form_key(scenario)]
    argv = (["tail"] + _scenario_argv(scenario)
            + ["--m", str(m), "--bound", str(job["bound"]),
               "--radius", job["radius"], "--cache", job["cache"]]
            + job["cli_flags"])
    code, out, err = _cli(argv)
    if code != 0:
        why = f"sepprob tail exited {code}: {err.strip()}"
        return [("cache", why), ("tail", why), ("recon", why)]
    meta, fields = _parse_tail_output(out)

    cache_bytes = Path(job["cache"]).read_bytes()
    cache_ok = hashlib.sha256(cache_bytes).hexdigest() == ref["cache_sha256"]
    recon_why = None
    if fields.get("reconstructed") != closed:
        recon_why = (f"reconstructed {fields.get('reconstructed')}, "
                     f"not {closed}")
    elif fields.get("confidence") != "unique":
        recon_why = f"verdict {fields.get('confidence')}, not unique"
    elif closedform.sep_prob(Fraction(scenario["alpha"]),
                             int(scenario["k"])) != Fraction(closed):
        recon_why = "closedform.sep_prob disagrees with the reference"
    return [("cache", None if cache_ok else
             "cache file differs from the reference records"),
            ("tail", check_value(meta, fields, ref)),
            ("recon", recon_why)]


def run_sweep(job: dict, refs: dict) -> list[tuple[str, str | None]]:
    from sepprob import closedform, inversion, moments
    from sepprob.errors import SepprobError

    m = job["m"]
    ops = []
    for scenario in job["scenarios"]:
        name = f"sweep {scenario['alpha']}/{scenario['k']}"
        ref = refs["estimates"][estimate_key(scenario, m)]
        closed = Fraction(refs["closed_form"][closed_form_key(scenario)])
        try:
            sc = moments.Scenario(moments.Variable(scenario["variable"]),
                                  Fraction(scenario["alpha"]),
                                  Fraction(scenario["k"]))
            seq = moments.moment_sequence(sc, m)
            est = inversion.legendre_tail(seq, 0, m, mode=inversion.MODE_EXACT)
            exact = closedform.sep_prob(sc.alpha, int(sc.k))
            ratio = est.value / exact
        except SepprobError as exc:
            ops.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        value = est.value
        text = f"{value.numerator}/{value.denominator}"
        if digest(text) != ref["exact_sha256"]:
            why = "exact value differs from the reference rational"
        elif exact != closed:
            why = "closedform.sep_prob disagrees with the reference"
        elif abs(ratio - 1) * exact > Fraction(ref["trunc_err"]):
            why = "estimate outside the reference truncation error"
        else:
            why = None
        ops.append((name, why))
    return ops


def make_cache(job: dict) -> None:
    argv = (["moments"] + _scenario_argv(job["scenario"])
            + ["--m", str(job["m"]), "--cache", job["cache"]])
    code, _, err = _cli(argv)
    if code != 0:
        raise SystemExit(f"sepprob moments exited {code}: {err.strip()}")


RUNNERS = {"tail": run_tail, "sweep": run_sweep}


def speed_kernel() -> int:
    """Fixed Fraction arithmetic on ints of a few thousand bits: the
    interpreter, big-int multiply and gcd work the layers are made of."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i * i * i + 7)
    return total.numerator.bit_length()


def speed_now() -> float:
    """The host's speed relative to the reference host, from one kernel."""
    start = time.perf_counter()
    speed_kernel()
    return SPEED_REF_S / (time.perf_counter() - start)


class SpeedProbe:
    """Samples the host's speed while the solve runs.

    The host's throughput drifts by a third over seconds to minutes, and
    a fixed kernel timed in the same process drifts with it.  Each sample
    is SPEED_REF_S over the kernel's time, taken at even steps of wall
    time, so their mean is the solve's average speed relative to the
    reference host.  The samples' own time is taken out of the solve's
    wall time.
    """

    def __init__(self) -> None:
        self.ratios: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ratios.append(speed_now())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def speed(self) -> float:
        if not self.ratios:             # a solve shorter than one period
            self._sample(None, None)
        return sum(self.ratios) / len(self.ratios)


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import mpmath
    import sepprob
    import sepprob.cli  # noqa: F401  (the tail jobs enter through the CLI)

    module = Path(sepprob.__file__).resolve()
    if src not in module.parents:
        print(f"imported sepprob from {module}, not from {src}",
              file=sys.stderr)
        return 3
    if job["kind"] == "moments":
        make_cache(job)
        return 0
    refs = json.loads(REFS.read_text())
    result = {"ready": time.monotonic(), "module": str(module),
              "python": platform.python_version(),
              "mpmath_backend": mpmath.libmp.BACKEND,
              # Scales the set-up time as SpeedProbe scales the solve.
              "setup_speed": statistics.median(speed_now()
                                               for _ in range(5))}
    if job["setup_only"]:
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe() if tracer is None else contextlib.nullcontext()
    start = time.perf_counter()
    with probe:
        try:
            ops = RUNNERS[job["kind"]](job, refs)
        except Exception:               # a crash fails every operation
            why = traceback.format_exc().strip().splitlines()[-1]
            count = 3 if job["kind"] == "tail" else len(job["scenarios"])
            ops = [("crash", why)] * count
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        wall -= tracer.probe_s
        result["layers"] = tracer.metrics(wall)
        result["spans"] = tracer.dump()
        speed = 1.0
    else:
        wall -= probe.spent_s
        speed = probe.speed()
    result.update(
        wall_solve_s=wall, speed=speed, solve_s=wall * speed,
        rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        attempted=len(ops),
        failures=[f"{name}: {why}" for name, why in ops if why is not None])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
