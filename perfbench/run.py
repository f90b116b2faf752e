#!/usr/bin/env python3
"""Cold-run benchmark of sepprob: the exact bank, the auto float crossover
and a shared-bank scenario sweep.

Run from the repository root:

    python3 perfbench/run.py --workload tail_m500 --seed 1 --seconds 30 --trace 0

Workloads (the reasons are recorded in BENCHMARK.json):

* ``tail_m500``: ``sepprob tail --variable pt --alpha 1 --k K --m 500
  --bound 40 --radius 2e-4 --cache FILE`` in the default auto mode, which
  runs exact at order 500.  FILE already holds mu_0..mu_500; every
  repetition starts from an identical copy.
* ``tail_m520``: the same command at m = 520 with no cache file at the
  start, so auto mode runs float at 300 digits and the cache is written.
* ``sweep_m300``: 15 scenarios (pt, alpha in {1/2, 1, 2}, five k in 0..8
  per alpha) at m = 300, exact, xi = 0, one shared bank, each estimate
  divided by ``closedform.sep_prob`` as ``plot-data`` does.

The seed picks K in {0, 3} for the tail workloads and the k values of the
sweep; the program sees only the generated scenarios.

Every repetition runs in a fresh interpreter (``worker.py``), one at a
time and single-threaded, because the moment memo and the coefficient banks
are process-global and a CLI user pays their cold cost on every
invocation.  A repetition starts while it is expected to end within a
quarter repetition past ``--seconds``.  Between them, set-up-only
repetitions (a fresh interpreter that imports sepprob and stops) are
spread evenly over the window, so the reported ``setup_s`` is a median of
``SETUP_SAMPLES``.  With
``--trace 1`` traced and untraced repetitions alternate; the traced ones
wrap every call into a layer (``tracer.py``) and write their spans to
``.bench_work/``.

The host's throughput drifts by a third over seconds to minutes, which
no median over one run can remove.  So each untraced repetition samples
the host's speed while it solves (``worker.SpeedProbe``), and
``solve_s`` is its wall time scaled to a fixed reference speed.  Each
set-up sample is scaled the same way by the speed measured right after
it.  The notes give each repetition's raw wall time and speed beside it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it are notes (machine, module measured, one line per
repetition, failed checks) and, when traced, the per-layer table.

``--size smoke`` shrinks every workload to tiny orders so the harness and
the correctness gate can be tested in seconds.  The gate's reference
values are in ``refs.json``, recorded with ``make_refs.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("tail_m500", "tail_m520", "sweep_m300")
SIZES = ("full", "smoke")

# Both reconstruct uniquely (8/33 and 27/38) at these orders and cost the same.
TAIL_KS = (0, 3)
TAIL_ORDERS = {"tail_m500": 500, "tail_m520": 520}
# Smoke orders at which each K still reconstructs to its closed form.
SMOKE_TAIL_ORDERS = {0: 20, 3: 40}
SMOKE_FLOAT_FLAGS = ["--mode", "float", "--precision", "40"]
SWEEP_ALPHAS = ("1/2", "1", "2")
SWEEP_KS = range(9)
SWEEP_ORDER = {"full": 300, "smoke": 30}
SWEEP_PER_ALPHA = {"full": 5, "smoke": 1}

SETUP_SAMPLES = 41
RUN_LIMIT_S = 150.0          # no repetition starts past this
DEADLINE_S = 170.0           # a run must end inside 180 s

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "pass_ratio": "ratio"}
PER_LAYER_UNITS = {
    "moments.busy_s": "s", "moments.calls": "count",
    "moments.terms": "count", "moments.mu_bits": "bits",
    "inversion.busy_s": "s", "inversion.bank_s": "s", "inversion.dot_s": "s",
    "inversion.float_s": "s", "inversion.calls": "count",
    "inversion.order": "count", "inversion.coeff_bits": "bits",
    "inversion.cancel_digits": "digits",
    "cli.busy_s": "s", "cli.calls": "count", "cli.cache_load_s": "s",
    "cli.cache_write_s": "s", "cli.cache_bytes": "bytes",
    "cli.cache_records": "count",
    "recon.busy_s": "s", "recon.calls": "count", "recon.unique_ratio": "ratio",
    "closedform.busy_s": "s", "closedform.calls": "count",
    "trace.solve_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def make_job(workload: str, seed: int, size: str) -> dict:
    """The inputs of one repetition, generated from the seed alone."""
    rng = random.Random(seed)
    if workload in TAIL_ORDERS:
        k = rng.choice(TAIL_KS)
        smoke = size == "smoke"
        flags = SMOKE_FLOAT_FLAGS if smoke and workload == "tail_m520" else []
        return {"kind": "tail",
                "scenario": {"variable": "pt", "alpha": "1", "k": str(k)},
                "m": SMOKE_TAIL_ORDERS[k] if smoke else TAIL_ORDERS[workload],
                "bound": 40, "radius": "2e-4", "cli_flags": flags,
                "cached": workload == "tail_m500"}
    if workload == "sweep_m300":
        scenarios = [{"variable": "pt", "alpha": alpha, "k": str(k)}
                     for alpha in SWEEP_ALPHAS
                     for k in sorted(rng.sample(SWEEP_KS,
                                                SWEEP_PER_ALPHA[size]))]
        return {"kind": "sweep", "scenarios": scenarios,
                "m": SWEEP_ORDER[size]}
    raise ValueError(f"unknown workload {workload!r}")


def describe(job: dict) -> str:
    if job["kind"] == "tail":
        sc = job["scenario"]
        return (f"{sc['variable']} alpha={sc['alpha']} k={sc['k']} "
                f"m={job['m']} cached={job['cached']} "
                f"flags={' '.join(job['cli_flags']) or '-'}")
    pairs = " ".join(f"{sc['alpha']}/{sc['k']}" for sc in job["scenarios"])
    return f"pt m={job['m']} alpha/k: {pairs}"


class RepError(RuntimeError):
    """A worker died, timed out or printed no result."""


def call_worker(payload: dict, cwd: Path, deadline: float) -> dict | None:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepError("run deadline passed")
    with subprocess.Popen([sys.executable, "-I", str(WORKER)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd) as proc:
        try:
            out, err = proc.communicate(json.dumps(payload), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RepError("worker timed out") from None
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no message"]
        raise RepError(f"worker exited {proc.returncode}: {tail[0]}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Bench:
    def __init__(self, workload: str, seed: int, size: str,
                 work: Path) -> None:
        self.workload, self.seed, self.size = workload, seed, size
        self.work = work
        self.master = work / "master.cache"
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.notes: list[str] = []
        self._rep_ids = itertools.count()
        self.deadline = time.monotonic() + DEADLINE_S

    def payload(self, job: dict, **extra) -> dict:
        return dict(job, src=str(ROOT / "src"), **extra)

    def prepare(self) -> None:
        """Untimed: write the package's bytecode, as an installed copy has
        it, and make the cache file the cached workload starts from."""
        job = make_job(self.workload, self.seed, self.size)
        call_worker(self.payload(job, trace=False, setup_only=True),
                    self.work, self.deadline)
        if not job.get("cached"):
            return
        start = time.monotonic()
        call_worker(self.payload(job, kind="moments", cache=str(self.master)),
                    self.work, self.deadline)
        self.notes.append(
            f"cache file made in {time.monotonic() - start:.3f} s "
            f"({self.master.stat().st_size} bytes)")

    def rep(self, traced: bool, setup_only: bool = False) -> dict:
        load = os.getloadavg()[0]
        start = time.monotonic()
        job = make_job(self.workload, self.seed, self.size)
        rep_dir = self.work / f"rep{next(self._rep_ids)}"
        rep_dir.mkdir()
        if job["kind"] == "tail":
            job["cache"] = str(rep_dir / "moments.cache")
            if job["cached"]:
                shutil.copyfile(self.master, job["cache"])
        result = call_worker(self.payload(job, trace=traced,
                                          setup_only=setup_only),
                             rep_dir, self.deadline)
        if result is None:
            raise RepError("worker printed no result")
        result["setup_s"] = (result["ready"] - start) * result["setup_speed"]
        result["wall_s"] = time.monotonic() - start
        result["loadavg"] = load
        result["traced"] = traced
        result["job"] = job
        return result

    def run(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()
        while True:
            traced = trace and len(self.reps) % 2 == 1
            result = self.rep(traced)
            self.reps.append(result)
            self.setups.append(result["setup_s"])
            window = min(seconds, RUN_LIMIT_S)
            share = (time.monotonic() - start) / window
            while len(self.setups) < SETUP_SAMPLES * min(share, 1):
                self.setup_sample()
            elapsed = time.monotonic() - start
            typical = statistics.median(r["wall_s"] for r in self.reps)
            enough = len(self.reps) >= (2 if trace else 1)
            # Start another repetition if it should end within a quarter
            # repetition of the window.
            if enough and elapsed + 0.75 * typical > window:
                break
        while len(self.setups) < SETUP_SAMPLES:
            self.setup_sample()
        if trace:
            self._write_spans()

    def setup_sample(self) -> None:
        self.setups.append(self.rep(False, setup_only=True)["setup_s"])

    def _write_spans(self) -> None:
        spans = [r["spans"] for r in self.reps if r["traced"]]
        name = f"spans-{self.workload}-seed{self.seed}.json"
        out = ROOT / ".bench_work" / name
        out.write_text(json.dumps(spans))
        self.notes.append(f"spans written to {out}")

    # -- results -----------------------------------------------------------

    def counts(self) -> tuple[int, int]:
        attempted = sum(r["attempted"] for r in self.reps)
        failed = sum(len(r["failures"]) for r in self.reps)
        return attempted, failed

    def end_to_end(self) -> dict:
        plain = [r for r in self.reps if not r["traced"]]
        attempted, failed = self.counts()
        return {
            "solve_s": statistics.median(r["solve_s"] for r in plain),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mib": statistics.median(r["rss_kib"] / 1024
                                              for r in plain),
            "pass_ratio": (attempted - failed) / attempted,
        }

    def per_layer(self) -> dict:
        traced = [r["layers"] for r in self.reps if r["traced"]]
        plain = [r["wall_solve_s"] for r in self.reps if not r["traced"]]
        out = {name: statistics.median_low(layers[name] for layers in traced)
               for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        out["trace.overhead_s"] = (out["trace.solve_s"]
                                   - statistics.median(plain))
        return out


def format_notes(bench: Bench) -> list[str]:
    first = bench.reps[0]
    lines = [
        f"perfbench workload={bench.workload} seed={bench.seed} "
        f"size={bench.size}",
        f"python {first['python']} mpmath-backend {first['mpmath_backend']} "
        f"nproc {os.cpu_count()}",
        f"sepprob module {first['module']}",
        f"inputs: {describe(first['job'])}",
    ]
    lines += bench.notes
    for i, r in enumerate(bench.reps, 1):
        lines.append(
            f"rep {i} traced={int(r['traced'])} loadavg={r['loadavg']:.2f} "
            f"setup={r['setup_s']:.4f} s solve={r['solve_s']:.4f} s "
            f"wall={r['wall_solve_s']:.4f} s speed={r['speed']:.3f} "
            f"rss={r['rss_kib'] / 1024:.1f} MiB "
            f"ops={r['attempted'] - len(r['failures'])}/{r['attempted']} ok")
        lines += [f"FAILED rep {i} {why}" for why in r["failures"]]
    lines.append("setup samples: "
                 + " ".join(f"{s:.4f}" for s in bench.setups))
    attempted, failed = bench.counts()
    lines.append(f"fail_ratio {failed / attempted:.4f} "
                 f"({failed} of {attempted} operations)")
    return ["# " + line for line in lines]


def format_profile(m: dict) -> list[str]:
    """The per-layer table: self time, share of solve_s, counts, sizes."""
    solve = m["trace.solve_s"]

    def share(x: float) -> str:
        return f"{100 * x / solve:5.1f}%" if solve else "    -"

    rows = [
        ("moments", m["moments.busy_s"], m["moments.calls"],
         f"terms={m['moments.terms']} mu_bits={m['moments.mu_bits']}"),
        ("inversion", m["inversion.busy_s"], m["inversion.calls"],
         f"order={m['inversion.order']} coeff_bits={m['inversion.coeff_bits']}"
         f" cancel_digits={m['inversion.cancel_digits']:.1f}"),
        ("  bank", m["inversion.bank_s"], "", ""),
        ("  dot", m["inversion.dot_s"], "", ""),
        ("  float", m["inversion.float_s"], "", ""),
        ("cli", m["cli.busy_s"], m["cli.calls"],
         f"cache_bytes={m['cli.cache_bytes']} "
         f"cache_records={m['cli.cache_records']}"),
        ("  cache load", m["cli.cache_load_s"], "", ""),
        ("  cache write", m["cli.cache_write_s"], "", ""),
        ("recon", m["recon.busy_s"], m["recon.calls"],
         f"unique_ratio={m['recon.unique_ratio']:.2f}"),
        ("closedform", m["closedform.busy_s"], m["closedform.calls"], ""),
        ("unattributed", m["trace.unattributed_s"], "", "harness and checks"),
    ]
    lines = [f"{'layer':<14}{'self_s':>10}{'share':>8}{'calls':>7}  sizes"]
    for name, seconds, calls, sizes in rows:
        lines.append(f"{name:<14}{seconds:10.4f}{share(seconds):>8}"
                     f"{calls!s:>7}  {sizes}")
    lines.append(f"traced solve_s {solve:.4f} s, tracing overhead "
                 f"{m['trace.overhead_s']:.4f} s")
    return ["# " + line for line in lines]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sepprob" / "__init__.py").is_file():
        print(f"perfbench: no sepprob sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work_base = ROOT / ".bench_work"
    work_base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_base) as work:
        bench = Bench(args.workload, args.seed, args.size, Path(work))
        try:
            bench.prepare()
            bench.run(args.seconds, bool(args.trace))
        except RepError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    print("\n".join(format_notes(bench)))
    if args.trace:
        metrics = bench.per_layer()
        print("\n".join(format_profile(metrics)))
        units = PER_LAYER_UNITS
    else:
        metrics = bench.end_to_end()
        units = END_TO_END_UNITS
    attempted, failed = bench.counts()
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
