#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, written as BENCH_<n>.json.

Run from a git checkout of the repository:

    python3 tools/bench_pairs.py --parent HEAD~1 --number 8 \\
        --note "what the change does"

Both commits are exported with ``git archive`` into a temporary directory,
so each side runs the benchmark of its own committed files.  For every
workload of ``BENCHMARK.json`` the script runs PAIRS pairs of
``perfbench/run.py --trace 0``, for BENCHMARK.json's run length, at seeds
FIRST_SEED upwards; odd pairs run the parent first and even pairs the
change first.  Then it runs TRACE_PAIRS pairs of ``--trace 1`` at seeds
TRACE_SEED upwards, alternated the same way.  Runs go one at a time.
``--change`` names a commit other than HEAD, so an earlier record can be
measured again.

The output file holds the summary (per workload and end-to-end metric: each
side's median and quartiles, the pairs the change wins, ties counting for
neither, and the relative change of the medians) and every run: its
command, side, seed, the last JSON line it printed and ``wall_solve_s``,
the median raw wall time of its untraced repetitions, read from the
``rep ... traced=0 ... wall=X s`` lines of its notes.  ``solve_s`` is that
wall time scaled by a speed sample of the host; the summary reports
``wall_solve_s`` beside the metrics as a row marked ``"gated": false``,
which shows what the scaling did and decides nothing.  Each per-layer
metric of ``BENCHMARK.json`` that both sides' traced runs report gets a
row of the same kind, with each side's median over the traced pairs,
the pairs the change wins and the relative change of the medians, so
the layers show beside the end-to-end metrics.  The layer times are raw
seconds, so one traced run per side would read the host's drift between
the two as a change.  The file is rewritten after every run, so an
interrupted run leaves the pairs it finished.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 11
TRACE_PAIRS = 3
TRACE_SEED = 1
# a note line of perfbench/run.py for one untraced repetition
UNTRACED_REP = re.compile(r"^# rep \d+ traced=0 .*\bwall=(\S+) s\b")


def export(rev: str, dest: Path) -> str:
    """Extract the files of commit rev into dest; return its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                           check=True, capture_output=True,
                           text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return short


def wall_solve_s(lines: list[str]) -> float | None:
    """The median raw wall time of the untraced repetitions in a run's
    notes, or None when it has none."""
    walls = [float(match[1]) for match in map(UNTRACED_REP.match, lines)
             if match]
    return statistics.median(walls) if walls else None


def bench_run(root: Path, command: list[str], workload: str, seed: int,
              seconds: float, trace: int) -> tuple[str, dict, str,
                                                   float | None]:
    """One benchmark run in root: (command line, its JSON result, the
    machine line of its notes, its wall_solve_s)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    machine = next((ln[2:] for ln in lines if ln.startswith("# python ")), "")
    return " ".join(argv), json.loads(lines[-1]), machine, \
        wall_solve_s(lines)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def wins(parent: list[float], change: list[float], sign: int) -> int:
    """The pairs the change wins, ties counting for neither (sign 1 when
    lower is better)."""
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def compare(parent: list[float], change: list[float], sign: int) -> dict:
    """One summary row: spreads, the pairs the change wins and the
    relative change of the medians (sign 1 when lower is better)."""
    before, after = statistics.median(parent), statistics.median(change)
    return {
        "pairs": len(parent), "change_wins": wins(parent, change, sign),
        "parent": spread(parent), "change": spread(change),
        "median_change": round((after - before) / before, 4)
        if before else 0.0,
    }


def layer_rows(runs: list[dict], workload: str,
               layers: Sequence[dict]) -> dict:
    """One row per per-layer metric that both sides' traced runs of the
    workload report, over the traced pairs completed so far: each side's
    median, the pairs the change wins and the change of the medians
    relative to the parent's magnitude (trace.overhead_s, a difference
    of two timings, can be negative), marked "gated": false, since a few
    traced runs of raw seconds decide nothing."""
    traced = {(run["seed"], run["side"]): run["result"]["metrics"]
              for run in runs
              if run["workload"] == workload and run["trace"] == 1}
    seeds = sorted(seed for seed, side in traced
                   if side == SIDES[0] and (seed, SIDES[1]) in traced)
    rows = {}
    for layer in layers:
        name = layer["name"]
        if seeds and all(name in traced[seed, side]
                         for seed in seeds for side in SIDES):
            parent, change = ([traced[seed, side][name]["value"]
                               for seed in seeds] for side in SIDES)
            before = statistics.median(parent)
            after = statistics.median(change)
            rows[name] = {
                "pairs": len(seeds),
                "change_wins": wins(parent, change,
                                    1 if layer["better"] == "lower" else -1),
                "parent": before, "change": after,
                "relative_change": round((after - before) / abs(before), 4)
                if before else 0.0,
                "gated": False}
    return rows


def summarize(runs: list[dict], metrics: list[dict],
              layers: Sequence[dict] = ()) -> dict:
    """Per workload and metric, over the untraced pairs completed so far,
    then the reported wall_solve_s row and the traced per-layer rows."""
    out: dict = {}
    for run in runs:
        if run["trace"] == 0:
            out.setdefault(run["workload"], {})
    for workload, rows in out.items():
        value = {}
        for run in runs:
            if run["workload"] == workload and run["trace"] == 0:
                value[run["seed"], run["side"]] = run
        seeds = sorted({seed for seed, side in value
                        if (seed, "parent") in value
                        and (seed, "change") in value})
        if len(seeds) < 2:
            continue
        for metric in metrics:
            name = metric["name"]
            rows[name] = compare(
                *([value[seed, s]["result"]["metrics"][name]["value"]
                   for seed in seeds] for s in SIDES),
                1 if metric["better"] == "lower" else -1)
        walls = [[value[seed, s].get("wall_solve_s") for seed in seeds]
                 for s in SIDES]
        if None not in walls[0] + walls[1]:
            rows["wall_solve_s"] = {**compare(*walls, 1), "gated": False}
        rows.update(layer_rows(runs, workload, layers))
    return out


def run_plan(workloads: Sequence[str]) -> list[tuple[str, str, int, int]]:
    """(workload, side, seed, trace) of every run in order: per workload,
    PAIRS untraced pairs, then TRACE_PAIRS traced ones; in either kind,
    odd pairs run the parent first and even pairs the change first."""
    plan = []
    for workload in workloads:
        for trace, seed, count in ((0, FIRST_SEED, PAIRS),
                                   (1, TRACE_SEED, TRACE_PAIRS)):
            for i in range(count):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                plan += [(workload, side, seed + i, trace)
                         for side in order]
    return plan


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the commit to compare against")
    parser.add_argument("--change", default="HEAD",
                        help="the commit measured (default HEAD)")
    parser.add_argument("--number", type=int, required=True,
                        help="n of the BENCH_<n>.json written at the root")
    parser.add_argument("--note", required=True,
                        help="one line on what the change does")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    out_path = ROOT / f"BENCH_{args.number}.json"
    with tempfile.TemporaryDirectory() as scratch:
        roots = {side: Path(scratch) / side for side in SIDES}
        commits = {side: export(rev, roots[side])
                   for side, rev in zip(SIDES, (args.parent, args.change))}
        doc = {
            "pr": args.number, "change": args.note,
            "parent_commit": commits["parent"],
            "change_commit": commits["change"], "machine": "",
            "protocol": (
                f"{PAIRS} alternating parent/change pairs per workload "
                f"with --trace 0 (seeds {FIRST_SEED}-"
                f"{FIRST_SEED + PAIRS - 1}; odd pairs run the "
                f"parent first, even pairs the change first), then "
                f"{TRACE_PAIRS} alternating pairs per workload with "
                f"--trace 1 (seeds {TRACE_SEED}-"
                f"{TRACE_SEED + TRACE_PAIRS - 1}), whose per-layer rows "
                f"give each side's median and the pairs the change wins, "
                f"{seconds:g}-s runs.  Each entry of runs is the last "
                f"JSON line of the command, run from the root of a fresh "
                f"git archive export of the side's commit."),
            "summary": {}, "runs": [],
        }
        plan = run_plan(workloads)
        for count, (workload, side, seed, trace) in enumerate(plan, 1):
            command, result, machine, wall = bench_run(
                roots[side], spec["command"], workload, seed, seconds, trace)
            doc["machine"] = doc["machine"] or machine
            doc["runs"].append({"workload": workload, "side": side,
                                "seed": seed, "trace": trace,
                                "command": command, "result": result,
                                "wall_solve_s": wall})
            doc["summary"] = summarize(doc["runs"], spec["end_to_end"],
                                       spec["per_layer"])
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"[{count}/{len(plan)}] {workload} {side} seed={seed} "
                  f"trace={trace} correct={result['correct']}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
