"""Tests of the benchmark harness at the smoke size.

    python3 -m pytest -q perfbench/test_bench.py

They check the output schema against BENCHMARK.json, the correctness gate
(a planted wrong reference must show up as failed operations) and the
refusal to run without the package sources.  Each run takes a second or
two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
         "--size", "smoke", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture
def workdir():
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        yield Path(tmp)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_gate(workload, trace):
    result = result_of(bench(workload, trace))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        assert result["metrics"]["solve_s"]["value"] > 0


def copy_checkout(workdir: Path, with_sources: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", workdir / "src", ignore=ignore)


def test_wrong_reference_is_counted(workdir):
    copy_checkout(workdir, with_sources=True)
    refs_file = workdir / "perfbench" / "refs.json"
    refs = json.loads(refs_file.read_text())
    for entry in refs["estimates"].values():
        entry["exact_sha256"] = "0" * 64
    refs_file.write_text(json.dumps(refs))
    proc = bench("tail_m500", 0, cwd=workdir)
    result = result_of(proc)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert "FAILED rep 1 tail: exact value differs" in proc.stdout


def test_refuses_checkout_without_sources(workdir):
    copy_checkout(workdir, with_sources=False)
    proc = bench("sweep_m300", 0, cwd=workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_on_seed_only():
    for workload in run.WORKLOADS:
        assert run.make_job(workload, 7, "full") == \
            run.make_job(workload, 7, "full")
    ks = {run.make_job("tail_m500", seed, "full")["scenario"]["k"]
          for seed in range(20)}
    assert ks == {"0", "3"}
    sweep = run.make_job("sweep_m300", 3, "full")["scenarios"]
    assert len({(s["alpha"], s["k"]) for s in sweep}) == 15


@pytest.mark.parametrize("printed, ok", [
    ("0.123456789", True),          # correctly rounded, zero stripped
    ("0.1234567890", True),
    ("0.1234567891", False),        # last digit one unit off
    ("0.1234567889", False),
    ("0.1234567999", False),
])
def test_float_check_wants_correct_rounding(printed, ok):
    ref = {"decimal": "0.12345678901234567890123"}
    meta = {"mode": "float", "precision": "10"}
    why = worker.check_value(meta, {"value_decimal": printed}, ref)
    assert (why is None) == ok, why


def test_float_check_rounds_at_the_leading_digit():
    ref = {"decimal": "9.87654321049999999999999e-7"}
    meta = {"mode": "float", "precision": "9"}
    assert worker.check_value(meta, {"value_decimal": "9.87654321e-7"},
                              ref) is None
    assert worker.check_value(meta, {"value_decimal": "9.87654322e-7"},
                              ref) is not None


def test_speed_probe_samples_during_the_solve():
    with worker.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.ratios) >= 3
    assert 0 < probe.spent_s < 0.3
    assert 0.1 < probe.speed() < 10
