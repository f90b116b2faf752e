"""Unit tests of tools/bench_pairs.py: the notes parser and the summary."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# the notes of one traced perfbench run, then its JSON line
NOTES = """\
# perfbench workload=tail_m500 seed=1 size=smoke
# python 3.11.7 mpmath-backend python nproc 2
# rep 1 traced=0 loadavg=0.59 setup=0.0734 s solve=0.0093 s wall=0.0181 s speed=0.515 rss=23.9 MiB ops=3/3 ok
# rep 2 traced=1 loadavg=0.59 setup=0.0604 s solve=0.0144 s wall=0.0144 s speed=1.000 rss=25.1 MiB ops=3/3 ok
# rep 3 traced=0 loadavg=0.70 setup=0.0534 s solve=0.0123 s wall=0.0155 s speed=0.789 rss=24.0 MiB ops=3/3 ok
# FAILED rep 3 wall=9.9 s is no repetition
# rep 4 traced=1 loadavg=0.70 setup=0.0534 s solve=0.0123 s wall=0.0900 s speed=1.000 rss=24.0 MiB ops=3/3 ok
# rep 5 traced=0 loadavg=0.71 setup=0.0601 s solve=0.0101 s wall=0.0170 s speed=0.600 rss=24.0 MiB ops=3/3 ok
# setup samples: 0.0734 0.0604
{"correct": true, "attempted": 9, "failed": 0, "metrics": {}}"""


def test_wall_solve_s_is_the_median_of_the_untraced_reps():
    # traced repetitions and other lines that mention wall= are skipped
    assert bench_pairs.wall_solve_s(NOTES.splitlines()) == pytest.approx(0.0170)


def test_wall_solve_s_without_untraced_reps():
    lines = [ln for ln in NOTES.splitlines() if "traced=0" not in ln]
    assert bench_pairs.wall_solve_s(lines) is None
    assert bench_pairs.wall_solve_s([]) is None


def _run(side, seed, solve, wall, trace=0):
    return {"workload": "w", "side": side, "seed": seed, "trace": trace,
            "result": {"metrics": {"solve_s": {"value": solve}}},
            "wall_solve_s": wall}


def test_summary_reports_wall_time_beside_the_gated_metrics():
    runs = [_run("parent", 11, 0.10, 0.20), _run("change", 11, 0.08, 0.21),
            _run("change", 12, 0.09, 0.17), _run("parent", 12, 0.11, 0.19),
            _run("parent", 1, 9.0, 9.0, trace=1)]
    rows = bench_pairs.summarize(runs, [{"name": "solve_s",
                                         "better": "lower"}])["w"]
    assert "gated" not in rows["solve_s"]
    assert rows["solve_s"]["change_wins"] == 2
    wall = rows["wall_solve_s"]
    assert wall["gated"] is False and wall["pairs"] == 2
    assert wall["change_wins"] == 1
    assert wall["parent"]["median"] == 0.195
    assert wall["median_change"] == round((0.19 - 0.195) / 0.195, 4)
    # a run recorded before the field existed leaves the row out
    del runs[0]["wall_solve_s"]
    rows = bench_pairs.summarize(runs, [{"name": "solve_s",
                                         "better": "lower"}])["w"]
    assert "wall_solve_s" not in rows and "solve_s" in rows
