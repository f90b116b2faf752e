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


def _traced(side, layers, seed=1):
    return {"workload": "w", "side": side, "seed": seed, "trace": 1,
            "result": {"metrics": {name: {"value": value}
                                   for name, value in layers.items()}},
            "wall_solve_s": None}


def test_summary_reports_the_traced_layers_beside_the_gated_metrics():
    runs = [_run("parent", 11, 0.10, 0.20), _run("change", 11, 0.08, 0.21),
            _run("change", 12, 0.09, 0.17), _run("parent", 12, 0.11, 0.19),
            _traced("parent", {"moments.busy_s": 0.08, "inversion.dot_s": 0.04,
                               "inversion.float_s": 0.0,
                               "trace.overhead_s": -0.002, "cli.calls": 3}),
            _traced("change", {"moments.busy_s": 0.06, "inversion.dot_s": 0.03,
                               "inversion.float_s": 0.0,
                               "trace.overhead_s": 0.001})]
    layers = [{"name": name, "better": "lower"}
              for name in ("moments.busy_s", "inversion.dot_s",
                           "inversion.float_s", "trace.overhead_s",
                           "cli.calls", "recon.calls")]
    rows = bench_pairs.summarize(runs, [{"name": "solve_s",
                                         "better": "lower"}], layers)["w"]
    assert list(rows) == ["solve_s", "wall_solve_s", "moments.busy_s",
                          "inversion.dot_s", "inversion.float_s",
                          "trace.overhead_s"]
    assert rows["moments.busy_s"] == {"pairs": 1, "change_wins": 1,
                                      "parent": 0.08, "change": 0.06,
                                      "relative_change": -0.25,
                                      "gated": False}
    assert rows["inversion.dot_s"]["relative_change"] == -0.25
    # a layer at zero on the parent has no relative change
    assert rows["inversion.float_s"]["relative_change"] == 0.0
    # a rise from a negative parent value reads as a rise
    assert rows["trace.overhead_s"]["relative_change"] == 1.5
    # the traced runs enter no gated row, and a layer that only one side
    # reports (cli.calls) or neither (recon.calls) is left out
    assert rows["solve_s"]["pairs"] == 2
    # before the change's traced run lands, no layer row is written
    rows = bench_pairs.summarize(runs[:-1], [{"name": "solve_s",
                                              "better": "lower"}], layers)["w"]
    assert list(rows) == ["solve_s", "wall_solve_s"]


def test_traced_layers_are_medians_over_the_traced_pairs():
    # the host drifted during traced pair 1: read alone, it puts the
    # change 80% slower on a layer that pairs 2 and 3 put 25% faster
    untraced = [_run("parent", 11, 0.10, 0.20), _run("change", 11, 0.08, 0.21),
                _run("change", 12, 0.09, 0.17), _run("parent", 12, 0.11, 0.19)]
    traced = [
        _traced("parent", {"moments.busy_s": 0.05, "recon.unique_ratio": 0.5}),
        _traced("change", {"moments.busy_s": 0.09, "recon.unique_ratio": 1.0}),
        _traced("change", {"moments.busy_s": 0.06, "recon.unique_ratio": 0.5},
                seed=2),
        _traced("parent", {"moments.busy_s": 0.08, "recon.unique_ratio": 0.5},
                seed=2),
        _traced("parent", {"moments.busy_s": 0.08, "recon.unique_ratio": 0.5},
                seed=3),
        _traced("change", {"moments.busy_s": 0.06,
                           "recon.unique_ratio": 0.25}, seed=3)]
    metrics = [{"name": "solve_s", "better": "lower"}]
    layers = [{"name": "moments.busy_s", "better": "lower"},
              {"name": "recon.unique_ratio", "better": "higher"}]
    alone = bench_pairs.summarize(untraced + traced[:2], metrics, layers)["w"]
    assert alone["moments.busy_s"]["relative_change"] == 0.8
    assert alone["moments.busy_s"]["change_wins"] == 0
    # pair 2's parent run has not landed yet: its change run is left out
    rows = bench_pairs.summarize(untraced + traced[:3], metrics, layers)["w"]
    assert rows["moments.busy_s"]["pairs"] == 1
    rows = bench_pairs.summarize(untraced + traced, metrics, layers)["w"]
    assert rows["moments.busy_s"] == {"pairs": 3, "change_wins": 2,
                                      "parent": 0.08, "change": 0.06,
                                      "relative_change": -0.25,
                                      "gated": False}
    # where higher is better, the change wins the pair it raises
    assert rows["recon.unique_ratio"] == {"pairs": 3, "change_wins": 1,
                                          "parent": 0.5, "change": 0.5,
                                          "relative_change": 0.0,
                                          "gated": False}
    assert rows["solve_s"]["pairs"] == 2


def test_run_plan_alternates_untraced_and_traced_pairs():
    plan = bench_pairs.run_plan(["a", "b"])
    pairs = bench_pairs.PAIRS + bench_pairs.TRACE_PAIRS
    assert len(plan) == 2 * 2 * pairs
    assert [run[0] for run in plan] == ["a"] * 2 * pairs + ["b"] * 2 * pairs
    traced = [run[1:] for run in plan[:2 * pairs] if run[3] == 1]
    first = bench_pairs.TRACE_SEED
    assert traced == [("parent", first, 1), ("change", first, 1),
                      ("change", first + 1, 1), ("parent", first + 1, 1),
                      ("parent", first + 2, 1), ("change", first + 2, 1)]
    untraced = [run[1:3] for run in plan[:2 * pairs] if run[3] == 0]
    assert untraced[:4] == [("parent", 11), ("change", 11),
                            ("change", 12), ("parent", 12)]
