"""End-to-end tests of the command-line driver.

Commands run in-process through main() so the coefficient bank and the
recurrence-table memos are shared with the rest of the suite; one test
execs the installed console script to cover the entry point wiring.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from sepprob import cli, closedform, inversion, moments
from sepprob.cli import main
from sepprob.moments import Scenario, Variable, moment_sequence, \
    pt_moment


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def body_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def test_moments_text_output():
    rc, out, err = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                            "--k", "0", "--m", "1"])
    assert rc == 0 and err == ""
    assert body_lines(out) == ["0 1/1", "1 -7/3876"]


def test_moments_order_zero():
    rc, out, _ = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "0"])
    assert rc == 0
    assert body_lines(out) == ["0 1/1"]


def test_moments_diff_family():
    rc, out, _ = run_cli(["moments", "--variable", "diff", "--alpha", "1",
                          "--k", "0", "--m", "1"])
    assert rc == 0
    assert body_lines(out) == ["0 1/1", "1 -2/969"]


def test_moments_json_and_csv():
    rc, out, _ = run_cli(["moments", "--variable", "diff", "--alpha", "1/2",
                          "--k", "1", "--m", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["alpha"] == "1/2" and doc["meta"]["variable"] == "diff"
    assert doc["rows"][2] == {"n": "2", "mu": "13/3046400"}
    rc, out, _ = run_cli(["moments", "--variable", "diff", "--alpha", "1/2",
                          "--k", "1", "--m", "2", "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[2]["mu"] == "13/3046400"


def test_cache_lifecycle(tmp_path):
    cache = str(tmp_path / "pt_1_0.moments")
    argv = ["moments", "--variable", "pt", "--alpha", "1", "--k", "0",
            "--cache", cache]
    rc, first, _ = run_cli(argv + ["--m", "5"])
    assert rc == 0
    lines = (tmp_path / "pt_1_0.moments").read_text().splitlines()
    assert lines[0] == "sepprob-moments v1 variable=pt alpha=1 k=0"
    assert len(lines) == 7

    # a smaller request must not truncate the stored records
    rc, out, _ = run_cli(argv + ["--m", "3"])
    assert rc == 0 and len(body_lines(out)) == 4
    assert len((tmp_path / "pt_1_0.moments").read_text().splitlines()) == 7

    # a larger request extends them
    rc, _, _ = run_cli(argv + ["--m", "8"])
    assert len((tmp_path / "pt_1_0.moments").read_text().splitlines()) == 10

    # identical config, identical bytes
    rc, second, _ = run_cli(argv + ["--m", "5"])
    assert second == first


def test_cache_header_mismatch(tmp_path):
    cache = str(tmp_path / "c.moments")
    rc, _, _ = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                        "--k", "0", "--m", "2", "--cache", cache])
    assert rc == 0
    rc, _, err = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                          "--k", "1", "--m", "2", "--cache", cache])
    assert rc == 1 and err.startswith("CacheHeaderError")


def test_cache_integrity_checks(tmp_path):
    cache = tmp_path / "c.moments"
    run_cli(["moments", "--variable", "pt", "--alpha", "1", "--k", "0",
             "--m", "8", "--cache", str(cache)])
    lines = cache.read_text().splitlines()

    # corrupt one record
    bad = lines[:]
    bad[1 + 5] = "5 1/99999"
    cache.write_text("\n".join(bad) + "\n")
    rc, _, err = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "8", "--cache", str(cache)])
    assert rc == 1 and err.startswith("CacheIntegrityError")

    # records must count up contiguously from zero
    cache.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
    rc, _, err = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "8", "--cache", str(cache)])
    assert rc == 1 and err.startswith("CacheIntegrityError")


def test_cache_check_covers_every_record(tmp_path):
    # a doubled numerator far from the first orders is caught, not served
    cache = tmp_path / "F"
    argv = ["--variable", "pt", "--alpha", "1", "--k", "0", "--m", "40",
            "--cache", str(cache)]
    rc, _, _ = run_cli(["moments"] + argv)
    assert rc == 0
    lines = cache.read_text().splitlines()
    n, value = lines[1 + 30].split()
    num, den = value.split("/")
    lines[1 + 30] = f"{n} {2 * int(num)}/{den}"
    cache.write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(["tail"] + argv)
    assert rc == 1 and out == ""
    assert err.splitlines() == [
        f"CacheIntegrityError: cache {cache}: record n=30 fails recomputation"]


def test_stored_moment_check_catches_every_record(tmp_path):
    cache = tmp_path / "c.moments"
    for variable in Variable:
        argv = ["moments", "--variable", variable.value, "--alpha", "5/2",
                "--k", "7/2", "--m", "12", "--cache", str(cache)]
        cache.unlink(missing_ok=True)
        rc, _, _ = run_cli(argv)
        assert rc == 0
        lines = cache.read_text().splitlines()
        mu = moment_sequence(Scenario(variable, Fraction(5, 2),
                                      Fraction(7, 2)), 12).mu
        for n, x in enumerate(mu):
            for wrong in (x + Fraction(1, 7), 2 * x + (n == 0)):
                bad = lines[:]
                bad[1 + n] = f"{n} {wrong.numerator}/{wrong.denominator}"
                cache.write_text("\n".join(bad) + "\n")
                rc, out, err = run_cli(argv)
                assert rc == 1 and out == ""
                assert err == (f"CacheIntegrityError: cache {cache}: "
                               f"record n={n} fails recomputation\n")


def test_cache_record_must_be_the_computed_text(tmp_path):
    # the first record is congruent to mu_20 modulo 2^61 - 1, the second
    # has a denominator divisible by it, the third is mu_20 itself but not
    # in lowest terms; the rest of the file is exactly what a write emits
    cache = tmp_path / "c.moments"
    argv = ["--variable", "pt", "--alpha", "1", "--k", "0", "--m", "30",
            "--cache", str(cache)]
    rc, _, _ = run_cli(["moments"] + argv)
    assert rc == 0
    lines = cache.read_text().splitlines()
    x = moment_sequence(Scenario(Variable.PT_DET, Fraction(1),
                                 Fraction(0)), 30).mu[20]
    p = (1 << 61) - 1
    shifted = x + p
    for value in (f"{shifted.numerator}/{shifted.denominator}", f"1/{p}",
                  f"{2 * x.numerator}/{2 * x.denominator}"):
        cache.write_text("\n".join(lines[:21] + [f"20 {value}"]
                                   + lines[22:]) + "\n")
        rc, out, err = run_cli(["tail"] + argv)
        assert rc == 1 and out == ""
        assert err == (f"CacheIntegrityError: cache {cache}: "
                       "record n=20 fails recomputation\n")


def test_cache_extension_specializes_once(tmp_path, monkeypatch):
    # from cold table memos, the load's one sequence checks the cache and
    # runs on past it with one reading of the recurrence table; a second k
    # or a second alpha of the variable reads none, and the other variable
    # reads its own once
    cache = tmp_path / "c.moments"
    argv = ["moments", "--variable", "pt", "--alpha", "7/2", "--k", "9/2",
            "--cache", str(cache)]
    rc, _, _ = run_cli(argv + ["--m", "39"])
    assert rc == 0
    moments._alpha_table.cache_clear()
    moments._int_table.cache_clear()
    rows = moments._table_rows
    reads = []

    def counted(variable):
        reads.append(variable)
        return rows(variable)

    monkeypatch.setattr(moments, "_table_rows", counted)
    rc, out, err = run_cli(argv + ["--m", "59"])
    assert rc == 0 and err == ""
    assert reads == [Variable.PT_DET]
    mu = [pt_moment(Fraction(7, 2), Fraction(9, 2), n) for n in range(60)]
    records = [f"{n} {x.numerator}/{x.denominator}" for n, x in enumerate(mu)]
    assert body_lines(out) == cache.read_text().splitlines()[1:] == records
    for variable, alpha, k in (("pt", "7/2", "11/2"), ("pt", "5/2", "9/2"),
                               ("diff", "7/2", "9/2"), ("diff", "1", "0")):
        rc, out, err = run_cli(["moments", "--variable", variable,
                                "--alpha", alpha, "--k", k, "--m", "20"])
        assert rc == 0 and err == ""
        mu = moments._fast_moment(Variable(variable), Fraction(alpha),
                                  Fraction(k), 20)
        assert body_lines(out)[-1] == f"20 {mu.numerator}/{mu.denominator}"
    assert reads == [Variable.PT_DET, Variable.DIFF]
    assert moments._alpha_table.cache_info().misses == 4


def test_cache_hit_does_not_write(tmp_path):
    cache = tmp_path / "c.moments"
    rc, _, _ = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                        "--k", "0", "--m", "6", "--cache", str(cache)])
    assert rc == 0
    before = cache.read_bytes()
    (tmp_path / "c.moments.lock").write_text("")
    for m in ("4", "6"):
        rc, out, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                                "--k", "0", "--m", m, "--cache", str(cache)])
        assert rc == 0 and err == ""
        assert "value_exact" in out
    assert cache.read_bytes() == before
    # a leftover lock file from an older writer no longer blocks growth
    rc, _, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "7", "--cache", str(cache)])
    assert rc == 0 and err == ""
    assert body_lines(cache.read_text())[-1].startswith("7 ")


def test_cache_write_is_one_atomic_replace(tmp_path, monkeypatch):
    cache = tmp_path / "c.moments"
    argv = ["tail", "--variable", "pt", "--alpha", "1", "--k", "0",
            "--cache", str(cache)]
    rc, _, _ = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                        "--k", "0", "--m", "6", "--cache", str(cache)])
    assert rc == 0
    # neither a live writer's lock nor a shared temp file is consulted
    (tmp_path / "c.moments.lock").write_text(f"{os.getpid()}\n")
    (tmp_path / "c.moments.tmp").write_text("junk\n")
    rc, _, err = run_cli(argv + ["--m", "7"])
    assert rc == 0 and err == ""
    records = body_lines(cache.read_text())[1:]
    assert [int(r.split()[0]) for r in records] == list(range(8))
    before = cache.read_bytes()

    def fail(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", fail)
    rc, _, err = run_cli(argv + ["--m", "9"])
    assert rc == 1
    assert err.startswith("CacheIOError: cannot write cache ")
    assert err.rstrip().endswith("disk gone")
    assert cache.read_bytes() == before
    assert [p.name for p in tmp_path.glob("*.tmp")] == ["c.moments.tmp"]


def test_cache_io_errors_print_one_line(tmp_path):
    cases = {
        # the directory of the cache does not exist
        "missing_dir": tmp_path / "missing" / "c.moments",
        # a directory where the cache file should be
        "directory": tmp_path,
        # a file that is not ASCII
        "non_ascii": tmp_path / "latin1.moments",
    }
    cases["non_ascii"].write_bytes("sepprob-moments v1 k=\u00e9\n"
                                   .encode("latin-1"))
    for name, path in cases.items():
        rc, out, err = run_cli(["moments", "--variable", "pt", "--alpha", "1",
                                "--k", "0", "--m", "2", "--cache", str(path)])
        assert rc == 1, name
        assert out == "", name
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("CacheIOError: "), \
            (name, err)
        assert str(path) in lines[0], name
    assert list(tmp_path.rglob("*.tmp")) == []


def test_closed_pipe_ends_quietly():
    # the reader is gone before the command writes a byte
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepprob.cli", "tables", "--table", "4",
         "--approx-m", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Error" not in err, err


def test_tail_baseline_and_reconstruction():
    rc, out, _ = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "0"])
    assert rc == 0
    assert "value_exact 1/17" in out
    rc, out, _ = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "300", "--bound", "40",
                          "--radius", "2e-4"])
    assert rc == 0
    assert "reconstructed 8/33" in out
    assert "confidence unique" in out


def test_exact_values_past_the_digit_limit():
    # value_exact at m = 1000 has about 4,800 digits a side, past the
    # 4300 that str() allows for an int by default; it prints in full
    rc, out, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                            "--k", "0", "--m", "1000", "--mode", "exact"])
    assert rc == 0 and err == ""
    text = dict(ln.split() for ln in body_lines(out))["value_exact"]
    value = inversion.legendre_tail(
        moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)),
                        1000), 0, 1000, mode=inversion.MODE_EXACT).value
    numbers = (value.numerator, value.denominator, -10 ** 9000 - 7,
               123 * 10 ** 5000)
    with pytest.raises(ValueError):
        str(value.denominator)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expect = [str(n) for n in numbers]
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == f"{expect[0]}/{expect[1]}"
    assert [cli._int_text(n) for n in numbers] == expect


def test_tail_reconstruction_needs_both_flags():
    rc, _, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "5", "--bound", "40"])
    assert rc == 1 and "both --bound and --radius" in err


def test_tail_float_mode():
    rc, out, _ = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "20", "--mode", "float",
                          "--precision", "30"])
    assert rc == 0
    assert "precision=30" in out
    assert "value_decimal" in out and "value_exact" not in out


def test_tail_rejects_bad_precision():
    for bad in ("-3", "0"):
        rc, out, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                                "--k", "0", "--m", "5", "--mode", "float",
                                "--precision", bad])
        assert rc == 1 and out == ""
        assert err.startswith("DomainError:")


def test_tail_gegenbauer_weight():
    rc, out, _ = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m", "30", "--geg-alpha", "2",
                          "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["method"] == "gegenbauer"
    assert doc["meta"]["alpha_w"] == "2"
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 30)
    expect = inversion.gegenbauer_tail(seq, 2, 0, 30).value
    exact_row = [r for r in doc["rows"] if r["field"] == "value_exact"][0]
    assert exact_row["value"] == f"{expect.numerator}/{expect.denominator}"


def test_tail_method_label_follows_the_weight():
    base = ["tail", "--variable", "pt", "--alpha", "1", "--k", "0",
            "--m", "5"]
    for weight, label in (("0", "legendre"), ("2", "gegenbauer")):
        rc, out, err = run_cli(base + ["--geg-alpha", weight])
        assert (rc, err) == (0, "")
        assert f" method={label} alpha_w={weight} " in out.splitlines()[0]
    # the flag that used to choose the label is gone
    with pytest.raises(SystemExit) as exc, \
            contextlib.redirect_stderr(io.StringIO()):
        main(base + ["--method", "gegenbauer"])
    assert exc.value.code == 2


def test_tail_profile():
    rc, out, _ = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m-list", "10,50"])
    assert rc == 0
    rows = body_lines(out)
    assert len(rows) == 2
    seq = moment_sequence(Scenario(Variable.PT_DET, Fraction(1), Fraction(0)), 50)
    expect = inversion.legendre_tail(seq, 0, 50).value
    assert rows[1].split()[0] == "50"
    assert rows[1].split()[2] == f"{expect.numerator}/{expect.denominator}"
    assert "precision" not in out
    # float rows show the digits they were rounded to, and say how many
    rc, out, _ = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m-list", "10,50", "--mode", "float",
                          "--precision", "10"])
    assert rc == 0
    assert out.splitlines()[0].endswith(" mode=float precision=10")
    assert body_lines(out) == ["10 0.2937497601 -", "50 0.2390129125 -"]
    rc, _, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m-list", "10,50", "--bound", "40",
                          "--radius", "1e-3"])
    assert rc == 1 and "single estimate" in err
    # a profile row shows what the single estimate at its order shows
    for extra in ([], ["--mode", "float", "--precision", "10"]):
        base = ["tail", "--variable", "pt", "--alpha", "1", "--k", "0"]
        rc, out, _ = run_cli(base + ["--m", "50"] + extra)
        assert rc == 0
        single = dict(ln.split() for ln in body_lines(out))
        rc, out, _ = run_cli(base + ["--m-list", "10,50"] + extra)
        assert rc == 0
        m, decimal, exact = body_lines(out)[1].split()
        assert m == "50" and decimal == single["value_decimal"]
        assert exact == single.get("value_exact", "-")


def test_unparseable_lists_are_reported():
    tail = ["tail", "--variable", "pt", "--m", "3"]
    for argv, name in (
            (["tail", "--variable", "pt", "--alpha", "1", "--k", "0",
              "--m-list", "10,abc"], "SepprobError"),
            (["asymptote", "--alpha", "1/2", "--k-list", "5,x"],
             "SepprobError"),
            (["asymptote", "--alpha", "1/2", "--k-list", ","], "SepprobError"),
            (tail + ["--alpha", "abc", "--k", "0"], "DomainError"),
            (tail + ["--alpha", "1", "--k", "1/0"], "DomainError"),
            (tail + ["--alpha", "1", "--k", "0", "--xi", "abc"],
             "DomainError"),
            (["fit", "--alpha", "x"], "DomainError"),
            (["asymptote", "--alpha", "1/0"], "DomainError")):
        rc, out, err = run_cli(argv)
        assert rc == 1 and out == ""
        assert err.startswith(name + ": ") and err.count("\n") == 1
    rc, _, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                          "--k", "0", "--m-list", ","])
    assert rc == 1 and "--m-list names no truncation orders" in err


def test_rejected_tail_flags_leave_the_cache_alone(tmp_path):
    cache = tmp_path / "c.moments"
    for extra in (["--m-list", "50,10"], ["--m-list", "5,5"],
                  ["--m-list", "5,-1"], ["--m", "5", "--radius", "1e-3"],
                  ["--m-list", "5,10", "--bound", "40", "--radius", "1e-3"],
                  ["--m", "5", "--xi", "1"],
                  ["--m", "5", "--geg-alpha", "-1"],
                  ["--m", "5", "--mode", "float", "--precision", "0"],
                  ["--m", "8", "--bound", "0", "--radius", "1e-3"],
                  ["--m", "8", "--bound", "40", "--radius", "abc"],
                  ["--m", "8", "--bound", "40", "--radius", "nan"],
                  ["--m", "8", "--bound", "40", "--radius", "-1"]):
        rc, out, err = run_cli(["tail", "--variable", "pt", "--alpha", "1",
                                "--k", "0", "--cache", str(cache)] + extra)
        assert rc == 1 and out == "" and err.count("\n") == 1
        assert not cache.exists()
        if "--radius" in extra and extra[-1] != "1e-3":
            assert err.startswith("DomainError: ") and "error radius" in err


def test_negative_cut_point_forms_print_the_same_bytes():
    # a separate -1/20 would read as an option, so the flag's help and
    # README give the joined form; a decimal also parses as a number
    base = ["tail", "--variable", "diff", "--alpha", "1", "--k", "0",
            "--m", "20"]
    joined = run_cli(base + ["--xi=-1/20"])
    decimal = run_cli(base + ["--xi", "-0.05"])
    assert joined[0] == 0 and joined[2] == ""
    assert "xi=-1/20" in joined[1]
    assert joined == decimal


def test_tail_diff_approaches_reported_limit():
    rc, out, _ = run_cli(["tail", "--variable", "diff", "--alpha", "2",
                          "--k", "1", "--m", "150"])
    assert rc == 0
    exact = [ln for ln in body_lines(out) if ln.startswith("value_exact")][0]
    value = Fraction(exact.split()[1])
    assert abs(value - Fraction(2056, 37145)) < Fraction(1, 100)


def test_tables_probability_columns():
    rc, out, _ = run_cli(["tables", "--table", "2", "--k-max", "3"])
    assert rc == 0
    rows = body_lines(out)
    assert rows[3].startswith("3 27/38 0.710526")
    rc, out, _ = run_cli(["tables", "--table", "1", "--k-max", "0",
                          "--factor", "--format", "json"])
    doc = json.loads(out)
    assert doc["rows"][0]["sep_prob"] == "29/64"
    assert doc["rows"][0]["factored"] == "29/2^6"


def test_tables_factor_without_sympy(monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)
    rc, out, err = run_cli(["tables", "--table", "1", "--k-max", "0",
                            "--factor"])
    assert rc == 1 and out == ""
    assert err.startswith("SepprobError:") and "sepprob[factor]" in err


def test_tables_proportions():
    rc, out, _ = run_cli(["tables", "--table", "4"])
    assert rc == 0
    rows = body_lines(out)
    cells = {(r.split()[0], r.split()[1]): r.split()[2:] for r in rows}
    assert cells[("1", "1")][0] == "45/122"
    assert cells[("1", "1")][2] == "identity"
    assert cells[("2", "1")][0] == "1553/4921"
    assert cells[("2", "1")][2] == "recorded"
    assert cells[("3", "1/2")][0] == "-"
    assert cells[("3", "1/2")][2] == "none"


def test_tables_proportion_approximants():
    rc, out, _ = run_cli(["tables", "--table", "4", "--approx-m", "60"])
    assert rc == 0
    rows = body_lines(out)
    for row in rows:
        parts = row.split()
        if parts[0] == "3" and parts[1] == "1":
            assert parts[4] == "recorded"
            recorded = Fraction(3073, 10557)
            assert abs(float(parts[5]) - float(recorded)) < 0.02
        if parts[0] == "3" and parts[1] == "1/2":
            assert parts[4] == "unconfirmed"
    # order 0 is a truncation order like any other
    rc, out, _ = run_cli(["tables", "--table", "4", "--approx-m", "0"])
    assert rc == 0
    assert "approx_m=0" in out and out.splitlines()[1].endswith(
        " approx_decimal")
    assert all(len(row.split()) == 6 for row in body_lines(out))


def test_tables_all_is_text_only():
    rc, out, _ = run_cli(["tables", "--table", "all"])
    assert rc == 0
    assert out.count("command=tables") == 4
    rc, _, err = run_cli(["tables", "--table", "all", "--format", "json"])
    assert rc == 1 and "text only" in err


def test_fit_closed_form_report():
    rc, out, _ = run_cli(["fit", "--alpha", "1"])
    assert rc == 0
    assert "polynomial=512*k^2 + 3584*k + 6400" in out
    assert "all_checks_pass=true" in out
    assert "FAIL" not in out
    rc, out, _ = run_cli(["fit", "--alpha", "2", "--format", "json"])
    doc = json.loads(out)
    assert doc["meta"]["all_checks_pass"] == "true"
    names = [r["check"] for r in doc["rows"]]
    assert "factor_chain" in names and "reduced_second" in names


def test_fit_prediction_only_for_open_cases():
    rc, out, _ = run_cli(["fit", "--alpha", "3"])
    assert rc == 0
    assert "prediction only" in out
    assert "degree 10" in out
    rc, out, _ = run_cli(["fit", "--alpha", "5/2"])
    assert rc == 0
    assert "half_integer_pochhammer (k+6)_3" in out


def test_asymptote_sweep():
    rc, out, _ = run_cli(["asymptote", "--alpha", "2", "--k-list", "10,100",
                          "--precision", "60"])
    assert rc == 0
    rows = [ln.split() for ln in body_lines(out)]
    assert [r[0] for r in rows] == ["10", "100"]
    assert float(rows[1][2]) < float(rows[0][2])


def test_plot_data_figure_one_ordering():
    rc, out, _ = run_cli(["plot-data", "--figure", "1"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 21
    assert rows[0]["rebit"] == "0.453125"
    for row in rows:
        assert float(row["rebit"]) > float(row["qubit"]) > float(row["quaterbit"])


def test_plot_data_figure_two_split():
    rc, out, _ = run_cli(["plot-data", "--figure", "2", "--m", "40",
                          "--k-max", "1"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for name in ("rebit", "qubit", "quaterbit"):
        assert abs(float(rows[0][name]) - 0.5) < 0.1
        assert float(rows[1][name]) < float(rows[0][name])


def test_error_reporting_and_exit_code():
    rc, out, err = run_cli(["moments", "--variable", "pt", "--alpha", "1/3",
                            "--k", "0", "--m", "1"])
    assert rc == 1 and out == ""
    assert err.startswith("DomainError:")


def test_console_script_entry_point():
    # the child imports sepprob from where this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "sepprob.cli", "moments", "--variable", "diff",
         "--alpha", "1/2", "--k", "1", "--m", "2", "--format", "json"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rows"][2]["mu"] == "13/3046400"


def test_full_pipeline_fit_from_approximants():
    # the desk-scale end-to-end run: moments -> tail -> reconstruction ->
    # interpolation -> structure checks, sourced purely from approximants
    rc, out, _ = run_cli(["fit", "--alpha", "1", "--from-approximants",
                          "--m", "1000", "--bound", "500",
                          "--radius", "1e-5", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["polynomial"] == "512*k^2 + 3584*k + 6400"
    assert doc["meta"]["matches_extract_p"] == "true"
    assert "FAIL" not in doc["meta"]["structure_checks"]
    confidences = [r["confidence"] for r in doc["rows"]]
    assert confidences == ["unique", "unique", "ambiguous", "unique"]
    assert all(r["matches_closed_form"] == "true" for r in doc["rows"])


def test_fit_from_approximants_refuses_an_open_alpha_first(monkeypatch):
    # an alpha without a closed form exits with the closed forms' one
    # line before any tail is computed
    calls = []
    monkeypatch.setattr(cli, "_pipeline_tail",
                        lambda *args: calls.append(args))
    for alpha in ("3", "5/2"):
        rc, out, err = run_cli(["fit", "--alpha", alpha,
                                "--from-approximants"])
        assert (rc, out, calls) == (1, "", [])
        assert err == (f"DomainError: no closed form for alpha={alpha}; "
                       "supported: 1/2, 1, 2\n")


def test_fit_from_approximants_checks_bound_and_radius_first(monkeypatch):
    # a bad bound or radius exits with one line naming it before any tail
    # is computed
    calls = []
    monkeypatch.setattr(cli, "_pipeline_tail",
                        lambda *args: calls.append(args))
    for extra, message in (
            (["--bound", "0"], "denominator bound must be an integer >= 1, "
                               "got 0"),
            (["--radius", "abc"], "unparseable error radius: 'abc'"),
            (["--radius", "nan"], "error radius must be finite, got NaN"),
            (["--radius", "-1"], "error radius must be positive, got -1")):
        rc, out, err = run_cli(["fit", "--alpha", "1", "--from-approximants"]
                               + extra)
        assert (rc, out, calls) == (1, "", [])
        assert err == f"DomainError: {message}\n"


@pytest.mark.parametrize("argv", [["tables", "--table", "1"],
                                  ["plot-data", "--figure", "2"]])
def test_negative_k_max_is_refused(argv):
    rc, out, err = run_cli(argv + ["--k-max", "-1"])
    assert (rc, out) == (1, "")
    assert err == "DomainError: --k-max must be an integer >= 0, got -1\n"


def test_served_commands_compute_nothing_twice(tmp_path, monkeypatch):
    # from a cold bank memo, each served command computes every order of
    # a scenario and every coefficient bank once: one moment sequence per
    # scenario, checked by the cache load where there is one, and the
    # memo's one bank serve every repeat these commands make, so a command
    # that went back to an older scenario or bank would fail here
    full, short = tmp_path / "full.moments", tmp_path / "short.moments"
    scenario = ["--variable", "pt", "--alpha", "1", "--k", "0"]
    for cache, m in ((full, "30"), (short, "20")):
        assert run_cli(["moments", *scenario, "--m", m,
                        "--cache", str(cache)])[0] == 0
    scaled, emit = moments._scaled, inversion._emit
    orders, banks = [], []

    def counted_scaled(variable, alpha, k, m):
        orders.extend((variable, alpha, k, n) for n in range(m + 1))
        return scaled(variable, alpha, k, m)

    def counted_emit(*key):
        banks.append(key)
        return emit(*key)

    monkeypatch.setattr(moments, "_scaled", counted_scaled)
    monkeypatch.setattr(inversion, "_emit", counted_emit)
    # argv, then the scenarios and banks the command computes
    served = [
        (["tail", *scenario, "--m", "30", "--cache", str(full)], 1, 1),
        (["tail", *scenario, "--m-list", "10,20,30"], 1, 3),
        (["moments", *scenario, "--m", "40", "--cache", str(short)], 1, 0),
        (["tables", "--table", "4", "--approx-m", "20"], 21, 1),
        (["plot-data", "--figure", "2", "--m", "20"], 15, 1),
        (["fit", "--alpha", "1", "--from-approximants"], 4, 1),
    ]
    for argv, scenarios, bank_count in served:
        inversion._exact_bank.cache_clear()
        orders.clear()
        banks.clear()
        rc, _, err = run_cli(argv)
        assert (rc, err) == (0, ""), argv
        assert len(set(orders)) == len(orders), argv
        assert len({order[:3] for order in orders}) == scenarios, argv
        assert len(set(banks)) == len(banks) == bank_count, argv


# SHA-256 of the default stdout of fast invocations, recorded from the
# m^2/2-step Clenshaw bank; each exits 0 with nothing on stderr
RECORDED_STDOUT = {
    "tail --variable pt --alpha 1 --k 0 --m 300 --bound 40 --radius 2e-4":
        "c2158b1f91649333a9e3c61deea3ba692c899893f5157c44f93d44980e752303",
    "tail --variable pt --alpha 1 --k 3 --m 300 --bound 40 --radius 2e-4":
        "431d3df4bafc6027ac79203c4763f978c31a377ab8b24bf0e5147fb13acd43b3",
    "tail --variable pt --alpha 1 --k 0 --m-list 50,100,150,200 "
    "--mode float --precision 40":
        "9f2d06de943922419d47ccdfb5f5eccdd5e6cb22a01995f6427a70c13b2b7a6a",
    "tail --variable diff --alpha 2 --k 1 --m 120 --geg-alpha 2 "
    "--format csv":
        "f2c16c8b1b07929a10b753b8c95d764efafc342b7565b02be27779650d69de30",
    "tail --variable pt --alpha 1 --k 0 --m 200 --xi 1/256":
        "d0a9ceb5a6ba049de239e8b07a7c6f8e3755d11c37ef0731e00073bed61909a2",
    "tables --table 4 --approx-m 60":
        "833fd646c318924b3d09abead90869bae8bb6a010e41c00031534ca6db383ed1",
    "plot-data --figure 2":
        "f529948d700823beaa92aa00289135e9c9ba67b700a63f10cfc7929b13b4cdbf",
}


@pytest.mark.parametrize("command", sorted(RECORDED_STDOUT))
def test_default_output_matches_recorded_digests(command):
    rc, out, err = run_cli(command.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED_STDOUT[command]


# SHA-256 of the json and csv stdout of invocations that cover every
# command, recorded before the CLI imported json and csv on demand
RECORDED_FORMATTED_STDOUT = {
    "moments --variable diff --alpha 3/2 --k 2 --m 40 --format csv":
        "804d4d7087576a7f0f5a7254fa07706bc02197d2cef8cb49df90d6617f21a198",
    "moments --variable pt --alpha 1/2 --k 1 --m 40 --format json":
        "6014834c5acc08867093bf77cb2cbb64482f10b557558a8782a3eb72e58734bd",
    "tail --variable pt --alpha 2 --k 1 --m 150 --bound 200 --radius 1e-5 "
    "--format json":
        "93459437fe5d9c9afc3e82991ba6a8fb5cc40f66e1d2a27f6f8cd6f4890ba94a",
    "tail --variable pt --alpha 1 --k 0 --m-list 20,40,80 --geg-alpha 1 "
    "--format csv":
        "23d4b6109d04fa0f7b46941ea8efdec5572cc88935bec56bf486f7dd03f46d64",
    "tail --variable diff --alpha 1/2 --k 0 --m 60 --xi=-1/40 --mode float "
    "--precision 30 --format json":
        "7e3a1a87faf803881819a798fb7c905e4191f976d1abe58072454c1173c23bd4",
    "tables --table 2 --k-max 6 --format csv":
        "685395dd9d03e7ed21d518feb943d33552254f3e9c43d6bee500ad8816047ece",
    "tables --table 4 --format json":
        "0b47d94952371fef2fea2e8be0264e9e1e90c5293269cd8385ce15ca3cbc9730",
    "fit --alpha 1 --format csv":
        "23160fd213b70f03211de9de06d503feb091465cb5a99dd6ad542267fdbe3edb",
    "fit --alpha 3 --format json":
        "1853b3c9337a561c70b320d23447766af39f369d0948abe7f10fe47297254a33",
    "asymptote --alpha 2 --k-list 10,100 --precision 60 --format csv":
        "b8d117510a5bc91479408b96c065494f164f64a61ca595c259930606abad1f30",
    "plot-data --figure 1 --k-max 5 --format json":
        "20b13cb654639de8e3c542d50e7af099328b22034dcd163908c03b2d9f56663c",
}


@pytest.mark.parametrize("command", sorted(RECORDED_FORMATTED_STDOUT))
def test_json_and_csv_output_matches_recorded_digests(command):
    rc, out, err = run_cli(command.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        RECORDED_FORMATTED_STDOUT[command]


def test_import_loads_no_heavy_module():
    # importing sepprob and its CLI after mpmath adds no dataclasses (nor
    # the inspect it pulls in) and no csv, in a child isolated with -I
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "tools", "import_check.py")
    proc = subprocess.run([sys.executable, "-I", script, src],
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout
    assert len(lines) == 1 and lines[0].startswith(f"sepprob from {src}")
