import gc
import inspect
import json
import math
import os
import re
import stat
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from legfam import bounds, checks, cli, gf, ntheory
from legfam.bounds import BoundReport, make_report
from legfam.cli import CSV_HEADER, main
from legfam.errors import BudgetExceededError
from legfam.lambertw import w0_real
from legfam.ntheory import is_prime


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_w_x_one_exact_output(capsys):
    code, out, _ = run_cli(capsys, "w", "--x", "1")
    assert code == 0
    assert out == "0.567143290409784\n"


def test_w_log_x(capsys):
    code, out, _ = run_cli(capsys, "w", "--log-x", "1000")
    assert code == 0
    assert float(out) == pytest.approx(993.0991694723891, abs=1e-9)


def test_w_log_x_below_one(capsys):
    # W(e^L) for L < 1 is read off e^L itself, below the log-domain solver's range
    want = cli._fmt(w0_real(math.exp(0.5)).value) + "\n"
    assert run_cli(capsys, "w", "--log-x=0.5") == (0, want, "")


def test_w_complex(capsys):
    code, out, _ = run_cli(capsys, "w", "--complex=-0.462098120373297,0")
    assert code == 0
    real_s, sign, imag_s = out.strip().rsplit(" ", 2)
    value = complex(float(real_s), float(sign + imag_s.rstrip("i")))
    assert abs(value - complex(-0.847209710207865, 0.666789641075179)) < 1e-9


def test_w_complex_help_names_the_form_for_a_negative_real_part(capsys):
    # argparse reads "-1,0", and a negative number with an exponent, after a
    # space as a flag, so the help gives the one form that takes each
    assert run_cli(capsys, "w", "--complex", "-1,0")[0] == 1
    assert run_cli(capsys, "w", "--x", "-1e-5")[0] == 1
    assert run_cli(capsys, "w", "--log-x", "-1e3")[0] == 1
    code, out, _ = run_cli(capsys, "w", "--help")
    assert code == 0
    help_text = " ".join(out.split())
    assert "write --complex=RE,IM if RE is negative" in help_text
    assert "write --x=X if X is negative with an exponent" in help_text
    assert "write --log-x=L if L is negative with an exponent" in help_text
    assert run_cli(capsys, "w", "--complex=-1,0")[0] == 0
    assert run_cli(capsys, "w", "--x=-1e-5") == (0, "-1.00001000015e-05\n", "")


def test_w_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "w", "--x", "-1")
    assert code == 2
    assert "domain" in err


def test_w_requires_exactly_one_input(capsys):
    assert run_cli(capsys, "w")[0] == 1
    assert run_cli(capsys, "w", "--x", "1", "--log-x", "2")[0] == 1


def test_bound_text_output(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "7", "--k", "2")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert lines["p"] == "7"
    assert lines["b"] == "0"
    assert float(lines["new_bound"]) == pytest.approx(2.563160164447206, abs=1e-12)
    assert lines["guaranteed_j"] == "2"


def test_bound_json_output(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "13", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 13 and data["k"] == 2
    assert data["new_bound"] == pytest.approx(3.2891144568262855, abs=1e-12)
    assert data["t_new_ns"] >= 0


def test_bound_csv_output(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "7", "--k", "2", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == CSV_HEADER
    fields = row.split(",")
    assert fields[0] == "7" and fields[1] == "2" and fields[3] == "2"


def test_bound_rejects_composite_p(capsys):
    code, _, err = run_cli(capsys, "bound", "--p", "9", "--k", "1")
    assert code == 2
    assert "prime" in err
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # Miller-Rabin base the test uses; psi_13 also passes base 41
    for pseudo in ("318665857834031151167461", "3317044064679887385961981"):
        code, _, err = run_cli(capsys, "bound", "--p", pseudo, "--k", "1")
        assert code == 2, pseudo
        assert "prime" in err
        assert run_cli(capsys, "scan", "--p", pseudo, "--k-max", "1")[0] == 2, pseudo


def test_bound_evaluates_the_cell_once(capsys, monkeypatch):
    reports = []

    def counting_make_report(p, k):
        reports.append(make_report(p, k))
        return reports[-1]

    monkeypatch.setattr(cli, "make_report", counting_make_report)
    outputs = {}
    for fmt in ("text", "csv", "json"):
        reports.clear()
        code, outputs[fmt], _ = run_cli(
            capsys, "bound", "--p", "2128240847", "--k", "2000", "--format", fmt
        )
        assert code == 0
        assert len(reports) == 1, fmt
        rep = reports[0]
        if fmt == "csv":
            # the printed row is the one report, timing columns included
            assert outputs[fmt].splitlines() == [CSV_HEADER, cli._csv_row(rep)]
    text = dict(line.split(" = ") for line in outputs["text"].strip().splitlines())
    data = json.loads(outputs["json"])
    row = dict(zip(CSV_HEADER.split(","), outputs["csv"].splitlines()[1].split(",")))
    for key in ("p", "k", "new_bound", "guaranteed_j", "gyarmati_bound", "gyarmati_c", "upper_bound"):
        assert row[key] == text[key], key
        value = data[key]
        assert row[key] == (cli._fmt(value) if isinstance(value, float) else str(value)), key


def test_bound_prints_the_one_report_schema(capsys):
    code, out, _ = run_cli(capsys, "bound", "--p", "7", "--k", "2", "--format", "json")
    assert code == 0
    keys = list(json.loads(out))
    assert keys == [f.name for f in fields(BoundReport)]
    code, out, _ = run_cli(capsys, "bound", "--p", "7", "--k", "2")
    assert code == 0
    assert [line.split(" = ")[0] for line in out.strip().splitlines()] == keys
    # README documents these columns: a new BoundReport field must not
    # reach the CSV unnoticed
    assert CSV_HEADER == (
        "p,k,new_bound,guaranteed_j,gyarmati_bound,gyarmati_c,upper_bound,"
        "t_new_ns,t_gyarmati_ns"
    )


def test_scan_over_p_visits_odd_primes_only(capsys):
    code, out, _ = run_cli(capsys, "scan", "--k", "2", "--p-max", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    ps = [int(line.split(",")[0]) for line in lines[1:]]
    assert ps == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    # a far window is sieved on its own, not from 2 up
    lo, hi = 2128240000, 2128241000
    code, out, _ = run_cli(capsys, "scan", "--k", "1", "--p-min", str(lo), "--p-max", str(hi))
    assert code == 0
    ps = [int(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert ps == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_scan_over_k(capsys):
    code, out, _ = run_cli(capsys, "scan", "--p", "7", "--k-min", "1", "--k-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    ks = [int(line.split(",")[1]) for line in lines[1:]]
    assert ks == [1, 2, 3, 4]


def test_scan_csv_values_formatted_15g(capsys):
    code, out, _ = run_cli(capsys, "scan", "--k", "2", "--p-min", "7", "--p-max", "7")
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "2.56316016444721"
    assert row[5] == "2.5"


def test_scan_deterministic_bound_columns(capsys):
    _, first, _ = run_cli(capsys, "scan", "--k", "1", "--p-max", "50")
    _, second, _ = run_cli(capsys, "scan", "--k", "1", "--p-max", "50")
    strip = lambda text: [line.rsplit(",", 2)[0] for line in text.splitlines()]
    assert strip(first) == strip(second)  # all but the timing columns


def test_scan_usage_errors(capsys):
    # both axes ranged, neither ranged, missing fixed flag
    assert run_cli(capsys, "scan", "--p-max", "20", "--k-max", "3")[0] == 1
    assert run_cli(capsys, "scan", "--p", "7", "--k", "2")[0] == 1
    assert run_cli(capsys, "scan", "--p-max", "20")[0] == 1
    assert run_cli(capsys, "scan", "--p", "7", "--p-max", "20", "--k", "2")[0] == 1


def test_scan_degree_below_one_is_a_domain_error(capsys):
    # a k below 1 exits 2 whether it is fixed or the start of a k range
    for grid in (("--k", "0", "--p-max", "20"), ("--p", "7", "--k-min", "0", "--k-max", "3")):
        code, out, err = run_cli(capsys, "scan", *grid)
        assert (code, out) == (2, ""), grid
        assert "k must be >= 1, got 0" in err, grid
    # an empty k range stays a usage error
    code, _, err = run_cli(capsys, "scan", "--p", "7", "--k-min", "3", "--k-max", "2")
    assert code == 1
    assert "need --k-min <= --k-max" in err


def test_scan_out_file_lf_and_utf8(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "scan", "--k", "2", "--p-max", "10", "--out", str(out_path))
    assert code == 0
    assert out == ""
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")


def test_scan_gnuplot_script(tmp_path, capsys):
    # a successful run rewrites an existing CSV and leaves no other file
    for name in ["rows.csv", "it's.csv"]:
        out_dir = tmp_path / name.replace("'", "_")
        out_dir.mkdir()
        out_path = out_dir / name
        out_path.write_bytes(b"old\n")
        code, _, _ = run_cli(
            capsys, "scan", "--k", "2", "--p-max", "10", "--out", str(out_path), "--gnuplot"
        )
        assert code == 0, name
        assert out_path.read_text().startswith(CSV_HEADER + "\n"), name
        assert sorted(f.name for f in out_dir.iterdir()) == [name, name + ".gp"]
        script = (out_dir / (name + ".gp")).read_text()
        # gnuplot's single-quoted strings take a quote as two
        quoted = "'" + str(out_path).replace("'", "''") + "'"
        assert script.count(f"plot {quoted} every") == 1, name
        assert script.count(f"{quoted} every") == 3, name
        assert "using 1:3" in script, name  # ranged axis p is column 1


def test_scan_gnuplot_requires_out(capsys, monkeypatch):
    # refused before any cell is evaluated or any row printed
    calls = []

    def counting_make_report(p, k):
        calls.append((p, k))
        return make_report(p, k)

    monkeypatch.setattr(cli, "make_report", counting_make_report)
    for command in ("scan", "bench"):
        code, out, err = run_cli(capsys, command, "--k", "2", "--p-max", "10", "--gnuplot")
        assert code == 1, command
        assert out == "", command
        assert "--gnuplot needs --out" in err, command
    assert calls == []


def test_grid_flags_of_the_other_axis_are_rejected(capsys):
    for command in ("scan", "bench"):
        code, out, err = run_cli(capsys, command, "--k", "3", "--p-max", "12", "--k-min", "2")
        assert (code, out) == (1, ""), command
        assert "--k-min" in err, command
        code, out, err = run_cli(capsys, command, "--p", "7", "--k-max", "2", "--p-min", "100")
        assert (code, out) == (1, ""), command
        assert "--p-min" in err, command


def test_unwritable_out_fails_before_the_first_cell(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(p, k):
            calls.append((fn.__name__, p, k))
            return fn(p, k)

        return wrapper

    monkeypatch.setattr(cli, "make_report", counting(make_report))
    monkeypatch.setattr(cli, "build_family", counting(cli.build_family))
    missing = str(tmp_path / "missing" / "rows.csv")
    for argv in (
        ("scan", "--k", "2", "--p-max", "10"),
        ("bench", "--k", "2", "--p-max", "10"),
        ("family", "--p", "3", "--k", "2", "--dump"),
    ):
        for path, reason in ((missing, "No such file or directory"), (str(tmp_path), "Is a directory")):
            code, out, err = run_cli(capsys, *argv, "--out", path)
            assert (code, out) == (2, ""), (argv, path)
            assert reason in err, (argv, path)
    assert calls == []
    assert [f.name for f in tmp_path.iterdir()] == []


def test_huge_grids_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # a p window or k range past DEFAULT_ENUM_BUDGET (2^20) exits 3 before
    # the sieve runs, the first cell is evaluated or --out is created
    def refuse(*args):
        raise AssertionError("work started before the budget gate")

    monkeypatch.setattr(cli, "primes_up_to", refuse)
    monkeypatch.setattr(cli, "make_report", refuse)
    out_path = tmp_path / "rows.csv"
    for command in ("scan", "bench"):
        for grid, size in (
            (("--k", "1", "--p-max", str(10 ** 12)), 10 ** 12 - 2),
            (("--k", "1", "--p-min", "3", "--p-max", str(3 + 2 ** 20)), 2 ** 20 + 1),
            (("--p", "3", "--k-max", str(10 ** 12)), 10 ** 12),
            (("--p", "3", "--k-min", "2", "--k-max", str(2 + 2 ** 20)), 2 ** 20 + 1),
        ):
            code, out, err = run_cli(capsys, command, *grid, "--out", str(out_path))
            assert (code, out) == (3, ""), (command, grid)
            assert f"needs {size} values, budget is 1048576" in err, (command, grid)
    assert not out_path.exists()


def test_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    # whether the error comes before or after --out was opened, an
    # existing PATH keeps its bytes, and a PATH the command created is removed
    out_path = tmp_path / "rows.csv"
    fresh = tmp_path / "fresh.csv"
    out_path.write_bytes(b"keep\n")
    for argv, want in (
        (("scan", "--p", "9", "--k-max", "3"), 2),
        (("scan", "--k", "0", "--p-max", "20"), 2),
        (("bench", "--p", "9", "--k-max", "3"), 2),
        (("family", "--p", "4", "--k", "2", "--dump"), 2),
        (("family", "--p", "1031", "--k", "2", "--dump"), 3),
        (("family", "--p", "3", "--k", "10000", "--dump"), 3),
    ):
        for path in (out_path, fresh):
            code, out, _ = run_cli(capsys, *argv, "--out", str(path))
            assert (code, out) == (want, ""), (argv, path)
            assert out_path.read_bytes() == b"keep\n", argv
            assert [f.name for f in tmp_path.iterdir()] == ["rows.csv"], (argv, path)


def test_out_writes_through_a_symlink_and_keeps_the_mode(tmp_path, capsys):
    target = tmp_path / "target.csv"
    target.write_bytes(b"old\n" * 100)
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "scan", "--k", "2", "--p-max", "10", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().startswith(CSV_HEADER + "\n")
    assert "old" not in target.read_text()
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.csv", "target.csv"]


def test_out_writes_through_a_fifo(tmp_path, capsys):
    # a FIFO cannot be truncated or renamed over; the rows go through it.
    # The read end is open before the command runs, so nothing blocks.
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    rfd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, err = run_cli(capsys, "family", "--p", "3", "--k", "2", "--dump", "--out", str(fifo))
        received = os.read(rfd, 4096)
    finally:
        os.close(rfd)
    assert code == 0, err
    assert received == b"-1,-1,1\n1,-1,-1\n-1,1,-1\n"
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


def test_bench_rejects_even_or_small_reps(capsys):
    assert run_cli(capsys, "bench", "--p", "7", "--k-min", "1", "--k-max", "2", "--reps", "2")[0] == 1
    assert run_cli(capsys, "bench", "--p", "7", "--k-min", "1", "--k-max", "2", "--reps", "1")[0] == 1


def test_bench_produces_rows_with_timings(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--p", "7", "--k-min", "1", "--k-max", "3", "--reps", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[7]) > 0 and int(fields[8]) > 0


@pytest.mark.parametrize(
    "grid",
    [("--p", "7", "--k-min", "1", "--k-max", "3"), ("--k", "2", "--p-max", "30")],
)
def test_bench_rows_equal_scan_rows_but_for_timings(capsys, grid):
    code, scan_out, _ = run_cli(capsys, "scan", *grid)
    assert code == 0
    code, bench_out, _ = run_cli(capsys, "bench", *grid, "--reps", "3")
    assert code == 0
    strip = lambda text: [line.rsplit(",", 2)[0] for line in text.splitlines()]
    assert strip(bench_out) == strip(scan_out)
    assert len(bench_out.splitlines()) == len(scan_out.splitlines()) > 1


def test_crossover_k3(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--k", "3")
    assert code == 0
    assert out.strip() == "3"


def test_crossover_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "crossover", "--k", "2", "--p-limit", "100000")
    assert code == 3


def test_oracle_text_output(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "3", "--k", "2")
    assert code == 0
    assert "gamma = 1" in out
    assert "witness_positions = 1,2" in out
    assert "witness_signs = +1,+1" in out
    # F(2, 3) is closed under AGL(1, 3): level 1 reads position 1 alone
    assert "cells_examined = 4" in out
    assert "reduction = affine" in out
    assert "level 1: splits = 1, time_ns = " in out
    assert "level 2: splits = 3, time_ns = " in out


def test_oracle_json_output(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "5", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == 2
    assert data["reduction"] == "affine"
    assert data["cells_examined"] > 0
    assert [level["j"] for level in data["levels"]] == [1, 2, 3]
    assert sum(level["splits"] for level in data["levels"]) == data["cells_examined"]


def test_oracle_31_2_fits_the_default_budget(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "31", "--k", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == 5
    assert data["witness_positions"] == [1, 2, 3, 4, 9, 11]
    assert len(data["levels"]) == 6


def test_oracle_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "oracle", "--p", "13", "--k", "2", "--budget", "50")
    assert code == 3
    assert "budget" in err


def test_oracle_negative_budget_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "--p", "3", "--k", "1", "--budget", "-5")
    assert code == 2
    assert "cell_budget must be >= 0, got -5" in err
    code, _, _ = run_cli(capsys, "oracle", "--p", "3", "--k", "1", "--budget", "0")
    assert code == 3


def test_oracle_budget_refusal_reports_verified_levels(capsys, monkeypatch, family_13_2_flipped):
    # a (13, 2) family with no symmetry, so every level is searched in full
    monkeypatch.setattr(cli, "build_family", lambda p, k: family_13_2_flipped)
    code, out, err = run_cli(
        capsys, "oracle", "--p", "13", "--k", "2", "--budget", "100", "--format", "json"
    )
    assert code == 3
    assert "gamma >= 1" in err
    data = json.loads(out)
    assert data["gamma"] is None
    assert data["gamma_lower_bound"] == 1
    assert data["refused_level"] == 2
    assert data["reduction"] == "none"
    assert [(level["j"], level["splits"]) for level in data["levels"]] == [(1, 13)]
    # text output: the error text names the verified lower bound
    code, _, err = run_cli(capsys, "oracle", "--p", "13", "--k", "2", "--budget", "12")
    assert code == 3
    assert "j=1" in err and "gamma >= 0" in err


def test_oracle_refuses_a_huge_k_at_once(capsys):
    # 3^(10^7) is never built: the family's cells gate refuses from bit lengths
    for argv in (("oracle",), ("family", "--dump")):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--p", "3", "--k", "10000000")
        elapsed = time.perf_counter() - t0
        assert (code, out) == (3, ""), argv
        assert "needs at least 2^9999976 sequence cells, budget is 1048576" in err, argv
        assert elapsed < 0.5, (argv, elapsed)


def test_bound_and_scan_refuse_a_huge_power_at_once(capsys):
    # 3^(10^7) has at least 10^7 + 1 bits, read off bit_length and k before
    # any power is built; a grid is gated once, on its largest cell
    for argv, cell, bits in (
        (("bound", "--p", "3", "--k", "10000000"), (3, 10 ** 7), 10 ** 7 + 1),
        (("scan", "--p", "3", "--k-min", str(10 ** 7), "--k-max", str(10 ** 7 + 1)),
         (3, 10 ** 7 + 1), 10 ** 7 + 2),
        (("scan", "--k", "10000000", "--p-max", "6"), (5, 10 ** 7), 2 * 10 ** 7 + 1),
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - t0
        assert (code, out) == (3, ""), argv
        assert f"p^k at ({cell[0]},{cell[1]}) needs {bits} bits or more" in err, argv
        assert elapsed < 0.5, (argv, elapsed)
    # the bound is (bitlen p - 1) k + 1 bits, and the budget is 2^20 of them
    cli._require_cell_bits(3, 2 ** 20 - 1)
    with pytest.raises(BudgetExceededError):
        cli._require_cell_bits(3, 2 ** 20)
    # a bad cell is still a domain error, not a refusal
    assert run_cli(capsys, "bound", "--p", "9", "--k", "10000000")[0] == 2


def test_oracle_j_cap(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "13", "--k", "2", "--j-cap", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["gamma"] == 1


def test_verify_sandwich_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "sandwich")
    assert code == 0
    # the status line keeps its exact form; the suite's time has its own line
    status, elapsed = out.splitlines()
    assert status == "sandwich: ok (10 checks)"
    assert re.fullmatch(r"sandwich: elapsed_ns = [1-9]\d*", elapsed)


def test_verify_rejects_unknown_suite(capsys):
    assert run_cli(capsys, "verify", "nonsense")[0] == 1


def test_commands_leave_no_cyclic_garbage(capsys):
    # a parser per call, and the oracle's self-referencing search closure,
    # were cycles that only a full collection freed, so memory grew call
    # by call
    main(["w", "--x", "1"])
    gc.collect()
    gc.disable()
    try:
        for argv in (
            ("w", "--x", "1"),
            ("scan", "--p", "7", "--k-min", "1", "--k-max", "3"),
            ("oracle", "--p", "13", "--k", "2"),
            ("verify", "sandwich"),
        ):
            assert main(list(argv)) == 0, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
    capsys.readouterr()


def test_family_dump(capsys):
    code, out, _ = run_cli(capsys, "family", "--p", "3", "--k", "2", "--dump")
    assert code == 0
    assert out.splitlines() == ["-1,-1,1", "1,-1,-1", "-1,1,-1"]


def test_family_without_dump_is_usage_error(capsys):
    assert run_cli(capsys, "family", "--p", "3", "--k", "2")[0] == 1


def test_family_rejects_even_prime(capsys):
    assert run_cli(capsys, "family", "--p", "2", "--k", "2", "--dump")[0] == 2


def test_unknown_subcommand_usage(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1


def test_missing_subcommand_usage(capsys):
    assert run_cli(capsys)[0] == 1


# every subcommand once, on the paths a user takes: bound in all three
# formats (one row past the bracket cutoff), scan to stdout and to a file
# with its gnuplot script, bench, crossover, the oracle's result and its
# budget refusal, w on each input, verify all and family --dump
EVERY_SUBCOMMAND = (
    ("bound", "--p", "7", "--k", "2"),
    ("bound", "--p", "7", "--k", "2", "--format", "csv"),
    ("bound", "--p", "2128240847", "--k", "2000", "--format", "json"),
    ("scan", "--k", "1", "--p-min", "3", "--p-max", "30"),
    ("scan", "--p", "7", "--k-min", "1", "--k-max", "3", "--out", "{tmp}/rows.csv", "--gnuplot"),
    ("bench", "--p", "7", "--k-min", "1", "--k-max", "2", "--reps", "3"),
    ("crossover", "--k", "1"),
    ("oracle", "--p", "13", "--k", "2"),
    ("oracle", "--p", "13", "--k", "2", "--budget", "1", "--format", "json"),
    ("w", "--x", "1"),
    ("w", "--log-x", "1000"),
    ("w", "--log-x=0.5"),
    ("w", "--complex", "1,0"),
    ("verify", "all"),
    ("family", "--p", "5", "--k", "2", "--dump"),
)


def _where(code) -> tuple[str, int, str]:
    return Path(code.co_filename).name, code.co_firstlineno, code.co_name


def _package_functions() -> set[tuple[str, int, str]]:
    # every def in the package, nested ones too; lambdas, comprehensions
    # and class bodies are not functions here
    out = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out.add(_where(code))
    return out


def test_every_function_runs_on_some_subcommand(tmp_path, capsys):
    # no library-only code: every function of the package is entered by
    # some subcommand, except the lemma 4 closed form that acceptance
    # criterion 6 checks, and code that runs only on failure or for display
    package = str(Path(cli.__file__).parent)
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            entered.add(_where(frame.f_code))

    # functions behind a cache run only on a miss
    cli.build_parser.cache_clear()
    ntheory._require_odd_prime.cache_clear()
    for argv in EVERY_SUBCOMMAND:
        sys.setprofile(profile)
        try:
            code = main([arg.format(tmp=tmp_path) for arg in argv])
        finally:
            sys.setprofile(None)
        assert code == (3 if "--budget" in argv else 0), argv
    capsys.readouterr()
    never_entered = (
        bounds.lemma4_closed_form,
        bounds._require_lemma4_inputs,
        checks.CheckReport.record,
        cli._Parser.error,
        gf.ExtField.__repr__,
    )
    assert _package_functions() - entered == {_where(f.__code__) for f in never_entered}
