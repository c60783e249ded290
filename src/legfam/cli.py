"""Command-line front end.

Subcommands: bound (one cell), scan (grid to CSV), bench (timing medians
to CSV), crossover (first prime with a positive older bound), oracle
(exact family complexity), w (Lambert W calculator), verify (invariant
suites), family (dump the +-1 sequences).

Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource budget
exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import statistics
import sys
import time
from dataclasses import asdict, fields, replace
from operator import attrgetter
from typing import Callable, Iterator

from .bounds import (
    BoundReport,
    crossover_prime,
    gyarmati_bound,
    make_report,
    theorem1_bound,
)
from .checks import SUITES, run_suite
from .errors import BudgetExceededError
from .fcomplexity import DEFAULT_CELL_BUDGET, ComplexityBudgetError, family_complexity
from .gf import _require_budget
from .lambertw import ConvergenceError, w0_complex, w0_from_log, w0_real
from .legendre_seq import build_family
from .ntheory import _require_cell, _require_degree, primes_up_to

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    """Bad flag combinations detected after argparse."""


def _fmt(x: int | float) -> str:
    # CSV/text contract: '.' decimal separator, 15 significant digits for reals
    return f"{x:.15g}" if isinstance(x, float) else str(x)


# the CSV row is BoundReport minus the two inputs of the W solve
_CSV_COLUMNS = tuple(f.name for f in fields(BoundReport) if f.name not in ("a_log2", "b"))
CSV_HEADER = ",".join(_CSV_COLUMNS)
_csv_values = attrgetter(*_CSV_COLUMNS)


def _csv_row(rep: BoundReport) -> str:
    return ",".join(map(_fmt, _csv_values(rep)))


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[Callable[[str], None]]:
    """Yield the one write of a command's whole output, to PATH or stdout.

    scan, bench and family open --out before any work, so a bad path costs
    none. PATH is opened for appending, which neither truncates it nor
    replaces it (a symlink, a device or a FIFO is written through), and a
    regular file is emptied only at the write: a refusal or a domain error
    leaves PATH as it was, or removes it if the command created it.
    """
    if path is None:
        yield sys.stdout.write
        return
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8", newline="\n") as fh:

        def write(text: str) -> None:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            fh.write(text)

        try:
            yield write
        except BaseException:
            if not existed:
                os.unlink(path)
            raise


def _write_text(path: str | None, text: str) -> None:
    with _open_out(path) as write:
        write(text)


def _emit_rows(reports: list[BoundReport], write: Callable[[str], None]) -> None:
    write("\n".join([CSV_HEADER] + [_csv_row(r) for r in reports]) + "\n")


def _gnuplot_script(csv_path: str, ranged: str, kind: str) -> str:
    xcol = 1 if ranged == "p" else 2
    data = "'" + csv_path.replace("'", "''") + "'"  # gnuplot doubles a quote inside '...'
    head = f"set datafile separator ','\nset xlabel '{ranged}'\nset key left top\n"
    if kind == "bounds":
        return head + (
            "set ylabel 'lower bound on family complexity'\n"
            f"plot {data} every ::1 using {xcol}:3 with lines title 'new bound', \\\n"
            f"     {data} every ::1 using {xcol}:5 with lines title 'previous bound', \\\n"
            f"     {data} every ::1 using {xcol}:7 with lines title 'log2 family size'\n"
        )
    return head + (
        "set ylabel 'evaluation time difference (s)'\n"
        f"plot {data} every ::1 using {xcol}:(($8-$9)/1e9) with lines "
        "title 'new minus previous'\n"
    )


def _require_cell_bits(p: int, k: int) -> None:
    """Refuse a cell whose p^k is known from p's bit length and k alone to
    have more than DEFAULT_ENUM_BUDGET bits, before any power is built:
    p^k >= 2^((bitlen p - 1) k), so it has at least (bitlen p - 1) k + 1
    bits. A bad p or k is a domain error first."""
    _require_cell(p, k)
    _require_budget(f"p^k at ({p},{k})", (p.bit_length() - 1) * k + 1, "bits or more")


def _grid_cells(args: argparse.Namespace) -> tuple[list[tuple[int, int]], str]:
    """Cells for scan/bench plus which axis is ranged ('p' or 'k').

    Exactly one axis must be ranged; a ranged p visits odd primes only.
    Every grid flag is checked here, before any cell is evaluated, and a
    p window (sieved one byte per integer) or a k range longer than
    DEFAULT_ENUM_BUDGET is refused before anything is allocated; so is a
    grid whose largest cell fails _require_cell_bits.
    """
    if args.gnuplot and args.out is None:
        raise UsageError("--gnuplot needs --out (the script references the CSV)")
    ranged_p = args.p_max is not None
    ranged_k = args.k_max is not None
    if ranged_p == ranged_k:
        raise UsageError("exactly one of --p-max and --k-max must be given")
    if ranged_p:
        if args.k is None:
            raise UsageError("--k is required when ranging over p")
        if args.p is not None or args.k_min is not None:
            raise UsageError("--p and --k-min conflict with --p-min/--p-max")
        lo = max(3, args.p_min or 3)
        if args.p_max < lo:
            raise UsageError(f"--p-max must be >= {lo}")
        _require_degree(args.k)
        _require_budget("the p window", args.p_max - lo + 1, "values")
        cells = [(q, args.k) for q in primes_up_to(args.p_max, lo)]
        if cells:
            _require_cell_bits(*cells[-1])
        return cells, "p"
    if args.p is None:
        raise UsageError("--p is required when ranging over k")
    if args.k is not None or args.p_min is not None:
        raise UsageError("--k and --p-min conflict with --k-min/--k-max")
    k_lo = args.k_min if args.k_min is not None else 1
    _require_degree(k_lo)
    if args.k_max < k_lo:
        raise UsageError("need --k-min <= --k-max")
    _require_budget("the k range", args.k_max - k_lo + 1, "values")
    _require_cell_bits(args.p, args.k_max)
    return [(args.p, k) for k in range(k_lo, args.k_max + 1)], "k"


def cmd_bound(args: argparse.Namespace) -> int:
    _require_cell_bits(args.p, args.k)
    rep = make_report(args.p, args.k)
    if args.format == "csv":
        _emit_rows([rep], sys.stdout.write)
    elif args.format == "json":
        print(json.dumps(asdict(rep)))
    else:
        for key, value in asdict(rep).items():
            print(f"{key} = {_fmt(value)}")
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    cells, ranged = _grid_cells(args)
    with _open_out(args.out) as write:
        _emit_rows([make_report(p, k) for p, k in cells], write)
    if args.gnuplot:
        _write_text(args.out + ".gp", _gnuplot_script(args.out, ranged, "bounds"))
    return EXIT_OK


def _median_time_ns(fn, reps: int) -> int:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def cmd_bench(args: argparse.Namespace) -> int:
    if args.reps < 3 or args.reps % 2 == 0:
        raise UsageError(f"--reps must be an odd number >= 3, got {args.reps}")
    cells, ranged = _grid_cells(args)
    with _open_out(args.out) as write:
        rows = []
        for p, k in cells:
            theorem1_bound(p, k)  # warmup both code paths before timing
            gyarmati_bound(p, k)
            t_new = _median_time_ns(lambda: theorem1_bound(p, k), args.reps)
            t_gy = _median_time_ns(lambda: gyarmati_bound(p, k), args.reps)
            rows.append(replace(make_report(p, k), t_new_ns=t_new, t_gyarmati_ns=t_gy))
        _emit_rows(rows, write)
    if args.gnuplot:
        _write_text(args.out + ".gp", _gnuplot_script(args.out, ranged, "times"))
    return EXIT_OK


def cmd_crossover(args: argparse.Namespace) -> int:
    print(crossover_prime(args.k, args.p_limit))
    return EXIT_OK


def _levels_json(levels: tuple[tuple[int, int], ...]) -> list[dict[str, int]]:
    return [
        {"j": j, "splits": splits, "time_ns": ns}
        for j, (splits, ns) in enumerate(levels, start=1)
    ]


def cmd_oracle(args: argparse.Namespace) -> int:
    for flag, value in (("--j-cap", args.j_cap), ("--budget", args.budget)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    family = build_family(args.p, args.k)
    t0 = time.perf_counter_ns()
    try:
        res = family_complexity(family, j_cap=args.j_cap, cell_budget=args.budget)
    except ComplexityBudgetError as exc:
        # the refusal still exits 3; json callers also get what was verified
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "gamma": None,
                        "gamma_lower_bound": exc.gamma_lower_bound,
                        "refused_level": exc.refused_level,
                        "levels": _levels_json(exc.levels),
                        "reduction": exc.reduction,
                    }
                )
            )
        raise
    elapsed = time.perf_counter_ns() - t0
    pos, signs = res.witness_failure or (None, None)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "gamma": res.gamma,
                    "witness_positions": pos,
                    "witness_signs": signs,
                    "cells_examined": res.cells_examined,
                    "levels": _levels_json(res.levels),
                    "reduction": res.reduction,
                    "time_ns": elapsed,
                }
            )
        )
        return EXIT_OK
    print(f"gamma = {res.gamma}")
    if pos is None:
        print("witness = none (every level up to the cap is realized)")
    else:
        print(f"witness_positions = {','.join(map(str, pos))}")
        print(f"witness_signs = {','.join(f'{s:+d}' for s in signs)}")
    print(f"cells_examined = {res.cells_examined}")
    print(f"reduction = {res.reduction}")
    for j, (splits, ns) in enumerate(res.levels, start=1):
        print(f"level {j}: splits = {splits}, time_ns = {ns}")
    print(f"time_ns = {elapsed}")
    return EXIT_OK


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"--complex expects 'RE,IM', got {text!r}")
    try:
        real, imag = map(float, parts)
    except ValueError as exc:
        raise UsageError(f"--complex expects two floats, got {text!r}") from exc
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise ValueError(f"--complex must be finite, got {text!r}")
    return complex(real, imag)


def cmd_w(args: argparse.Namespace) -> int:
    for flag, value in (("--x", args.x), ("--log-x", args.log_x)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.x is not None:
        print(_fmt(w0_real(args.x).value))
    elif args.log_x is not None:
        print(_fmt(w0_from_log(args.log_x).value))
    else:
        value = w0_complex(_parse_complex(args.comp)).value
        sign = "+" if value.imag >= 0 else "-"
        print(f"{_fmt(value.real)} {sign} {_fmt(abs(value.imag))}i")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        rep = run_suite(name)
        for failure in rep.failures:
            print(f"FAIL [{rep.name}] {failure}")
        if rep.skipped:
            print(f"... {rep.skipped} further failures suppressed")
        status = "ok" if rep.ok else "FAILED"
        print(f"{rep.name}: {status} ({rep.checked} checks)")
        print(f"{rep.name}: elapsed_ns = {rep.elapsed_ns}")
        all_ok = all_ok and rep.ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_family(args: argparse.Namespace) -> int:
    if not args.dump:
        raise UsageError("family only dumps sequences; pass --dump")
    with _open_out(args.out) as write:
        fam = build_family(args.p, args.k)
        lines = [",".join(map(str, row)) for row in fam.rows.tolist()]
        write("\n".join(lines) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for domain errors here
    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: a parser is a web of reference cycles, and a
    # new one per call left that garbage for the cyclic collector
    parser = _Parser(prog="legfam", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_grid_flags(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, help="fixed prime (when ranging over k)")
        sp.add_argument("--k", type=int, help="fixed degree (when ranging over p)")
        sp.add_argument("--p-min", type=int)
        sp.add_argument("--p-max", type=int)
        sp.add_argument("--k-min", type=int)
        sp.add_argument("--k-max", type=int)
        sp.add_argument("--out", help="CSV output path (stdout when omitted)")
        sp.add_argument(
            "--gnuplot",
            action="store_true",
            help="also write a gnuplot script next to the CSV",
        )

    sp = sub.add_parser("bound", help="evaluate both bounds at one (p, k)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("scan", help="bound values over a grid, as CSV")
    add_grid_flags(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("bench", help="median evaluation times over a grid, as CSV")
    add_grid_flags(sp)
    sp.add_argument("--reps", type=int, default=5, help="odd repetition count >= 3")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("crossover", help="first odd prime with a positive older bound")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p-limit", type=int, default=2 ** 32)
    sp.set_defaults(func=cmd_crossover)

    sp = sub.add_parser("oracle", help="exact family complexity by exhaustive search")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--j-cap", type=int, default=None)
    sp.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_CELL_BUDGET,
        help="most member-group splits the search may make (exit 3 beyond it)",
    )
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("w", help="Lambert W calculator (principal branch)")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=float,
                       help="real argument; write --x=X if X is negative with an exponent")
    group.add_argument("--log-x", type=float, metavar="L",
                       help="natural log of the argument, any finite L; write --log-x=L"
                       " if L is negative with an exponent")
    group.add_argument("--complex", dest="comp",
                       help="complex argument 'RE,IM'; write --complex=RE,IM if RE is negative")
    sp.set_defaults(func=cmd_w)

    sp = sub.add_parser("verify", help="run an invariant suite")
    sp.add_argument(
        "suite", choices=sorted(SUITES) + ["all"], help="which suite to run"
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("family", help="dump the +-1 sequences of a family")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--dump", action="store_true")
    sp.add_argument("--out", help="output path (stdout when omitted)")
    sp.set_defaults(func=cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage problems (and -h) this way
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
