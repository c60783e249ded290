#!/usr/bin/env python3
"""Regenerate the bound-comparison and timing figures and the gap table.

Writes four CSVs plus matching gnuplot scripts into --outdir and, when
gnuplot is installed, renders them to PNG. Everything goes through the
legfam CLI so the files are exactly what a user would get by hand:

  1. both bounds against p at fixed k = 1
  2. both bounds against p at fixed k = 10
  3. both bounds against k at a fixed 8-digit prime
  4. median evaluation-time difference against k at the crossover prime
  5. gap_table.md: exact gamma against both bounds on thirteen small cells,
     the table in README's "How tight is the bound"
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

# run from a plain checkout too: this checkout's src/ comes first
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from legfam.cli import main as legfam_main


def run(argv: list[str]) -> None:
    print("legfam " + " ".join(argv))
    code = legfam_main(argv)
    if code != 0:
        sys.exit(f"legfam exited with status {code}")


# the seven cells of the benchmark's oracle workload, then larger cells
# the oracle reaches within its default budget
GAP_CELLS = (
    (13, 2), (17, 2), (19, 2), (23, 2), (29, 2), (11, 3), (13, 3),
    (31, 2), (37, 2), (41, 2), (43, 2), (17, 3), (7, 4),
)


def run_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = legfam_main(argv)
    if code != 0:
        sys.exit(f"legfam {' '.join(argv)} exited with status {code}")
    return json.loads(buf.getvalue())


def gap_table() -> str:
    """Markdown table of gamma against guaranteed_j and the bounds."""
    lines = [
        "| (p, k) | gamma | guaranteed_j | Theorem 1 bound | older bound "
        "| log2 I_p(k) | gamma − guaranteed_j |",
        "|---|---|---|---|---|---|---|",
    ]
    for p, k in GAP_CELLS:
        cell = ["--p", str(p), "--k", str(k), "--format", "json"]
        gamma = run_json(["oracle", *cell])["gamma"]
        rep = run_json(["bound", *cell])
        j = rep["guaranteed_j"]
        lines.append(
            f"| ({p}, {k}) | {gamma} | {j} | {rep['new_bound']:.3f} "
            f"| {rep['gyarmati_bound']:.3f} | {rep['upper_bound']:.3f} | {gamma - j} |"
        )
    return "\n".join(lines) + "\n"


def render(outdir: pathlib.Path) -> None:
    gnuplot = shutil.which("gnuplot")
    if gnuplot is None:
        print("gnuplot not found; run it on the .gp scripts to get plots")
        return
    for script in sorted(outdir.glob("*.gp")):
        png = script.with_suffix(".png")
        quoted = str(png).replace("'", "''")  # gnuplot doubles a quote inside '...'
        header = f"set terminal pngcairo size 900,600\nset output '{quoted}'\n"
        subprocess.run(
            [gnuplot, "-e", header, str(script)],
            check=True,
        )
        print(f"wrote {png}")


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--outdir", default="figures", help="output directory")
    ap.add_argument("--p-max", type=int, default=8000, help="prime range for 1-2")
    ap.add_argument(
        "--fixed-p", type=int, default=10000019, help="fixed prime for figure 3"
    )
    ap.add_argument(
        "--bench-p", type=int, default=2128240847, help="fixed prime for figure 4"
    )
    ap.add_argument("--k-max", type=int, default=50, help="degree range for 3-4")
    ap.add_argument("--reps", type=int, default=5, help="timing repetitions (odd)")
    return ap.parse_args()


def main() -> None:
    args = parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    run(["scan", "--k", "1", "--p-max", str(args.p_max),
         "--out", str(outdir / "bounds_vs_p_k1.csv"), "--gnuplot"])
    run(["scan", "--k", "10", "--p-max", str(args.p_max),
         "--out", str(outdir / "bounds_vs_p_k10.csv"), "--gnuplot"])
    run(["scan", "--p", str(args.fixed_p), "--k-min", "1", "--k-max", str(args.k_max),
         "--out", str(outdir / "bounds_vs_k.csv"), "--gnuplot"])
    run(["bench", "--p", str(args.bench_p), "--k-min", "1", "--k-max", str(args.k_max),
         "--reps", str(args.reps),
         "--out", str(outdir / "times_vs_k.csv"), "--gnuplot"])

    table = outdir / "gap_table.md"
    table.write_text(gap_table(), encoding="utf-8")
    print(f"wrote {table}")

    render(outdir)


if __name__ == "__main__":
    main()
