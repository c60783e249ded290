"""scripts/reproduce_figures.py: README's gap table is its output, and it runs
from a plain checkout."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_script():
    path = ROOT / "scripts" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("reproduce_figures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_gap_table_is_the_script_output():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## How tight is the bound", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    assert table == _load_script().gap_table().splitlines()


def test_script_runs_from_a_plain_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = ROOT / "scripts" / "reproduce_figures.py"
    res = subprocess.run(
        [sys.executable, str(script), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr


def test_render_quotes_the_png_path_for_gnuplot(tmp_path, monkeypatch):
    # gnuplot's single-quoted strings take a quote as two
    module = _load_script()
    (tmp_path / "it's.csv.gp").write_text("")
    runs = []
    monkeypatch.setattr(module.shutil, "which", lambda name: "/bin/gnuplot")
    monkeypatch.setattr(module.subprocess, "run", lambda argv, check: runs.append(argv))
    module.render(tmp_path)
    [argv] = runs
    quoted = str(tmp_path / "it''s.csv.png")
    assert argv == [
        "/bin/gnuplot",
        "-e",
        f"set terminal pngcairo size 900,600\nset output '{quoted}'\n",
        str(tmp_path / "it's.csv.gp"),
    ]
