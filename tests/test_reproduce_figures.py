"""README's gap table is the output of scripts/reproduce_figures.py."""

import importlib.util
import pathlib

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
