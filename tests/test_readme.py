"""README's "Library quick start" block runs as a doctest, so its printed
values stay the package's own."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    # the first ```python block under the heading, without its fences
    # (`python -m doctest README.md` reads the closing fence as output)
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_as_a_doctest():
    block = _quick_start()
    test = doctest.DocTestParser().get_doctest(block, {}, "quick start", str(README), 0)
    assert len(test.examples) >= 8
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
