"""Collects the acceptance-criterion results and prints one line per
criterion in pytest's terminal summary, so the lines survive output capture.
"""

import re

import pytest

from legfam.legendre_seq import SequenceFamily, build_family

_pass_lines: dict[int, str] = {}

_CRITERION = re.compile(r"::test_criterion_(\d+)")


def record_acceptance(n: int, message: str) -> None:
    _pass_lines[n] = f"ACCEPTANCE {n}: PASS - {message}"


def _failed_criteria(terminalreporter) -> dict[int, str]:
    lines: dict[int, str] = {}
    for key in ("failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m is None:
                continue
            n = int(m.group(1))
            lines[n] = f"ACCEPTANCE {n}: FAIL - {rep.nodeid.rsplit('::', 1)[-1]}"
    return lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    fail_lines = _failed_criteria(terminalreporter)
    seen = set(_pass_lines) | set(fail_lines)
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(seen):
        # a criterion that failed never reached its record_acceptance call
        terminalreporter.write_line(fail_lines.get(n, _pass_lines.get(n, "")))


@pytest.fixture(scope="session")
def family_13_2_flipped() -> SequenceFamily:
    """F(2, 13) with the first member's value at position 1 negated. Its rows
    are closed under neither the shift nor the scaling, so the oracle
    searches every position tuple of it."""
    rows = build_family(13, 2).rows.copy()
    rows[0, 0] = -rows[0, 0]
    return SequenceFamily(13, 2, rows)
