"""Shared fixtures and the acceptance-summary reporting hook.

Several test modules sweep the same ranges of builtin classes;
``connected_upto`` concatenates them, and the enumerator keeps each level
it has built for the life of the process, so every level after the first
request is free.

Acceptance tests register one line per criterion through ``record_result``;
the lines are printed in a summary block at the end of the run so the
pass/fail status of every criterion is visible even when the tests pass.
"""

from __future__ import annotations

import pytest

from isolation_lab.enumeration import connected_graphs


@pytest.fixture(scope="session")
def connected_upto():
    """Callable (lo, hi) -> list of all builtin classes with lo <= n <= hi."""

    def run(lo: int, hi: int):
        out = []
        for n in range(lo, hi + 1):
            out.extend(connected_graphs(n))
        return out

    return run


# ===== acceptance criterion reporting ========================================

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_result(criterion: str, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS.append((criterion, ok, detail))


def _criterion_key(label: str):
    digits = "".join(ch for ch in label if ch.isdigit())
    return (int(digits) if digits else 0, label)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for criterion, ok, detail in sorted(ACCEPTANCE_RESULTS,
                                        key=lambda r: _criterion_key(r[0])):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status} criterion {criterion}: {detail}")
