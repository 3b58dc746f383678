"""Run-wide pytest hooks for ``tests/`` and ``perfbench/``.

At the end of a run, one line gives the summed setup, call and teardown
time of every test, in total and per top-level directory: the tests' own
cost, without collection and start-up, to hold against a time budget.
"""
from collections import defaultdict

_seconds: dict[str, float] = defaultdict(float)


def pytest_runtest_logreport(report):
    _seconds[report.nodeid.split("/", 1)[0]] += report.duration


def pytest_terminal_summary(terminalreporter):
    if _seconds:
        parts = ", ".join(f"{top} {s:.1f} s" for top, s in sorted(_seconds.items()))
        terminalreporter.write_line(
            f"summed test time: {sum(_seconds.values()):.1f} s ({parts}), setup + call + teardown"
        )
