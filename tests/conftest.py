"""The acceptance-criteria reporter.

Acceptance tests append one line per criterion to ACCEPTANCE_LINES; the
terminal-summary hook prints them after the run so every pass/fail verdict
is visible even when pytest captures stdout.
"""

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
