"""Shared pytest hooks: print one line per acceptance criterion at the end;
a schedule that counts its evaluations."""

from collections import Counter

import pytest

from implicitfp.schemes import Schedule

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def counting_schedule():
    """(schedule, evaluated_once): the default schedule's values, and a check
    that each alpha_n and beta_n, n = 2..n_max, was evaluated exactly once."""
    calls = Counter()

    def counted(which):
        def f(n):
            calls[which, n] += 1
            return 0.0 if n < 2 else 1.0 - 1.0 / n
        return f

    def evaluated_once(n_max):
        return calls == Counter({(w, n): 1 for n in range(2, n_max + 1)
                                 for w in ("alpha", "beta")})

    return Schedule(counted("alpha"), counted("beta")), evaluated_once
