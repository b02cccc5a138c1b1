import os
from fractions import Fraction
from typing import Iterable

import pytest

from cartan_gamma import PrecisionContext, RootSystemLabel, build_root_system
from cartan_gamma.cli import default_battery


@pytest.fixture(autouse=True)
def no_process_outlives_its_test():
    yield
    # A child left running or unreaped makes waitpid return instead of raise.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the process may run on, and so whether forked.shared
    forks its helpers for a Gauss sweep or a Selberg grid."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns to this process, in order."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(50)


@pytest.fixture(scope="session")
def battery():
    return default_battery()


def rs(label_text: str):
    return build_root_system(RootSystemLabel.parse(label_text))


@pytest.fixture(scope="session")
def small_labels():
    """Quick subset touching every family and both laced classes."""
    return tuple(rs(t).label for t in ("A1", "A4", "B3", "C3", "D4", "E6", "F4", "G2"))


Q = Fraction


# Reference for the exact inverse and the affine kernels: plain Gaussian
# elimination over Q, independent of the package's integer elimination.
def rational_nullspace(matrix: Iterable[Iterable]) -> list[tuple[Q, ...]]:
    """Exact kernel basis of a rational matrix via Gaussian elimination over Q."""
    rows = [list(map(Q, row)) for row in matrix]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: dict[int, list[Q]] = {}
    for row in rows:
        for col in sorted(pivots):
            if row[col]:
                factor = row[col] / pivots[col][col]
                row[:] = [a - factor * b for a, b in zip(row, pivots[col])]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is not None:
            pivots[lead] = row
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [Q(0)] * ncols
        vec[f] = Q(1)
        for col in sorted(pivots, reverse=True):
            row = pivots[col]
            vec[col] = -sum(row[j] * vec[j] for j in range(col + 1, ncols)) / row[col]
        basis.append(tuple(vec))
    return basis


# One line per acceptance criterion, echoed after the run summary so the
# verdicts stay visible in captured-output logs.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
