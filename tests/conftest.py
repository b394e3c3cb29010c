"""Shared fixtures and the acceptance summary hook."""

from __future__ import annotations

import re
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ultragreedy import (
    FullUltraTriple,
    extend_to_full,
    mod_triple,
    padic_log_triple,
    padic_triple,
    perimeter_tuple,
)

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\w+)")
_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    label = m.group(1)
    # setup failures count as failures; a passed call may still be wiped
    # out by a teardown error, hence the aggregation
    prev = _results.get(label)
    if report.outcome == "passed" and prev is None and report.when == "call":
        _results[label] = "passed"
    elif report.outcome == "failed":
        _results[label] = "failed"
    elif report.outcome == "skipped" and prev is None:
        _results[label] = "skipped"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_results):
        shown = label.lstrip("0") or label
        outcome = _results[label]
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[outcome]
        terminalreporter.write_line(f"criterion {shown}: {word}")


@pytest.fixture(scope="session")
def returns_within():
    """`with returns_within(seconds):` fails the test once its block has run
    `seconds` of wall time, so a call that never returns fails in seconds
    instead of hanging the suite."""

    @contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"did not return within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture(scope="session")
def parity5():
    return mod_triple([1, 2, 3, 4, 5], 2, Fraction(1), Fraction(2))


@pytest.fixture(scope="session")
def parity5_full(parity5):
    return extend_to_full(parity5, Fraction(1))


@pytest.fixture(scope="session")
def padic3_example():
    return padic_triple([0, 1, 2, 3, 4, 5, 6, 12], 3)


@pytest.fixture(scope="session")
def weird_d():
    return padic_triple([0, 1, 2, 9, 17, 128], 2)


@pytest.fixture(scope="session")
def weird_dlog():
    return padic_log_triple([0, 1, 2, 9, 17, 128], 2)


@pytest.fixture(scope="session")
def enumerate_greedy_subsequences():
    """Branch-enumeration oracle for greedy subsequences.

    Scores candidates with raw perimeter_tuple calls only, so it stays
    independent of the greedy module's incremental bookkeeping.
    """

    def run(t: FullUltraTriple, C, m: int, cap: int = 10**5) -> list[tuple[int, ...]]:
        pts = sorted(set(C))
        out: list[tuple[int, ...]] = []

        def rec(prefix: list[int]) -> None:
            if len(prefix) == m:
                out.append(tuple(prefix))
                if len(out) > cap:
                    raise ValueError("enumeration cap exceeded")
                return
            scores = {x: perimeter_tuple(t, prefix + [x]) for x in pts}
            best = max(scores.values())
            for x in pts:
                if scores[x] == best:
                    rec(prefix + [x])

        rec([])
        return out

    return run
