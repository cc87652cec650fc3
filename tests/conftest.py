import re
import time

import pytest

from chromarep.algebra import Signature
from chromarep.colouring import Level
from chromarep.search import search

_acceptance_results = {}


@pytest.fixture(scope="session")
def dichromatic_certificate():
    """The {2}, n=3 qualitative search over the default range, run once per
    session (about 4.2M nodes), with its wall seconds."""
    start = time.monotonic()
    outcome = search(Signature(frozenset({2}), 3), Level.QUALITATIVE)
    return outcome, time.monotonic() - start


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_acceptance\.py::test_criterion_(\d+)",
                      report.nodeid)
    if match:
        _acceptance_results[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        verdict = "PASS" if _acceptance_results[num] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}")
