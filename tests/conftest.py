"""Shared fixtures.

The Leech minimal layer is expensive to build, so it is computed once per
session and its build time is recorded; the acceptance suite charges that
time against its own budget.
"""
import time

import pytest

from modlattice import enumeration
from modlattice.enumeration import min_layer
from modlattice.lattice import load_catalog

# wall-clock costs of session fixtures, keyed by fixture name
TIMINGS = {}

# (number, ok, text) per acceptance criterion, echoed after the test lines;
# printed via the terminal reporter so output capture cannot swallow them
VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if not VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, text in sorted(VERDICTS):
        terminalreporter.write_line(
            "[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, text))


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def leech_layer(catalog):
    t0 = time.time()
    layer = min_layer(catalog.lattice("Leech"))
    TIMINGS["leech_layer"] = time.time() - t0
    return layer


@pytest.fixture
def parallel(monkeypatch):
    """Count-only sweeps with threads > 1 go to the pool whatever their
    size, as on a machine with 2 cores.  Yields the worker counts of the
    parallel sweeps made, and shuts the pool down afterwards."""
    made = []
    run = enumeration._parallel

    def counted(*args):
        made.append(args[-1])
        return run(*args)
    monkeypatch.setattr(enumeration, "PARALLEL_MIN_NODES", 0)
    monkeypatch.setattr(enumeration, "_cores", lambda: 2)
    monkeypatch.setattr(enumeration, "_parallel", counted)
    yield made
    enumeration._POOL.close()
