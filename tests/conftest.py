"""Shared fixtures: small game instances used across the test modules."""

import re

import pytest

from gnes_test_helpers import load_builtin


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the session."""
    rows = []
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            match = re.search(r"test_acceptance\.py::test_c(\d+)_(\w+)", nodeid)
            if match and getattr(rep, "when", "call") in ("call", "setup"):
                ok = key == "passed"
                rows.append((int(match.group(1)), match.group(2), ok))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for num, slug, ok in sorted(rows):
        label = slug.replace("_", " ")
        terminalreporter.write_line(
            f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
        )


@pytest.fixture(scope="session")
def monotone_small():
    return load_builtin("affine-monotone-small")


@pytest.fixture(scope="session")
def tiny():
    return load_builtin("affine-tiny")


@pytest.fixture(scope="session")
def two_firms():
    return load_builtin("affine-two-firms")
