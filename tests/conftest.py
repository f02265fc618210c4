"""Leaked files and pipes fail the tests in this directory: the CLI runs
in-process in its callers, so a leak there costs them descriptors.  The rule
is set here rather than for the whole repository in pyproject.toml because
bench/test_bench.py still reads files without closing them."""

from pathlib import Path

import pytest


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )
