"""Leaked files and pipes fail the tests in this directory: the CLI runs
in-process in its callers, so a leak there costs them descriptors.  So do
numerical warnings: numpy reports a division by zero or an invalid value as
a RuntimeWarning and goes on with an inf or a NaN, which a test could pass
over unseen; a cloud without spatial extent, say, would divide by its zero
eigenvalues in compute_space_scaling.  The rules are set here rather than
for the whole repository in pyproject.toml because bench/test_bench.py
still reads files without closing them."""

from pathlib import Path

import pytest


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )
