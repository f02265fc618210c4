"""The benchmark's tracer still finds and fires every library boundary.

bench/tracing.py patches library names from outside the package, so a
refactor that renames or bypasses one of them breaks the traced benchmark
without failing any library test.  This test loads the tracer without
changing it and runs a small in-process optimization under it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rbfcors.engine
from rbfcors.engine import OptimizationConfig
from rbfcors.scaling import BoundedDomain

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves_to_a_callable(tracing):
    for owner, attr, name in tracing.BOUNDARIES:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def test_every_library_boundary_fires_in_a_run(tracing):
    config = OptimizationConfig(n_init=6, n_iter=4, batch_size=2, workers=2, seed=0)
    domain = BoundedDomain(np.zeros(2), np.ones(2))
    tracer = tracing.Tracer()
    with tracer.patch():
        rbfcors.engine.run(lambda x: float(np.sum((x - 0.3) ** 2)), domain, config)
    fired = {span.name for span in tracer.spans}
    expected = {name for _, _, name in tracing.BOUNDARIES if not name.startswith("cli.")}
    assert expected - fired == set()
    assert sum(span.name == tracing.BATCH for span in tracer.spans) == 3
