"""Input guards of the public functions, each called with one bad argument."""

from __future__ import annotations

import numpy as np
import pytest

from rbfcors import BoundedDomain, LatinHypercube, builtin, fit, fit_rescaler
from rbfcors.cors import ProposalSettings, RadiusSchedule, draw_batch

UNIT_SQUARE = BoundedDomain(np.zeros(2), np.ones(2))
POINTS = np.random.default_rng(0).random((5, 2))
SCHEDULE = RadiusSchedule(initial_density=0.75, decay_exponent=1.0, total_iters=5, dim=2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BoundedDomain(np.zeros((2, 2)), np.ones((2, 2))), "one-dimensional"),
        (lambda: BoundedDomain([], []), "at least one variable"),
        (lambda: UNIT_SQUARE.to_unit([0.5, 0.5, 0.5]), "vector of length 2"),
        (lambda: UNIT_SQUARE.from_unit([0.5]), "vector of length 2"),
        (lambda: fit_rescaler([], 0.75), "non-empty vector"),
        (lambda: fit_rescaler([1.0, float("nan")], 0.75), "must be finite"),
        (lambda: fit(POINTS[:, 0], np.zeros(5)), "(n, d) array"),
        (lambda: fit(POINTS, np.zeros(4)), "expected 5 values"),
        (lambda: fit(POINTS, np.zeros(5), scaling=np.eye(3)), "must be 2x2"),
        (
            lambda: draw_batch(
                POINTS, SCHEDULE, 1, 0, np.random.default_rng(0), ProposalSettings()
            ),
            "batch must be at least 1",
        ),
        (lambda: LatinHypercube(np.arange(3)), "(d, n) integer array"),
        (lambda: builtin("sphere", dim=0), "sphere needs dim >= 1"),
    ],
    ids=[
        "domain-2d-bounds",
        "domain-empty",
        "to_unit-shape",
        "from_unit-shape",
        "rescaler-empty",
        "rescaler-nan",
        "fit-1d-points",
        "fit-value-count",
        "fit-scaling-shape",
        "draw_batch-zero",
        "latin-hypercube-1d",
        "sphere-dim-zero",
    ],
)
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert message in str(err.value)
