"""Property tests for the invariants every run must keep, whatever its size,
schedule, batch size and objective."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from rbfcors.cors import ProposalSettings
from rbfcors.engine import OptimizationConfig, run
from rbfcors.rbf import MIN_CENTER_SEPARATION
from rbfcors.scaling import BoundedDomain

LOWER, UPPER = -1.0, 3.0

# The corner objective has its minimum on a vertex of the box, where
# clipped local candidates pile up; the bowl has an interior minimum.
OBJECTIVES = {
    "corner": lambda x: float(np.sum(np.asarray(x) - LOWER)),
    "bowl": lambda x: float(np.sum((np.asarray(x) - 0.7) ** 2)),
}

# Small candidate sets and clouds keep one run to a few milliseconds.
PROPOSAL = ProposalSettings(uniform_per_dim=50, local_candidates=20, pattern_steps=5)
PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """An objective name, a domain and a config of a small run."""
    dim = draw(st.integers(1, 3))
    config = OptimizationConfig(
        n_init=dim + 2 + draw(st.integers(0, 3)),
        n_iter=draw(st.integers(0, 8)),
        initial_density=draw(st.sampled_from([0.2, 0.75, 1.0])),
        decay_exponent=draw(st.sampled_from([0.5, 1.0, 4.0])),
        lh_attempts=50,
        cloud_size=100,
        batch_size=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        use_space_rescaling=draw(st.booleans()),
        proposal=PROPOSAL,
    )
    domain = BoundedDomain(np.full(dim, LOWER), np.full(dim, UPPER))
    return draw(st.sampled_from(sorted(OBJECTIVES))), domain, config


def history_of(problem):
    name, domain, config = problem
    return run(OBJECTIVES[name], domain, config).history


@PROPERTY_SETTINGS
@given(problems())
def test_run_spends_exact_budget(problem):
    _, _, config = problem
    assert len(history_of(problem)) == config.n_init + config.n_iter


@PROPERTY_SETTINGS
@given(problems())
def test_every_point_lies_in_unit_cube(problem):
    points = np.array([rec.x_unit for rec in history_of(problem)])
    assert np.all((points >= 0.0) & (points <= 1.0))


@PROPERTY_SETTINGS
@given(problems())
def test_no_point_is_evaluated_twice(problem):
    points = np.array([rec.x_unit for rec in history_of(problem)])
    assert pdist(points).min() >= MIN_CENTER_SEPARATION


@PROPERTY_SETTINGS
@given(problems())
def test_proposals_honour_their_radius(problem):
    history = history_of(problem)
    points = np.array([rec.x_unit for rec in history])
    assert all(
        cdist(points[i : i + 1], points[:i]).min() >= rec.radius_used
        for i, rec in enumerate(history)
        if rec.stage == "subsequent" and not rec.fallback
    )


@PROPERTY_SETTINGS
@given(problems())
def test_history_independent_of_worker_count(problem):
    name, domain, config = problem
    histories = [
        [
            (rec.x_unit.tobytes(), rec.f_raw, rec.f_scaled, rec.radius_used, rec.fallback)
            for rec in history_of((name, domain, replace(config, workers=workers)))
        ]
        for workers in (1, 3)
    ]
    assert histories[0] == histories[1]
