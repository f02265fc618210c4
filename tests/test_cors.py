"""Tests for the density schedule and the constrained proposal step."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from rbfcors.cors import (
    ProposalSettings,
    RadiusSchedule,
    _feasible,
    _min_center_distance,
    _pattern_search,
    draw_batch,
    draw_candidates,
    exclusion_radius,
    propose_batch,
    propose_point,
    unit_ball_volume,
)
from rbfcors.rbf import fit


class TestUnitBallVolume:
    def test_closed_form_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-12)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestExclusionRadius:
    def test_two_dim_pi_density_four_centers(self):
        assert exclusion_radius(math.pi, 4, 2) == 0.5

    def test_one_dim_half_density_single_center(self):
        assert exclusion_radius(0.5, 1, 1) == pytest.approx(0.25, abs=1e-12)

    def test_zero_density_gives_zero_radius(self):
        assert exclusion_radius(0.0, 7, 3) == 0.0

    def test_requires_centers(self):
        with pytest.raises(ValueError):
            exclusion_radius(0.5, 0, 2)


class TestRadiusSchedule:
    def schedule(self, **overrides):
        base = dict(
            initial_density=0.75,
            decay_exponent=1.0,
            total_iters=10,
            dim=2,
        )
        base.update(overrides)
        return RadiusSchedule(**base)

    def test_first_iteration_gets_full_density(self):
        sched = self.schedule(initial_density=0.6, decay_exponent=2.5)
        assert sched.density(1) == 0.6

    def test_last_iteration_density_is_zero(self):
        assert self.schedule().density(10) == 0.0

    def test_linear_decay_midpoint(self):
        sched = self.schedule(initial_density=0.8, total_iters=11)
        assert sched.density(6) == pytest.approx(0.4, abs=1e-15)

    def test_single_iteration_schedule_is_pure_exploitation(self):
        sched = self.schedule(total_iters=1)
        assert sched.density(1) == 0.0
        assert sched.radius(1, 20) == 0.0

    def test_density_matches_closed_form(self):
        sched = self.schedule(initial_density=0.9, decay_exponent=1.7, total_iters=13)
        for i in range(1, 14):
            expected = 0.9 * ((13 - i) / 12) ** 1.7
            assert sched.density(i) == pytest.approx(expected, abs=1e-15)

    def test_radius_strictly_decreasing_with_growing_centers(self):
        sched = self.schedule()
        radii = [sched.radius(i, 20 + i - 1) for i in range(1, 11)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert radii[-1] == 0.0

    def test_iteration_bounds_enforced(self):
        sched = self.schedule()
        with pytest.raises(ValueError):
            sched.density(0)
        with pytest.raises(ValueError):
            sched.density(11)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            self.schedule(initial_density=0.0)
        with pytest.raises(ValueError):
            self.schedule(initial_density=1.2)
        with pytest.raises(ValueError):
            self.schedule(decay_exponent=0.0)
        with pytest.raises(ValueError):
            self.schedule(total_iters=0)


class TestProposalSettings:
    @pytest.mark.parametrize(
        "overrides, field",
        [
            # No uniform and no local candidates used to reach propose_point
            # and fail there on an empty argmax.
            ({"uniform_per_dim": 0, "local_candidates": 0}, "uniform_per_dim"),
            ({"local_candidates": -1}, "local_candidates"),
            ({"pattern_steps": -1}, "pattern_steps"),
            ({"initial_step": -0.05}, "initial_step"),
            ({"min_step": 0.0}, "min_step"),
            ({"min_step": 0.1, "initial_step": 0.05}, "min_step"),
        ],
    )
    def test_rejects_invalid_settings_naming_the_field(self, overrides, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            ProposalSettings(**overrides)

    def test_smallest_valid_settings_propose(self):
        settings = ProposalSettings(
            uniform_per_dim=1, local_candidates=0, pattern_steps=0, min_step=0.05
        )
        model, points = sphere_model(np.random.default_rng(3))
        draw = draw_candidates(points, 0.0, np.random.default_rng(4), settings)
        prop = propose_point(model, draw, points[0], ())
        assert prop.x.shape == (2,)


# Uniform candidates only: no Gaussian offsets, so the incumbent is unused.
UNIFORM_ONLY = ProposalSettings(local_candidates=0)


def sphere_model(rng, n_points=25):
    points = rng.random((n_points, 2))
    values = np.sum((points - 0.5) ** 2, axis=1)
    return fit(points, values), points


class TestProposePoint:
    def test_unconstrained_tracks_candidate_minimum(self):
        model, points = sphere_model(np.random.default_rng(0))
        draw = draw_candidates(points, 0.0, np.random.default_rng(42), UNIFORM_ONLY)
        prop = propose_point(model, draw, points[0], ())
        assert not prop.fallback

        rng = np.random.default_rng(42)
        cands = draw_candidates(points, 0.0, rng, UNIFORM_ONLY).uniform
        candidate_min = float(model.evaluate_many(cands).min())
        assert prop.surrogate_value <= candidate_min + 1e-12
        assert candidate_min - prop.surrogate_value < 1e-3

    def test_never_beaten_by_any_feasible_candidate(self):
        model, points = sphere_model(np.random.default_rng(1))
        radius = 0.2
        draw = draw_candidates(points, radius, np.random.default_rng(5), UNIFORM_ONLY)
        prop = propose_point(model, draw, points[0], ())
        assert not prop.fallback

        rng = np.random.default_rng(5)
        cands = draw_candidates(points, radius, rng, UNIFORM_ONLY).uniform
        feasible = cands[cdist(cands, points).min(axis=1) >= radius]
        best_candidate = float(model.evaluate_many(feasible).min())
        assert prop.surrogate_value <= best_candidate + 1e-12

    def test_respects_distance_constraint(self):
        model, points = sphere_model(np.random.default_rng(2))
        centers = np.array([[0.5, 0.5]])
        draw = draw_candidates(centers, 0.45, np.random.default_rng(3), UNIFORM_ONLY)
        prop = propose_point(model, draw, points[0], ())
        assert not prop.fallback
        assert float(cdist(prop.x[None, :], centers).min()) >= 0.45
        assert model.evaluate(prop.x) == pytest.approx(prop.surrogate_value)

    def test_infeasible_radius_triggers_fallback(self):
        model, points = sphere_model(np.random.default_rng(3))
        draw = draw_candidates(points, 2.0, np.random.default_rng(8), UNIFORM_ONLY)
        prop = propose_point(model, draw, points[0], ())
        assert prop.fallback

        rng = np.random.default_rng(8)
        cands = draw_candidates(points, 2.0, rng, UNIFORM_ONLY).uniform
        dmin = cdist(cands, points).min(axis=1)
        np.testing.assert_array_equal(prop.x, cands[int(np.argmax(dmin))])

    def test_stays_inside_unit_cube(self):
        model, points = sphere_model(np.random.default_rng(4))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            draw = draw_candidates(points, 0.1, rng, ProposalSettings())
            prop = propose_point(model, draw, np.array([0.98, 0.01]), ())
            assert np.all(prop.x >= 0.0) and np.all(prop.x <= 1.0)

    def test_local_candidates_follow_incumbent(self):
        settings = ProposalSettings(uniform_per_dim=5, local_candidates=100)
        best = np.array([0.3, 0.7])
        draw = draw_candidates(best[None, :], 0.01, np.random.default_rng(0), settings)
        assert draw.uniform.shape == (10, 2) and draw.offsets.shape == (100, 2)
        # The Gaussian tail sits near the incumbent (sigma = 0.05 here).
        local = best + draw.offsets
        assert float(np.median(cdist(local, best[None, :]))) < 0.15

    def test_uniform_only_draw_is_a_bare_uniform_draw_and_ignores_the_incumbent(self):
        model, points = sphere_model(np.random.default_rng(6))
        rng, bare = np.random.default_rng(0), np.random.default_rng(0)
        draw = draw_candidates(points, 0.1, rng, UNIFORM_ONLY)
        assert draw.offsets.shape == (0, 2)
        uniform = bare.random((UNIFORM_ONLY.uniform_per_dim * 2, 2))
        np.testing.assert_array_equal(draw.uniform, uniform)
        assert rng.bit_generator.state == bare.bit_generator.state

        first = propose_point(model, draw, points[0], ())
        second = propose_point(model, draw, np.array([0.9, 0.1]), ())
        assert first.x.tobytes() == second.x.tobytes()
        assert (first.radius, first.fallback) == (second.radius, second.fallback)
        assert first.surrogate_value == second.surrogate_value

    def test_rejects_negative_radius(self):
        _, points = sphere_model(np.random.default_rng(5))
        with pytest.raises(ValueError):
            draw_candidates(points, -0.1, np.random.default_rng(0), UNIFORM_ONLY)


class TestMinCenterDistance:
    @pytest.mark.parametrize(
        "n_points, n_centers",
        [(0, 3), (3, 0), (1, 40), (40, 1), (500, 7), (4001, 256), (70000, 1)],
    )
    def test_matches_the_row_wise_scan_bitwise(self, n_points, n_centers):
        # More points than centers puts the centers first in cdist, and the
        # last two cases take several blocks of points, the last one short.
        rng = np.random.default_rng(n_points + n_centers)
        points, centers = rng.random((n_points, 3)), rng.random((n_centers, 3))
        expected = cdist(points, centers).min(axis=1, initial=math.inf)
        np.testing.assert_array_equal(_min_center_distance(points, centers), expected)

    @pytest.mark.parametrize("dim", [1, 2, 10])
    @pytest.mark.parametrize("n_points, n_centers", [(5, 60), (3000, 60)])
    def test_matches_euclidean_cdist_bitwise_in_any_dimension(self, dim, n_points, n_centers):
        # The scan reduces squared distances and takes one square root per
        # point; that is bitwise the minimum of the Euclidean distances.
        rng = np.random.default_rng(dim * n_points)
        points, centers = rng.random((n_points, dim)), rng.random((n_centers, dim))
        expected = cdist(points, centers).min(axis=1, initial=math.inf)
        np.testing.assert_array_equal(_min_center_distance(points, centers), expected)

    @pytest.mark.parametrize("n_points", [1, 500])
    def test_point_on_a_center_is_exactly_zero_away(self, n_points):
        rng = np.random.default_rng(n_points)
        centers = rng.random((8, 2))
        points = rng.random((n_points, 2))
        points[-1] = centers[3]
        nearest = _min_center_distance(points, centers)
        assert nearest[-1] == 0.0
        assert np.all(nearest[:-1] > 0.0)


def sequential_pattern_search(model, x, fx, centers, radius, settings):
    """The pattern search polling one trial at a time: the polled search
    must reach the same point."""
    d = x.size
    step = settings.initial_step
    for _ in range(settings.pattern_steps):
        improved = False
        for axis in range(d):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[axis] += sign * step
                if trial[axis] < 0.0 or trial[axis] > 1.0:
                    continue
                if not _feasible(_min_center_distance(trial[None, :], centers)[0], radius):
                    continue
                value = model.evaluate(trial)
                if value < fx:
                    x, fx = trial, value
                    improved = True
        if not improved:
            step *= 0.5
            if step < settings.min_step:
                break
    return x


def wavy_model(rng, dim, n_points):
    """A fitted surface with many local minima, under a random scaling."""
    points = rng.random((n_points, dim))
    values = np.sin(7.0 * points).sum(axis=1) + rng.random(n_points)
    mix = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
    return fit(points, values, mix), points


class TestPatternSearch:
    def polish_both(self, model, x, centers, radius, knobs):
        fx = model.evaluate(x)
        expected = sequential_pattern_search(model, x, fx, centers, radius, knobs)
        polled = _pattern_search(model, x, fx, centers, radius, knobs)
        np.testing.assert_array_equal(polled, expected)
        return polled

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 4),
        pattern_steps=st.sampled_from([0, 1, 2, 3, 7, 50]),
        min_fraction=st.sampled_from([1.0, 0.5, 0.3, 1e-2, 1e-3]),
        radius=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
        face=st.booleans(),
    )
    def test_matches_the_sequential_loop(
        self, seed, dim, pattern_steps, min_fraction, radius, face
    ):
        rng = np.random.default_rng(seed)
        model, centers = wavy_model(rng, dim, int(rng.integers(dim + 2, 30)))
        x = rng.random(dim)
        if face:
            x[int(rng.integers(dim))] = float(rng.integers(2))
        initial_step = float(rng.uniform(0.01, 0.2))
        knobs = ProposalSettings(
            pattern_steps=pattern_steps,
            initial_step=initial_step,
            min_step=initial_step * min_fraction,
        )
        self.polish_both(model, x, centers, radius, knobs)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"pattern_steps": 0},
            {"pattern_steps": 1},
            # One step level: the first sweep without an improvement ends it.
            {"initial_step": 0.03, "min_step": 0.03},
            # Three sweeps run out long before the seven-level ladder does.
            {"pattern_steps": 3, "initial_step": 0.1, "min_step": 1e-3},
        ],
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_budget_and_ladder_edges(self, overrides, seed):
        rng = np.random.default_rng(seed)
        model, centers = wavy_model(rng, 3, 20)
        x = rng.random(3)
        polled = self.polish_both(model, x, centers, 0.0, ProposalSettings(**overrides))
        if overrides.get("pattern_steps") == 0:
            np.testing.assert_array_equal(polled, x)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_dimension_from_either_face(self, seed):
        rng = np.random.default_rng(seed)
        model, centers = wavy_model(rng, 1, 8)
        for start in (0.0, 1.0, float(rng.random())):
            self.polish_both(model, np.array([start]), centers, 0.01, ProposalSettings())

    def test_every_trial_infeasible_keeps_the_start(self):
        rng = np.random.default_rng(9)
        model, centers = wavy_model(rng, 2, 12)
        x = np.array([0.4, 0.6])
        # Every trial lies within initial_step of x, so within 0.2 of a center at x.
        walled = np.vstack([centers, x])
        polled = self.polish_both(model, x, walled, 0.2, ProposalSettings())
        np.testing.assert_array_equal(polled, x)

    def test_reaches_a_lower_feasible_point(self):
        rng = np.random.default_rng(10)
        model, centers = wavy_model(rng, 2, 15)
        x = np.array([0.5, 0.5])
        polled = self.polish_both(model, x, centers, 0.05, ProposalSettings())
        assert model.evaluate(polled) < model.evaluate(x)
        assert np.all((polled >= 0.0) & (polled <= 1.0))
        assert _min_center_distance(polled[None, :], centers)[0] >= 0.05


class TestSurrogateValue:
    def test_is_the_one_point_value_at_the_proposal(self):
        model, points = sphere_model(np.random.default_rng(11))
        draw = draw_candidates(points, 0.05, np.random.default_rng(12), UNIFORM_ONLY)
        prop = propose_point(model, draw, points[0], ())
        assert not prop.fallback
        assert prop.surrogate_value == model.evaluate(prop.x)

    def test_is_the_one_point_value_on_the_fallback(self):
        model, points = sphere_model(np.random.default_rng(13))
        draw = draw_candidates(points, 2.0, np.random.default_rng(14), UNIFORM_ONLY)
        prop = propose_point(model, draw, points[0], ())
        assert prop.fallback
        assert prop.surrogate_value == model.evaluate(prop.x)


class TestProposeBatch:
    def schedule(self):
        return RadiusSchedule(
            initial_density=0.75, decay_exponent=1.0, total_iters=10, dim=2
        )

    def propose(self, model, centers, sched, start_iter, batch, seed):
        """The batch the composed calls propose without local candidates."""
        rng = np.random.default_rng(seed)
        draws = draw_batch(centers, sched, start_iter, batch, rng, UNIFORM_ONLY)
        return propose_batch(model, draws, centers[0])

    def test_single_proposal_reduces_to_propose_point(self):
        # Serial case: a one-element batch takes its radius from the live
        # center count (22 at iteration 3), so it equals a direct proposal.
        rng = np.random.default_rng(6)
        model, _ = sphere_model(rng, n_points=20)
        centers = rng.random((22, 2))
        sched = self.schedule()
        batch = self.propose(model, centers, sched, 3, 1, 9)
        radius = sched.radius(3, 22)
        draw = draw_candidates(centers, radius, np.random.default_rng(9), UNIFORM_ONLY)
        solo = propose_point(model, draw, centers[0], ())
        np.testing.assert_array_equal(batch[0].x, solo.x)
        assert batch[0].radius == sched.radius(3, 22)

    def test_pending_points_keep_their_distance(self):
        model, points = sphere_model(np.random.default_rng(7), n_points=20)
        sched = self.schedule()
        batch = self.propose(model, points, sched, 1, 2, 1)
        assert len(batch) == 2
        if not batch[1].fallback:
            gap = float(np.linalg.norm(batch[0].x - batch[1].x))
            assert gap >= batch[1].radius

    def test_pending_points_enter_center_count(self):
        model, points = sphere_model(np.random.default_rng(8), n_points=20)
        sched = self.schedule()
        batch = self.propose(model, points, sched, 1, 3, 2)
        for j, prop in enumerate(batch):
            assert prop.radius == sched.radius(1 + j, 20 + j)

    def test_batch_cannot_overrun_schedule(self):
        model, points = sphere_model(np.random.default_rng(9), n_points=20)
        with pytest.raises(ValueError, match="budget"):
            self.propose(model, points, self.schedule(), 9, 3, 0)

    def test_same_seed_same_batch(self):
        model, points = sphere_model(np.random.default_rng(10), n_points=20)
        sched = self.schedule()
        a = self.propose(model, points, sched, 2, 3, 4)
        b = self.propose(model, points, sched, 2, 3, 4)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.x, pb.x)
