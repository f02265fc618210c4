"""Tests for domain mapping and objective-value rescaling."""

from __future__ import annotations

import numpy as np
import pytest

from rbfcors.engine import OptimizationConfig, run
from rbfcors.scaling import BoundedDomain, fit_rescaler


class TestBoundedDomain:
    def test_roundtrip(self):
        domain = BoundedDomain([-2.0, 10.0, 0.5], [3.0, 30.0, 0.75])
        rng = np.random.default_rng(0)
        for _ in range(20):
            unit = rng.random(3)
            back = domain.to_unit(domain.from_unit(unit))
            np.testing.assert_allclose(back, unit, atol=1e-12)

    def test_corners_map_to_bounds(self):
        domain = BoundedDomain([-1.0, 2.0], [1.0, 4.0])
        np.testing.assert_array_equal(domain.from_unit(np.zeros(2)), [-1.0, 2.0])
        np.testing.assert_array_equal(domain.from_unit(np.ones(2)), [1.0, 4.0])
        np.testing.assert_array_equal(domain.to_unit(np.array([0.0, 3.0])), [0.5, 0.5])

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError, match="upper"):
            BoundedDomain([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            BoundedDomain([0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            BoundedDomain([0.0, np.inf], [1.0, 2.0])

    def test_rejects_points_outside(self):
        domain = BoundedDomain([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            domain.to_unit(np.array([1.5, 0.5]))
        with pytest.raises(ValueError):
            domain.from_unit(np.array([-0.1, 0.5]))

    def test_dim_and_width(self):
        domain = BoundedDomain([0.0, -5.0], [2.0, 5.0])
        assert domain.dim == 2
        np.testing.assert_array_equal(domain.width, [2.0, 10.0])

    def test_repr_names_both_bounds(self):
        domain = BoundedDomain([0, -5], [2.5, 5])
        assert repr(domain) == "BoundedDomain(lower=[0.0, -5.0], upper=[2.5, 5.0])"


class TestFitRescaler:
    def test_threshold_is_quantile_order_statistic(self):
        # ceil(0.75 * 5) = 4 -> fourth-smallest value.
        rescaler = fit_rescaler(np.array([5.0, 1.0, 3.0, 2.0, 4.0]), 0.75)
        assert rescaler.threshold == 4.0
        assert not rescaler.degenerate

    def test_keep_fraction_one_keeps_everything(self):
        rescaler = fit_rescaler(np.array([2.0, 9.0, 4.0]), 1.0)
        assert rescaler.threshold == 9.0

    def test_small_fraction_keeps_minimum(self):
        rescaler = fit_rescaler(np.array([5.0, 1.0, 3.0, 2.0, 4.0]), 0.2)
        assert rescaler.threshold == 1.0

    def test_values_below_threshold_scale_linearly(self):
        rescaler = fit_rescaler(np.array([0.0, 1.0, 2.0, 3.0]), 0.75)
        assert rescaler.threshold == 2.0
        assert rescaler.rescale(1.0) == 0.5
        assert rescaler.rescale(0.0) == 0.0

    def test_values_at_or_above_threshold_clip_to_one(self):
        rescaler = fit_rescaler(np.array([0.0, 1.0, 2.0, 3.0]), 0.75)
        assert rescaler.rescale(2.0) == 1.0
        assert rescaler.rescale(100.0) == 1.0

    def test_all_equal_values_degenerate(self):
        rescaler = fit_rescaler(np.array([3.0, 3.0, 3.0]), 0.75)
        assert rescaler.degenerate
        assert rescaler.rescale(3.0) == 0.0
        assert rescaler.rescale(3.1) == 1.0

    def test_zero_threshold_degenerate(self):
        rescaler = fit_rescaler(np.array([0.0, 0.0, 5.0]), 0.5)
        assert rescaler.degenerate
        assert rescaler.rescale(0.0) == 0.0
        assert rescaler.rescale(5.0) == 1.0

    def test_negative_minimum_becomes_the_anchor(self):
        # ceil(0.75 * 4) = 3 -> threshold 3.0; the anchor is the minimum -2.0.
        rescaler = fit_rescaler(np.array([3.0, -2.0, 1.0, 5.0]), 0.75)
        assert rescaler.anchor == -2.0
        assert rescaler.threshold == 3.0
        assert not rescaler.degenerate
        assert rescaler.rescale(-2.0) == 0.0
        assert rescaler.rescale(0.5) == 0.5
        assert rescaler.rescale(3.0) == 1.0
        assert rescaler.rescale(-7.0) == -1.0

    def test_non_negative_values_anchor_at_zero(self):
        rng = np.random.default_rng(4)
        values = rng.random(40) * 100
        rescaler = fit_rescaler(values, 0.75)
        assert rescaler.anchor == 0.0
        t = rescaler.threshold
        for v in [*values, *(rng.random(40) * t)]:
            assert rescaler.rescale(v) == (v / t if v < t else 1.0)

    def test_threshold_at_negative_anchor_degenerate(self):
        rescaler = fit_rescaler(np.array([-1.0, -1.0, -1.0, 5.0]), 0.5)
        assert rescaler.anchor == rescaler.threshold == -1.0
        assert rescaler.degenerate
        assert rescaler.rescale(-1.0) == 0.0
        assert rescaler.rescale(5.0) == 1.0

    def test_span_that_overflows_still_maps_into_range(self):
        # threshold - anchor and 9e307 - anchor both overflow to inf.
        values = [-1e308, -5e307, 0.0, 9e307, 1e308, 1e308]
        rescaler = fit_rescaler(values, 0.75)
        assert (rescaler.anchor, rescaler.threshold) == (-1e308, 1e308)
        assert rescaler.rescale(9e307) == 0.95
        assert rescaler.rescale(-1e308) == 0.0
        assert rescaler.rescale(-1.7e308) == -0.35
        assert all(0.0 <= rescaler.rescale(v) <= 1.0 for v in values)

    def test_run_with_values_spanning_the_float_range(self):
        result = run(
            lambda x: 1.7e308 * (2 * x[0] - 1),
            BoundedDomain([0, 0], [1, 1]),
            OptimizationConfig(n_init=6, n_iter=4, seed=0),
        )
        scaled = np.array([rec.f_scaled for rec in result.history])
        assert len(scaled) == 10
        assert np.all((scaled >= 0.0) & (scaled <= 1.0))
        assert result.best_f == -1.7e308

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            fit_rescaler(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            fit_rescaler(np.array([1.0, 2.0]), 1.5)

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        values = rng.random(40) * 100
        rescaler = fit_rescaler(values, 0.75)
        scaled = [rescaler.rescale(v) for v in values]
        assert all(0.0 <= s <= 1.0 for s in scaled)

