"""Tests for the benchmark objectives and the grid oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rbfcors import BoundedDomain
from rbfcors.benchmarks import (
    NamedObjective,
    builtin,
    grid_oracle,
    multimodal,
    sphere,
    valley,
)


def at(function, *point) -> float:
    """A built-in's value at one point, through its (n, d) formula."""
    return float(function(np.array([point]))[0])


class TestMultimodal:
    def test_corner_values(self):
        assert at(multimodal, 0.0, 0.0) == pytest.approx(4.0, abs=1e-12)
        assert at(multimodal, 0.5, 0.5) == pytest.approx(9.0, abs=1e-12)

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            multimodal([[1.2, 0.5]])
        with pytest.raises(ValueError):
            multimodal([[0.5, -0.1]])

    def test_broadcasts_over_arrays(self):
        x = np.array([0.0, 0.5])
        out = multimodal(np.stack([x, x], axis=1))
        np.testing.assert_allclose(out, [4.0, 9.0], atol=1e-12)

    def test_global_minimum_from_stationarity(self):
        # Each axis term cos(4 pi u) + 5 u is stationary where
        # sin(4 pi u) = 5 / (4 pi); the smaller root is the minimum.
        root = (math.pi - math.asin(5.0 / (4.0 * math.pi))) / (4.0 * math.pi)
        argmin, value = grid_oracle(builtin("multimodal"), 1001)
        assert argmin[0] == argmin[1]  # separable and symmetric
        assert abs(argmin[0] - root) <= 1e-3  # grid spacing
        analytic = at(multimodal, root, root)
        assert value == pytest.approx(analytic, abs=1e-4)
        assert analytic == pytest.approx(2.3394, abs=1e-3)

    def test_non_negative_on_box(self):
        _, value = grid_oracle(builtin("multimodal"), 501)
        assert value > 0.0

    def test_four_minima_on_the_cross(self):
        root = (math.pi - math.asin(5.0 / (4.0 * math.pi))) / (4.0 * math.pi)
        other = root + 0.5  # next period of the axis term
        for x, y in [(root, root), (root, other), (other, root), (other, other)]:
            center = at(multimodal, x, y)
            for dx, dy in [(-1e-3, 0), (1e-3, 0), (0, -1e-3), (0, 1e-3)]:
                assert at(multimodal, x + dx, y + dy) > center


class TestValley:
    def test_known_values(self):
        assert at(valley, 0.5, 0.5) == 0.0
        assert at(valley, 1.0, 0.0) == 1.0
        assert at(valley, 1.0, 1.0) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_minimum_at_center(self):
        argmin, value = grid_oracle(builtin("valley"), 1001)
        np.testing.assert_allclose(argmin, [0.5, 0.5], atol=1e-12)
        assert value == 0.0

    def test_kink_along_diagonal(self):
        # The |x - y| term makes the function non-smooth across x = y.
        eps = 1e-6
        left = at(valley, 0.3 - eps, 0.3)
        right = at(valley, 0.3 + eps, 0.3)
        on = at(valley, 0.3, 0.3)
        assert on < left and on < right

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            valley([[-0.2, 0.5]])


class TestSphere:
    def test_reference_values(self):
        assert at(sphere, 0.5, 0.5) == 0.0
        assert at(sphere, 0.0, 0.0) == pytest.approx(0.5)
        assert at(sphere, 0.75) == pytest.approx(0.0625)

    def test_any_dimension(self):
        assert at(sphere, *np.full(7, 0.5)) == 0.0

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            sphere([[0.5, 1.5]])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            builtin("sphere", dim=3).evaluate(np.array([0.5, -0.1, 0.5]))


class TestBuiltin:
    def test_known_names(self):
        for name in ("multimodal", "valley", "sphere"):
            obj = builtin(name)
            assert obj.name == name
            assert obj.domain.dim == 2
            np.testing.assert_array_equal(obj.domain.lower, np.zeros(2))
            np.testing.assert_array_equal(obj.domain.upper, np.ones(2))

    def test_sphere_dimension_parameter(self):
        obj = builtin("sphere", dim=5)
        assert obj.domain.dim == 5
        assert obj.evaluate(np.full(5, 0.5)) == 0.0

    def test_planar_functions_reject_other_dimensions(self):
        with pytest.raises(ValueError, match="objective 'multimodal' is 2-dimensional, got dim=3"):
            builtin("multimodal", dim=3)
        with pytest.raises(ValueError, match="objective 'valley' is 2-dimensional, got dim=1"):
            builtin("valley", dim=1)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("rosenbrock")

    def test_vectorized_evaluation_matches_scalar(self):
        rng = np.random.default_rng(0)
        points = rng.random((50, 2))
        for name in ("multimodal", "valley", "sphere"):
            obj = builtin(name)
            batch = obj.evaluate_many(points)
            singles = [obj.evaluate(p) for p in points]
            np.testing.assert_array_equal(batch, singles)


class TestGridOracle:
    def test_sphere_exact_minimum_on_grid(self):
        argmin, value = grid_oracle(builtin("sphere"), 101)
        np.testing.assert_array_equal(argmin, [0.5, 0.5])
        assert value == 0.0

    def test_tie_breaks_lexicographically_first(self):
        flat = NamedObjective(
            name="flat",
            domain=BoundedDomain(np.zeros(2), np.ones(2)),
            evaluate_many=lambda pts: np.ones(pts.shape[0]),
        )
        argmin, value = grid_oracle(flat, 11)
        np.testing.assert_array_equal(argmin, [0.0, 0.0])
        assert value == 1.0

    def test_dimension_guard(self):
        big = NamedObjective(
            name="big",
            domain=BoundedDomain(np.zeros(4), np.ones(4)),
            evaluate_many=lambda pts: np.zeros(pts.shape[0]),
        )
        with pytest.raises(ValueError):
            grid_oracle(big, 11)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            grid_oracle(builtin("sphere"), 1)

    def test_one_dimensional_objective(self):
        obj = NamedObjective(
            name="plain",
            domain=BoundedDomain(np.zeros(1), np.ones(1)),
            evaluate_many=lambda pts: (pts[:, 0] - 0.25) ** 2,
        )
        argmin, value = grid_oracle(obj, 101)
        assert argmin[0] == pytest.approx(0.25)
        assert value == pytest.approx(0.0, abs=1e-15)
