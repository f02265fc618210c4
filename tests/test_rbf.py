"""Tests for the cubic radial-basis surface and the covariance rescaling."""

from __future__ import annotations

import logging
import math
import re

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import rbfcors.rbf
from rbfcors.rbf import (
    RbfModel,
    SingularFitError,
    compute_space_scaling,
    fit,
    refit_with_scaling,
)


def random_instance(rng, dim, n_points):
    points = rng.random((n_points, dim))
    values = rng.normal(size=n_points)
    return points, values


# Centers 5e-10 apart, just above the duplicate cutoff: the kernel block is
# nearly singular.
NEAR_DUPLICATE_POINTS = np.array([[0.2, 0.2], [0.2, 0.2 + 5e-10], [0.8, 0.3], [0.4, 0.9]])
NEAR_DUPLICATE_VALUES = np.array([1.0, 1.0, 2.0, 3.0])


@pytest.fixture
def getrf_calls(monkeypatch):
    """Count the LU factorizations fit performs."""
    calls = []

    def counted(system, *args, **kwargs):
        calls.append(system.shape)
        return getrf(system, *args, **kwargs)

    getrf = rbfcors.rbf.dgetrf
    monkeypatch.setattr(rbfcors.rbf, "dgetrf", counted)
    return calls


class TestFit:
    def test_interpolates_centers(self):
        rng = np.random.default_rng(0)
        points, values = random_instance(rng, 2, 15)
        model = fit(points, values)
        np.testing.assert_allclose(model.evaluate_many(points), values, atol=1e-8)

    def test_side_conditions_hold(self):
        rng = np.random.default_rng(1)
        points, values = random_instance(rng, 3, 20)
        model = fit(points, values)
        assert abs(model.weights.sum()) < 1e-8
        np.testing.assert_allclose(
            model.weights @ points, np.zeros(3), atol=1e-8
        )

    def test_reproduces_linear_functions_exactly(self):
        rng = np.random.default_rng(2)
        points = rng.random((12, 2))
        values = 2.0 * points[:, 0] - 3.0 * points[:, 1] + 7.0
        model = fit(points, values)
        fresh = rng.random((40, 2))
        expected = 2.0 * fresh[:, 0] - 3.0 * fresh[:, 1] + 7.0
        np.testing.assert_allclose(model.evaluate_many(fresh), expected, atol=1e-8)
        np.testing.assert_allclose(model.weights, np.zeros(12), atol=1e-8)
        np.testing.assert_allclose(model.tail_linear, [2.0, -3.0], atol=1e-8)
        assert model.tail_const == pytest.approx(7.0, abs=1e-8)

    def test_single_point_evaluate_matches_batch(self):
        rng = np.random.default_rng(3)
        points, values = random_instance(rng, 2, 10)
        model = fit(points, values)
        x = rng.random(2)
        assert model.evaluate(x) == pytest.approx(model.evaluate_many(x[None, :])[0])

    def test_requires_enough_points(self):
        rng = np.random.default_rng(4)
        points, values = random_instance(rng, 3, 4)  # need at least d+2 = 5
        with pytest.raises(ValueError, match="at least"):
            fit(points, values)

    def test_duplicate_centers_rejected(self):
        points = np.array([[0.1, 0.1], [0.5, 0.5], [0.5, 0.5], [0.9, 0.2]])
        with pytest.raises(SingularFitError):
            fit(points, np.array([1.0, 2.0, 2.0, 3.0]))

    def test_near_duplicate_centers_do_not_hang(self):
        # The solver either recovers via the diagonal nudge or raises; both
        # are acceptable, a silent non-finite model is not.
        points, values = NEAR_DUPLICATE_POINTS, NEAR_DUPLICATE_VALUES
        try:
            model = fit(points, values)
        except SingularFitError:
            return
        assert np.all(np.isfinite(model.weights))
        assert np.all(np.isfinite(model.evaluate_many(points)))

    def test_one_dimensional_inputs(self):
        points = np.array([[0.0], [0.3], [0.7], [1.0]])
        values = np.array([1.0, 0.2, 0.5, 2.0])
        model = fit(points, values)
        np.testing.assert_allclose(model.evaluate_many(points), values, atol=1e-8)

    def test_interpolation_across_dimensions(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3, 5):
            n = int(rng.integers(dim + 2, 40))
            points, values = random_instance(rng, dim, n)
            model = fit(points, values)
            residual = np.abs(model.evaluate_many(points) - values).max()
            assert residual <= 1e-6


class TestConditionEstimate:
    def test_estimate_tracks_exact_one_norm_condition(self, monkeypatch):
        systems = []
        factor = rbfcors.rbf._factor

        def recording(system):
            systems.append(system.copy())
            return factor(system)

        monkeypatch.setattr(rbfcors.rbf, "_factor", recording)
        rng = np.random.default_rng(13)
        for dim, n in ((1, 5), (2, 30), (3, 60), (5, 120)):
            fit(*random_instance(rng, dim, n))
        matrices = systems + [rng.normal(size=(k, k)) for k in (3, 20, 80)]
        for system in matrices:
            _, estimate = factor(system)
            exact = np.linalg.cond(system, 1)
            assert exact / 10 <= estimate <= exact * 10

    def test_singular_and_non_finite_systems_estimate_inf(self):
        singular = np.ones((4, 4))
        assert rbfcors.rbf._factor(singular) == (None, math.inf)
        broken = np.eye(3)
        broken[1, 2] = np.nan
        assert rbfcors.rbf._factor(broken) == (None, math.inf)

    def test_one_factorization_without_svd(self, monkeypatch, getrf_calls):
        def forbidden(*args, **kwargs):
            raise AssertionError("fit must not compute an SVD")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(np.linalg, "cond", forbidden)
        rng = np.random.default_rng(14)
        points, values = random_instance(rng, 2, 25)
        model = fit(points, values)
        np.testing.assert_allclose(model.evaluate_many(points), values, atol=1e-8)
        assert getrf_calls == [(28, 28)]

    def test_estimate_above_limit_takes_nudge_path(self, caplog, getrf_calls):
        with caplog.at_level(logging.DEBUG, logger="rbfcors.rbf"):
            model = fit(NEAR_DUPLICATE_POINTS, NEAR_DUPLICATE_VALUES)
        (record,) = caplog.records
        estimate = float(record.args[1])
        assert estimate > rbfcors.rbf._CONDITION_LIMIT
        assert record.getMessage().endswith("nudge fired")
        assert getrf_calls == [(7, 7), (7, 7)]
        assert np.all(np.isfinite(model.weights))

    def test_debug_record_names_estimate_and_nudge(self, caplog):
        rng = np.random.default_rng(15)
        with caplog.at_level(logging.DEBUG, logger="rbfcors.rbf"):
            fit(*random_instance(rng, 2, 12))
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert re.fullmatch(
            r"rbf fit: system size 15, 1-norm condition estimate \d\.\d{3}e[+-]\d+, "
            r"nudge not fired",
            record.getMessage(),
        )


class TestSpaceScaling:
    def _slab_model(self):
        """Model whose surface is the plane x_1, so the best cloud points
        form a thin slab with strongly anisotropic covariance."""
        rng = np.random.default_rng(6)
        points = rng.random((20, 2))
        return fit(points, points[:, 0].copy()), rng

    def test_whitens_kept_cloud(self):
        model, _ = self._slab_model()
        scaling = compute_space_scaling(model, cloud_size=4000, rng=np.random.default_rng(9))

        oracle_rng = np.random.default_rng(9)
        cloud = oracle_rng.random((4000, 2))
        keep = math.ceil(4000 * 0.05)
        order = np.argsort(model.evaluate_many(cloud), kind="stable")
        kept = cloud[order[:keep]]
        covariance = np.cov(kept, rowvar=False)
        whitened = scaling.matrix @ covariance @ scaling.matrix.T
        np.testing.assert_allclose(whitened, np.eye(2), atol=1e-8)
        assert not scaling.degenerate

    def test_rows_scale_inverse_sqrt_eigenvalue(self):
        model, _ = self._slab_model()
        scaling = compute_space_scaling(model, cloud_size=2000, rng=np.random.default_rng(10))
        for row, eigval, eigvec in zip(
            scaling.matrix, scaling.eigenvalues, scaling.eigenvectors
        ):
            np.testing.assert_allclose(row, eigvec / math.sqrt(eigval), atol=1e-12)

    def test_single_kept_point_falls_back_to_identity(self):
        model, _ = self._slab_model()
        scaling = compute_space_scaling(
            model, cloud_size=100, best_fraction=0.005, rng=np.random.default_rng(0)
        )
        assert scaling.degenerate
        np.testing.assert_array_equal(scaling.matrix, np.eye(2))

    def test_rank_deficient_cloud_clamps_eigenvalues(self):
        model, _ = self._slab_model()
        # Two kept points give a rank-one covariance; the zero eigenvalue
        # must be floored instead of producing an infinite row.
        scaling = compute_space_scaling(
            model, cloud_size=100, best_fraction=0.02, rng=np.random.default_rng(0)
        )
        assert not scaling.degenerate
        assert scaling.eigenvalues.min() >= 1e-8 * scaling.eigenvalues.max()
        assert np.all(np.isfinite(scaling.matrix))

    def test_refit_still_interpolates(self):
        rng = np.random.default_rng(11)
        points = rng.random((18, 2))
        values = np.sin(points[:, 0] * 3) + points[:, 1] ** 2
        model = fit(points, values)
        scaling = compute_space_scaling(model, rng=rng)
        refit = refit_with_scaling(points, values, scaling)
        np.testing.assert_allclose(refit.evaluate_many(points), values, atol=1e-6)
        np.testing.assert_array_equal(refit.scaling, scaling.matrix)

    def test_rejects_bad_parameters(self):
        model, _ = self._slab_model()
        with pytest.raises(ValueError):
            compute_space_scaling(model, cloud_size=10)
        with pytest.raises(ValueError):
            compute_space_scaling(model, best_fraction=0.9)


class TestRbfModel:
    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        points, values = random_instance(rng, 2, 8)
        model = fit(points, values)
        with pytest.raises(ValueError):
            model.evaluate(np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            model.evaluate_many(rng.random((4, 3)))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_evaluate_many_matches_direct_formula_bitwise(self, scaled):
        rng = np.random.default_rng(16)
        points, values = random_instance(rng, 3, 20)
        scaling = rng.normal(size=(3, 3)) if scaled else None
        model = fit(points, values, scaling)
        T = model.scaling
        fresh = rng.random((200, 3))
        expected = (
            cdist(fresh @ T.T, points @ T.T) ** 3 @ model.weights
            + fresh @ model.tail_linear
            + model.tail_const
        )
        np.testing.assert_array_equal(model.evaluate_many(fresh), expected)

    def test_model_is_cubic_in_distance(self):
        # One center with zero tail: value grows as distance cubed.
        model = RbfModel(
            centers=np.array([[0.0, 0.0]]),
            weights=np.array([2.0]),
            tail_linear=np.zeros(2),
            tail_const=0.0,
            scaling=np.eye(2),
        )
        assert model.evaluate(np.array([3.0, 4.0])) == pytest.approx(2.0 * 5.0**3)
