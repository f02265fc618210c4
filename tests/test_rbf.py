"""Tests for the cubic radial-basis surface and the covariance rescaling."""

from __future__ import annotations

import logging
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import rbfcors.rbf
from rbfcors.rbf import (
    RbfModel,
    SingularFitError,
    compute_space_scaling,
    cubic_kernel,
    fit,
    kernel_workspace,
    refit_with_scaling,
    scaling_cloud,
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

    @pytest.mark.parametrize(
        "argument, bad",
        [("points", np.nan), ("values", np.nan), ("values", np.inf), ("scaling", np.inf)],
    )
    def test_non_finite_input_rejected_by_name(self, argument, bad, getrf_calls):
        rng = np.random.default_rng(5)
        points, values = random_instance(rng, 2, 8)
        inputs = {"points": points, "values": values, "scaling": np.eye(2)}
        inputs[argument].flat[1] = bad
        with pytest.raises(ValueError, match=rf"^{argument}\b.* must be finite"):
            fit(**inputs)
        assert getrf_calls == []  # rejected before any factorization

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

    def test_failed_solve_takes_nudge_path(self, caplog, getrf_calls):
        # A well-conditioned system whose values are so close to overflow
        # that the solution is not finite, with or without the nudge; the
        # conftest turns any RuntimeWarning on the way into a failure.
        points = np.random.default_rng(0).random((8, 2))
        values = 1.7e308 * np.array([1, -1] * 4)
        with caplog.at_level(logging.DEBUG, logger="rbfcors.rbf"):
            with pytest.raises(SingularFitError, match="could not be solved"):
                fit(points, values)
        (record,) = caplog.records
        assert record.getMessage().endswith("nudge fired")
        assert getrf_calls == [(11, 11), (11, 11)]

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


# Every point on the line x_1 = x_2: the linear tail is rank-deficient, so
# the system stays singular even after the diagonal nudge.
COLLINEAR_POINTS = np.array([[0.0, 0.0], [0.25, 0.25], [0.5, 0.5], [1.0, 1.0]])


class OpenBlasThreads:
    """The process's real OpenBLAS controls, each set to a count other than
    one, with every set call the fit scope makes recorded."""

    PRIOR = 2

    def __init__(self, controls):
        self.controls = controls
        self.sets = []
        self.inside = []

    def counts(self):
        return [get_threads() for get_threads, _ in self.controls]

    def recording(self):
        def recorded(set_threads):
            def call(count):
                self.sets.append(count)
                set_threads(count)

            return call

        return [(get_threads, recorded(set_threads)) for get_threads, set_threads in self.controls]


@pytest.fixture
def blas_threads(monkeypatch):
    """Real OpenBLAS counts set to 2 for the test and restored after it; the
    fit scope uses recording controls, and dgetrf notes the counts it runs at."""
    controls = rbfcors.rbf._find_openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = [get_threads() for get_threads, _ in controls]
    threads = OpenBlasThreads(controls)
    for _, set_threads in controls:
        set_threads(OpenBlasThreads.PRIOR)
    monkeypatch.setattr(rbfcors.rbf._one_blas_thread, "controls", threads.recording())
    getrf = rbfcors.rbf.dgetrf

    def noting(system, *args, **kwargs):
        threads.inside.append(threads.counts())
        return getrf(system, *args, **kwargs)

    monkeypatch.setattr(rbfcors.rbf, "dgetrf", noting)
    yield threads
    for (_, set_threads), count in zip(controls, original):
        set_threads(count)


class TestBlasThreadScope:
    def test_fit_factors_on_one_thread_and_restores_the_count(self, blas_threads):
        prior = blas_threads.counts()
        rng = np.random.default_rng(17)
        fit(*random_instance(rng, 2, 40))
        assert blas_threads.counts() == prior == [OpenBlasThreads.PRIOR] * len(prior)
        assert blas_threads.inside == [[1] * len(prior)]
        assert blas_threads.sets == [1] * len(prior) + prior

    def test_count_restored_when_fit_is_singular(self, blas_threads):
        prior = blas_threads.counts()
        with pytest.raises(SingularFitError):
            fit(COLLINEAR_POINTS, np.array([1.0, 2.0, 3.0, 4.0]))
        assert blas_threads.inside  # the failure came from inside the scope
        assert blas_threads.counts() == prior

    def test_count_restored_when_the_solve_raises(self, blas_threads, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("gecon failed")

        monkeypatch.setattr(rbfcors.rbf, "dgecon", broken)
        prior = blas_threads.counts()
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="gecon failed"):
            fit(*random_instance(rng, 2, 10))
        assert blas_threads.inside == [[1] * len(prior)]
        assert blas_threads.counts() == prior

    def test_concurrent_fits_save_and_restore_once(self, blas_threads, monkeypatch):
        # Both fits wait for each other inside dgetrf, so their scopes overlap.
        both_inside = threading.Barrier(2, timeout=10.0)
        getrf = rbfcors.rbf.dgetrf

        def meeting(system, *args, **kwargs):
            result = getrf(system, *args, **kwargs)
            both_inside.wait()
            return result

        monkeypatch.setattr(rbfcors.rbf, "dgetrf", meeting)
        prior = blas_threads.counts()
        errors = []

        def fit_one(seed):
            try:
                fit(*random_instance(np.random.default_rng(seed), 2, 30))
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        workers = [threading.Thread(target=fit_one, args=(seed,)) for seed in (19, 20)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert blas_threads.inside == [[1] * len(prior)] * 2
        assert blas_threads.counts() == prior
        assert blas_threads.sets == [1] * len(prior) + prior

    def test_many_threads_fitting_keep_pin_and_restore_paired(self, blas_threads):
        prior = blas_threads.counts()
        errors = []

        def fit_many(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(10):
                    fit(*random_instance(rng, 2, 30))
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fit_many, args=(seed,)) for seed in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert blas_threads.inside == [[1] * len(prior)] * 40
        assert blas_threads.counts() == prior
        # Every pin to one thread is followed by exactly one restore.
        block, sets = [1] * len(prior) + prior, blas_threads.sets
        assert sets and len(sets) % len(block) == 0
        assert all(sets[i : i + len(block)] == block for i in range(0, len(sets), len(block)))

    def test_without_openblas_fit_touches_no_control(self, blas_threads, monkeypatch, caplog):
        monkeypatch.setattr(rbfcors.rbf, "_find_openblas_controls", lambda: [])
        monkeypatch.setattr(rbfcors.rbf._one_blas_thread, "controls", None)
        prior = blas_threads.counts()
        rng = np.random.default_rng(21)
        points, values = random_instance(rng, 2, 15)
        with caplog.at_level(logging.DEBUG, logger="rbfcors.rbf"):
            fit(points, values)
            model = fit(points, values)
        np.testing.assert_allclose(model.evaluate_many(points), values, atol=1e-8)
        assert blas_threads.inside == [prior, prior]
        assert blas_threads.sets == []
        assert blas_threads.counts() == prior
        missing = [r for r in caplog.records if "no OpenBLAS" in r.getMessage()]
        assert len(missing) == 1 and missing[0].levelno == logging.DEBUG


def cloud_for(model, cloud_size, rng):
    """A scaling cloud of cloud_size points from rng for the model."""
    return scaling_cloud(model.centers, model.scaling, rng, cloud_size)


class TestScalingCloud:
    def test_draws_its_points_and_builds_their_kernel(self):
        rng = np.random.default_rng(30)
        centers, S = rng.random((7, 3)), rng.normal(size=(3, 3))
        drawing, oracle = np.random.default_rng(31), np.random.default_rng(31)
        cloud = scaling_cloud(centers, S, drawing, 500)

        np.testing.assert_array_equal(cloud.points, oracle.random((500, 3)))
        assert drawing.bit_generator.state == oracle.bit_generator.state
        expected = cubic_kernel(cloud.points @ S.T, centers @ S.T)
        np.testing.assert_array_equal(cloud.kernel, expected)


class TestSpaceScaling:
    def _slab_model(self):
        """Model whose surface is the plane x_1, so the best cloud points
        form a thin slab with strongly anisotropic covariance."""
        rng = np.random.default_rng(6)
        points = rng.random((20, 2))
        return fit(points, points[:, 0].copy()), rng

    def test_whitens_kept_cloud(self):
        model, _ = self._slab_model()
        drawn = cloud_for(model, 4000, np.random.default_rng(9))
        scaling = compute_space_scaling(model, drawn, 0.05)

        oracle_rng = np.random.default_rng(9)
        cloud = oracle_rng.random((4000, 2))
        keep = math.ceil(4000 * 0.05)
        order = np.argsort(model.evaluate_many(cloud), kind="stable")
        kept = cloud[order[:keep]]
        covariance = np.cov(kept, rowvar=False)
        whitened = scaling.matrix @ covariance @ scaling.matrix.T
        np.testing.assert_allclose(whitened, np.eye(2), atol=1e-8)

    def test_rows_scale_inverse_sqrt_eigenvalue(self):
        model, _ = self._slab_model()
        cloud = cloud_for(model, 2000, np.random.default_rng(10))
        surface = model.evaluate_many(cloud.points)
        scaling = compute_space_scaling(model, cloud, 0.05)

        kept = cloud.points[np.argsort(surface, kind="stable")[: math.ceil(2000 * 0.05)]]
        eigenvalues, eigenvectors = np.linalg.eigh(np.cov(kept, rowvar=False))
        np.testing.assert_allclose(scaling.eigenvalues, eigenvalues, rtol=1e-12)
        for row, eigval, eigvec in zip(scaling.matrix, eigenvalues, eigenvectors.T):
            # An eigenvector's sign is arbitrary.
            sign = np.sign(row @ eigvec)
            np.testing.assert_allclose(row, sign * eigvec / math.sqrt(eigval), atol=1e-12)

    def test_single_kept_point_is_rejected(self):
        # One kept point has no covariance; the config rejects the same case.
        model, _ = self._slab_model()
        cloud = cloud_for(model, 100, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^best_fraction must be large enough to keep 2 "):
            compute_space_scaling(model, cloud, 0.005)

    def test_rank_deficient_cloud_clamps_eigenvalues(self):
        model, _ = self._slab_model()
        # Two kept points give a rank-one covariance; the zero eigenvalue
        # must be floored instead of producing an infinite row.
        cloud = cloud_for(model, 100, np.random.default_rng(0))
        scaling = compute_space_scaling(model, cloud, 0.02)
        assert scaling.eigenvalues.min() >= 1e-8 * scaling.eigenvalues.max()
        assert np.all(np.isfinite(scaling.matrix))

    def test_refit_still_interpolates(self):
        rng = np.random.default_rng(11)
        points = rng.random((18, 2))
        values = np.sin(points[:, 0] * 3) + points[:, 1] ** 2
        model = fit(points, values)
        scaling = compute_space_scaling(model, cloud_for(model, 10000, rng), 0.05)
        refit = refit_with_scaling(points, values, scaling)
        np.testing.assert_allclose(refit.evaluate_many(points), values, atol=1e-6)
        np.testing.assert_array_equal(refit.scaling, scaling.matrix)

    def test_rejects_bad_parameters(self):
        model, _ = self._slab_model()
        with pytest.raises(ValueError):
            compute_space_scaling(model, cloud_for(model, 100, np.random.default_rng(0)), 0.9)

    def test_rejects_a_cloud_drawn_for_another_model(self):
        model, rng = self._slab_model()
        cloud = cloud_for(model, 100, rng)
        other = fit(model.centers[1:], model.centers[1:, 0].copy())
        with pytest.raises(ValueError, match="cloud"):
            compute_space_scaling(other, cloud, 0.05)
        compute_space_scaling(model, cloud, 0.05)
        with pytest.raises(ValueError, match="cloud"):
            compute_space_scaling(model, cloud, 0.05)


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
        # The row counts sit on and around the block edges of evaluate_many.
        assert rbfcors.rbf._ROW_BLOCK == 256
        rng = np.random.default_rng(16)
        points, values = random_instance(rng, 3, 20)
        scaling = rng.normal(size=(3, 3)) if scaled else None
        model = fit(points, values, scaling)
        T = model.scaling
        for rows in (0, 1, 255, 256, 257, 600):
            fresh = rng.random((rows, 3))
            D = cdist(fresh @ T.T, points @ T.T)
            expected = (D * D * D) @ model.weights + fresh @ model.tail_linear + model.tail_const
            np.testing.assert_array_equal(model.evaluate_many(fresh), expected)

    @pytest.mark.parametrize("scaled", [False, True])
    def test_evaluate_many_within_a_few_ulps_of_extended_precision(self, scaled):
        rng = np.random.default_rng(17)
        points, values = random_instance(rng, 3, 40)
        scaling = rng.normal(size=(3, 3)) if scaled else None
        model = fit(points, values, scaling)
        fresh = rng.random((600, 3))
        # Extended-precision reference from the same double scaled
        # coordinates, weights and tail.
        T = model.scaling
        diff = (fresh @ T.T)[:, None, :].astype(np.longdouble) - (
            (points @ T.T)[None, :, :].astype(np.longdouble)
        )
        cubes = np.sqrt((diff * diff).sum(axis=2)) ** 3
        weights = model.weights.astype(np.longdouble)
        tail = fresh.astype(np.longdouble) @ model.tail_linear.astype(np.longdouble)
        reference = cubes @ weights + tail + np.longdouble(model.tail_const)
        magnitude = cubes @ np.abs(weights) + np.abs(fresh) @ np.abs(model.tail_linear)
        magnitude += abs(model.tail_const)
        error = np.abs(model.evaluate_many(fresh).astype(np.longdouble) - reference)
        assert np.all(error <= 8 * np.finfo(float).eps * magnitude)

    def test_evaluate_many_holds_one_kernel_matrix(self):
        # A 10000-point cloud against 300 centers: the kernel matrix is the
        # only full-size allocation; a cube taken as D * D * D would add a
        # second one.
        rng = np.random.default_rng(18)
        n_centers, cloud = 300, rng.random((10000, 2))
        model = RbfModel(
            centers=rng.random((n_centers, 2)),
            weights=rng.normal(size=n_centers),
            tail_linear=rng.normal(size=2),
            tail_const=0.5,
            scaling=np.eye(2),
        )
        tracemalloc.start()
        try:
            model.evaluate_many(cloud)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * cloud.shape[0] * n_centers * 8

    def test_kernel_in_a_workspace_matches_an_allocated_one_bitwise(self):
        rng = np.random.default_rng(19)
        centers = rng.random((30, 3))
        buf = kernel_workspace(600, 40)
        for rows in (0, 1, 255, 256, 257, 600):
            points = rng.random((rows, 3))
            buf.fill(np.nan)  # whatever an earlier kernel left there
            kernel = cubic_kernel(points, centers, buf)
            # The view buf[:rows * 30].reshape(rows, 30).
            assert kernel.ctypes.data == buf.ctypes.data and kernel.flags.c_contiguous
            np.testing.assert_array_equal(kernel, cubic_kernel(points, centers))
        with pytest.raises(ValueError, match="cannot hold a 601x30 kernel"):
            cubic_kernel(rng.random((601, 3)), centers, kernel_workspace(600, 30))

    def test_evaluate_many_in_a_workspace_allocates_no_kernel(self):
        rng = np.random.default_rng(20)
        n_centers, cloud = 300, rng.random((10000, 2))
        model = RbfModel(
            centers=rng.random((n_centers, 2)),
            weights=rng.normal(size=n_centers),
            tail_linear=rng.normal(size=2),
            tail_const=0.5,
            scaling=np.eye(2),
        )
        buf = kernel_workspace(len(cloud), n_centers)
        tracemalloc.start()
        try:
            values = model.evaluate_many(cloud, buf=buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * cloud.shape[0] * n_centers * 8
        np.testing.assert_array_equal(values, model.evaluate_many(cloud))

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
