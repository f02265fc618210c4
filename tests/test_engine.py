"""Tests for the optimization driver and batch evaluation."""

from __future__ import annotations

import gc
import math
import os
import signal
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from rbfcors import cors, engine, rbf
from rbfcors.benchmarks import builtin, multimodal
from rbfcors.cli import history_to_csv
from rbfcors.engine import (
    BatchEvaluationError,
    DriverError,
    ObjectiveError,
    OptimizationConfig,
    best_so_far,
    evaluate_batch,
    run,
)
from rbfcors.scaling import BoundedDomain


def unit_domain(dim: int = 2) -> BoundedDomain:
    return BoundedDomain(np.zeros(dim), np.ones(dim))


def sphere_objective(x) -> float:
    return float(np.sum((np.asarray(x) - 0.5) ** 2))


class TestEvaluateBatch:
    def test_results_in_input_order(self):
        def slow_for_small(x):
            time.sleep(0.05 * (3 - x[0]))
            return float(x[0])

        points = [np.array([float(i)]) for i in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = evaluate_batch(slow_for_small, points, pool, 4)
        assert results == [0.0, 1.0, 2.0, 3.0]

    def test_serial_matches_plain_loop(self):
        points = [np.array([i / 7, i / 11]) for i in range(8)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            results = evaluate_batch(sphere_objective, points, pool, 1)
        assert results == [sphere_objective(p) for p in points]

    def test_empty_input(self):
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert evaluate_batch(sphere_objective, [], pool, 4) == []

    def test_workers_below_one_rejected(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ValueError, match="workers"):
                evaluate_batch(sphere_objective, [np.zeros(1)], pool, 0)

    def test_worker_cap_respected(self):
        active = 0
        peak = 0
        lock = threading.Lock()

        def tracked(x):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.02)
            with lock:
                active -= 1
            return 0.0

        with ThreadPoolExecutor(max_workers=3) as pool:
            evaluate_batch(tracked, [np.zeros(1)] * 12, pool, 3)
        assert peak <= 3

    def test_failure_reports_completed_points(self):
        def fragile(x):
            if x[0] == 2.0:
                raise RuntimeError("boom")
            return float(x[0])

        points = [np.array([float(i)]) for i in range(5)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(BatchEvaluationError) as excinfo:
                evaluate_batch(fragile, points, pool, 1)
        completed = excinfo.value.completed
        assert completed == {0: 0.0, 1: 1.0}
        assert "boom" in str(excinfo.value)

    def test_failure_starts_no_further_call(self):
        started = []

        def fail_at_one(x):
            started.append(int(x[0]))
            if x[0] == 1.0:
                raise RuntimeError("boom")
            time.sleep(0.05)
            return 0.0

        points = [np.array([float(i)]) for i in range(6)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(BatchEvaluationError) as excinfo:
                evaluate_batch(fail_at_one, points, pool, 2)
        assert sorted(started) == [0, 1]
        assert excinfo.value.completed == {0: 0.0}

    def test_interrupt_starts_no_further_call(self):
        started, finished = [], []

        def interrupt_once(x):
            started.append(int(x[0]))
            if x[0] == 0.0:
                # The pause lets the caller finish submitting and start
                # waiting, so the signal lands in the wait.
                time.sleep(0.1)
                os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.1)
            finished.append(int(x[0]))
            return 0.0

        points = [np.array([float(i)]) for i in range(4)]
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(KeyboardInterrupt):
                evaluate_batch(interrupt_once, points, pool, 1)
            # The pool still runs, but the call in flight has already finished.
            assert finished == [0]
        assert started == [0]

    def test_meanwhile_waits_for_a_call_per_worker(self):
        started, seen = [], []
        release = threading.Event()

        def held(x):
            started.append(int(x[0]))
            release.wait(timeout=5.0)
            return float(x[0])

        def hook():
            seen.append(len(started))
            release.set()

        points = [np.array([float(i)]) for i in range(5)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            results = evaluate_batch(held, points, pool, 3, meanwhile=hook)
        assert seen == [3]
        assert results == [float(i) for i in range(5)]

    def test_meanwhile_runs_once_per_batch_under_thread_churn(self):
        # More workers than cores and a tiny switch interval: a lost update
        # of the start count would leave the caller waiting for ever.
        def brief(x):
            time.sleep(0.002)
            return float(x[0])

        calls = []
        points = [np.array([float(i)]) for i in range(24)]

        def hook():
            calls.append(1)

        def batches():
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(20):
                    results = evaluate_batch(brief, points, pool, 8, meanwhile=hook)
                    assert results == [float(i) for i in range(24)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=batches)
            runner.start()
            runner.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(calls) == 20

    def test_non_finite_value_is_an_error(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(BatchEvaluationError):
                evaluate_batch(lambda x: float("nan"), [np.zeros(1)], pool, 1)
            with pytest.raises(BatchEvaluationError):
                evaluate_batch(lambda x: float("inf"), [np.zeros(1)], pool, 1)

    def test_pool_outlives_a_failed_batch(self):
        def fragile(x):
            if x[0] == 1.0:
                raise RuntimeError("boom")
            return float(x[0])

        points = [np.array([float(i)]) for i in range(4)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(BatchEvaluationError):
                evaluate_batch(fragile, points, pool, 2)
            assert evaluate_batch(fragile, points[2:], pool, 2) == [2.0, 3.0]


class TestBestSoFar:
    def test_single_record(self):
        obj = builtin("sphere")
        cfg = OptimizationConfig(n_init=4, n_iter=0, seed=0)
        result = run(obj.evaluate, unit_domain(), cfg)
        best = best_so_far(result.history[:1])
        assert best is result.history[0]

    def test_tie_breaks_to_earliest(self):
        from rbfcors.engine import EvaluationRecord

        def record(index, value):
            return EvaluationRecord(
                stage="initial",
                index=index,
                x_unit=np.zeros(2),
                x_original=np.zeros(2),
                value=value,
                f_raw=value,
                f_scaled=None,
                radius_used=None,
                fallback=False,
            )

        history = [record(0, 3.0), record(1, 1.0), record(2, 1.0)]
        assert best_so_far(history).index == 1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            best_so_far([])


class TestRun:
    def test_budget_exactness(self):
        cfg = OptimizationConfig(n_init=7, n_iter=5, seed=1)
        result = run(sphere_objective, unit_domain(), cfg)
        assert len(result.history) == 12
        indices = [rec.index for rec in result.history]
        assert indices == list(range(12))

    def test_zero_iterations_is_pure_design_evaluation(self):
        cfg = OptimizationConfig(n_init=6, n_iter=0, seed=2)
        result = run(sphere_objective, unit_domain(), cfg)
        assert len(result.history) == 6
        assert all(rec.stage == "initial" for rec in result.history)
        assert result.best_f == min(rec.f_raw for rec in result.history)

    def test_monotone_incumbent(self):
        cfg = OptimizationConfig(n_init=8, n_iter=8, seed=3)
        result = run(sphere_objective, unit_domain(), cfg)
        best = math.inf
        for k in range(1, len(result.history) + 1):
            current = best_so_far(result.history[:k]).f_raw
            assert current <= best + 1e-15
            best = current

    def test_points_stay_in_boxes(self):
        domain = BoundedDomain([-3.0, 5.0], [1.0, 9.0])

        def shifted(x):
            return float(np.sum((np.asarray(x) - np.array([-1.0, 7.0])) ** 2))

        cfg = OptimizationConfig(n_init=8, n_iter=6, seed=4)
        result = run(shifted, domain, cfg)
        for rec in result.history:
            assert np.all(rec.x_unit >= 0.0) and np.all(rec.x_unit <= 1.0)
            assert np.all(rec.x_original >= domain.lower - 1e-12)
            assert np.all(rec.x_original <= domain.upper + 1e-12)
        # Optimum of the shifted sphere is at (-1, 7).
        assert np.linalg.norm(result.best_x - np.array([-1.0, 7.0])) < 0.3

    def test_scaled_values_match_rescaler(self):
        cfg = OptimizationConfig(n_init=8, n_iter=4, seed=5)
        result = run(sphere_objective, unit_domain(), cfg)
        for rec in result.history:
            assert rec.f_scaled == result.rescaler.rescale(rec.f_raw)

    def test_recorded_radii_match_closed_forms(self):
        cfg = OptimizationConfig(
            n_init=10, n_iter=6, initial_density=0.6, decay_exponent=2.0, seed=6
        )
        result = run(sphere_objective, unit_domain(), cfg)
        subsequent = result.history[10:]
        assert len(subsequent) == 6
        ball = math.pi  # unit-ball volume in two dimensions
        for i, rec in enumerate(subsequent, start=1):
            expected_density = 0.6 * ((6 - i) / 5) ** 2.0
            n_points = 10 + i - 1
            expected_radius = (expected_density / (n_points * ball)) ** 0.5
            assert rec.radius_used == pytest.approx(expected_radius, abs=1e-12)

    def test_history_identical_across_worker_counts(self):
        def slow_sphere(x):
            time.sleep(0.001)
            return sphere_objective(x)

        histories = []
        for workers in (1, 4):
            cfg = OptimizationConfig(
                n_init=8, n_iter=6, seed=7, workers=workers, batch_size=3
            )
            histories.append(run(slow_sphere, unit_domain(), cfg).history)
        for a, b in zip(*histories):
            assert a.stage == b.stage and a.index == b.index
            np.testing.assert_array_equal(a.x_unit, b.x_unit)
            assert a.f_raw == b.f_raw and a.f_scaled == b.f_scaled
            assert a.radius_used == b.radius_used and a.fallback == b.fallback

    def test_one_pool_serves_the_whole_run(self):
        threads = set()

        def recorded(x):
            threads.add(threading.current_thread().name)
            return sphere_objective(x)

        cfg = OptimizationConfig(n_init=8, n_iter=6, batch_size=2, workers=2, seed=7)
        run(recorded, unit_domain(), cfg)
        # Each pool names its threads afresh, so a pool per batch shows up
        # as more names than workers.
        assert 1 <= len(threads) <= cfg.workers
        assert threading.main_thread().name not in threads

    def test_repeat_run_reproduces_history(self):
        cfg = OptimizationConfig(n_init=8, n_iter=5, seed=8)
        first = run(sphere_objective, unit_domain(), cfg)
        second = run(sphere_objective, unit_domain(), cfg)
        for a, b in zip(first.history, second.history):
            np.testing.assert_array_equal(a.x_unit, b.x_unit)
            assert a.f_raw == b.f_raw

    def test_batch_size_defaults_to_workers(self):
        cfg = OptimizationConfig(n_init=6, n_iter=4, workers=3)
        assert cfg.effective_batch() == 3
        cfg = OptimizationConfig(n_init=6, n_iter=4, workers=3, batch_size=1)
        assert cfg.effective_batch() == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_init"):
            OptimizationConfig(n_init=3, n_iter=2).validate(2)
        with pytest.raises(ValueError, match="workers"):
            OptimizationConfig(n_init=5, n_iter=2, workers=0).validate(2)
        with pytest.raises(ValueError, match="n_iter"):
            OptimizationConfig(n_init=5, n_iter=-1).validate(2)
        with pytest.raises(ValueError, match="cloud_size"):
            OptimizationConfig(n_init=5, n_iter=2, cloud_size=99)

    def test_best_fraction_must_keep_two_cloud_points(self):
        # ceil(100 * 0.005) = 1 point has no covariance, so every iteration
        # would fall back to the identity scaling.
        with pytest.raises(ValueError, match=r"^best_fraction must be large enough to keep 2 "):
            OptimizationConfig(n_init=6, n_iter=2, cloud_size=100, best_fraction=0.005)
        OptimizationConfig(n_init=6, n_iter=2, cloud_size=100, best_fraction=0.015)

    @pytest.mark.parametrize("maximize", [False, True], ids=["minimize", "maximize"])
    def test_negative_values_spend_the_full_budget(self, maximize):
        def either_sign(x):
            return sphere_objective(x) - 0.25

        cfg = OptimizationConfig(n_init=6, n_iter=5, seed=9, maximize=maximize)
        result = run(either_sign, unit_domain(), cfg)
        assert [rec.index for rec in result.history] == list(range(11))
        values = [rec.value for rec in result.history]
        assert min(values) < 0.0 < max(values)
        sign = -1.0 if maximize else 1.0
        assert all(rec.f_raw == sign * rec.value for rec in result.history)
        assert result.rescaler.anchor == min(rec.f_raw for rec in result.history[:6]) < 0.0
        best = (max if maximize else min)(values)
        assert result.best_f == best == either_sign(result.best_x)

    def test_initial_design_failure_keeps_returned_evaluations(self):
        lock = threading.Lock()
        calls = 0
        returned = []

        def fails_on_fourth_call(x):
            nonlocal calls
            with lock:
                calls += 1
                call = calls
            if call == 4:
                raise RuntimeError("boom")
            time.sleep(0.01)
            with lock:
                returned.append(tuple(x))
            return sphere_objective(x)

        cfg = OptimizationConfig(n_init=8, n_iter=2, seed=14, workers=2)
        with pytest.raises(ObjectiveError, match="boom") as excinfo:
            run(fails_on_fourth_call, unit_domain(), cfg)
        history = excinfo.value.history
        assert len(history) >= 3
        assert sorted(tuple(rec.x_original) for rec in history) == sorted(returned)
        design_only = OptimizationConfig(n_init=8, n_iter=0, seed=14)
        design = run(sphere_objective, unit_domain(), design_only).history
        for rec in history:
            np.testing.assert_array_equal(rec.x_unit, design[rec.index].x_unit)
            assert rec.f_raw == design[rec.index].f_raw

    def test_failure_keeps_rest_of_surrogate_batch(self):
        cfg = OptimizationConfig(n_init=6, n_iter=3, seed=15, batch_size=3, workers=3)
        clean = run(sphere_objective, unit_domain(), cfg).history
        failing, last = clean[7].x_original, clean[8].x_original
        last_started = threading.Event()

        def fails_at_batch_position_one(x):
            if np.array_equal(x, last):
                last_started.set()
            elif np.array_equal(x, failing):
                assert last_started.wait(10), "position 2 never started"
                raise RuntimeError("boom")
            return sphere_objective(x)

        with pytest.raises(ObjectiveError, match="boom") as excinfo:
            run(fails_at_batch_position_one, unit_domain(), cfg)
        history = excinfo.value.history
        assert [rec.index for rec in history] == [0, 1, 2, 3, 4, 5, 6, 8]
        for rec in history:
            assert rec.stage == clean[rec.index].stage
            np.testing.assert_array_equal(rec.x_unit, clean[rec.index].x_unit)
            assert rec.f_scaled == clean[rec.index].f_scaled

    def test_non_finite_objective_aborts(self):
        calls = {"n": 0}

        def eventually_nan(x):
            calls["n"] += 1
            return float("nan") if calls["n"] > 4 else 1.0

        cfg = OptimizationConfig(n_init=6, n_iter=2, seed=10)
        with pytest.raises(ObjectiveError) as excinfo:
            run(eventually_nan, unit_domain(), cfg)
        assert len(excinfo.value.history) <= 6

    def test_maximize_reports_unwrapped_best(self):
        obj = builtin("multimodal")
        domain = obj.domain
        cfg = OptimizationConfig(n_init=12, n_iter=8, seed=11, maximize=True)
        result = run(obj.evaluate, domain, cfg)
        # best_f must equal the raw objective at the returned point.
        assert result.best_f == pytest.approx(
            float(multimodal(result.best_x[0], result.best_x[1])), abs=1e-9
        )
        # The true maximum 12 - (value at x=y=1 region); compare to a grid scan.
        axis = np.linspace(0.0, 1.0, 101)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        true_max = float(np.max(multimodal(gx, gy)))
        assert result.best_f > 0.8 * true_max

    def test_maximize_reports_returned_value(self):
        # best_f is the returned value, not the negation the engine minimized.
        def tiny(x):
            return 1e-17 * (1.0 + float(x[0]))

        cfg = OptimizationConfig(n_init=6, n_iter=2, seed=16, maximize=True)
        result = run(tiny, unit_domain(), cfg)
        assert result.best_f == tiny(result.best_x)

    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_final_evaluation_repeats_no_point(self, seed, batch_size):
        # The last iteration has radius 0; without the separation floor it
        # re-evaluated the corner minimum found at the first iteration.
        cfg = OptimizationConfig(
            n_init=6, n_iter=80, decay_exponent=4.0, seed=seed, batch_size=batch_size
        )
        result = run(lambda x: float(np.sum(x)), unit_domain(), cfg)
        points = np.array([rec.x_unit for rec in result.history])
        assert pdist(points).min() >= rbf.MIN_CENTER_SEPARATION

    def test_radius_used_only_on_subsequent_stage(self):
        cfg = OptimizationConfig(n_init=6, n_iter=3, seed=12)
        result = run(sphere_objective, unit_domain(), cfg)
        for rec in result.history:
            if rec.stage == "initial":
                assert rec.radius_used is None
            else:
                assert rec.radius_used is not None and rec.radius_used >= 0.0

    def test_without_space_rescaling(self):
        cfg = OptimizationConfig(n_init=8, n_iter=4, seed=13, use_space_rescaling=False)
        result = run(sphere_objective, unit_domain(), cfg)
        assert len(result.history) == 12
        assert result.best_f <= min(rec.f_raw for rec in result.history[:8])


class TestLookahead:
    """The next iteration's cloud and candidates are drawn while a batch
    evaluates; failures keep the order they had without the overlap."""

    def test_next_cloud_and_candidate_scan_finish_within_the_batch_before(self, monkeypatch):
        cfg = OptimizationConfig(n_init=6, n_iter=6, batch_size=2, workers=2, seed=18)
        lock = threading.Lock()
        calls = []

        def slow_sphere(x):
            start = time.monotonic()
            time.sleep(0.03)
            with lock:
                calls.append((start, time.monotonic()))
            return sphere_objective(x)

        finished = {"cloud": [], "uniform": []}
        cubic_kernel, min_center_distance = rbf.cubic_kernel, cors._min_center_distance

        def timed_kernel(points, centers, buf=None):
            kernel = cubic_kernel(points, centers, buf)
            if len(points) == cfg.cloud_size:
                finished["cloud"].append(time.monotonic())
            return kernel

        def timed_distance(points, centers):
            distances = min_center_distance(points, centers)
            if len(points) == 2 * cfg.proposal.uniform_per_dim and len(centers) >= cfg.n_init:
                finished["uniform"].append(time.monotonic())
            return distances

        monkeypatch.setattr(rbf, "cubic_kernel", timed_kernel)
        monkeypatch.setattr(cors, "_min_center_distance", timed_distance)
        run(slow_sphere, unit_domain(), cfg)

        calls.sort()
        # The design, then the first two surrogate batches; the last batch
        # has no iteration left to look ahead for.
        batches = [calls[:6], calls[6:8], calls[8:10]]
        assert len(finished["cloud"]) == 3 and len(finished["uniform"]) == 6
        for i, batch in enumerate(batches):
            start, end = batch[0][0], max(call_end for _, call_end in batch)
            assert start < finished["cloud"][i] < end
            assert all(start < t < end for t in finished["uniform"][2 * i : 2 * i + 2])

    def test_look_ahead_failure_is_a_driver_error_after_the_batch(self, monkeypatch):
        cfg = OptimizationConfig(n_init=6, n_iter=6, batch_size=2, workers=2, seed=19)
        look_ahead, fit = engine._look_ahead, engine.fit

        def fails_for_iteration_3(rng, config, schedule, centers, iteration, buf):
            if iteration == 3:
                raise RuntimeError("boom")
            return look_ahead(rng, config, schedule, centers, iteration, buf)

        monkeypatch.setattr(engine, "_look_ahead", fails_for_iteration_3)
        with pytest.raises(DriverError) as excinfo:
            run(sphere_objective, unit_domain(), cfg)
        assert str(excinfo.value) == "driver failed at iteration 3: boom"
        assert len(excinfo.value.history) == 6 + 1 * 2

        # A fit failing at the same iteration reads the same.
        monkeypatch.setattr(engine, "_look_ahead", look_ahead)
        fits = []

        def second_fit_fails(points, values, scaling=None):
            fits.append(len(points))
            if len(points) == 8:
                raise RuntimeError("boom")
            return fit(points, values, scaling)

        monkeypatch.setattr(engine, "fit", second_fit_fails)
        with pytest.raises(DriverError) as fit_failure:
            run(sphere_objective, unit_domain(), cfg)
        assert str(fit_failure.value) == str(excinfo.value)
        assert len(fit_failure.value.history) == len(excinfo.value.history)

    def test_objective_failure_during_look_ahead_wins(self, monkeypatch):
        cfg = OptimizationConfig(n_init=6, n_iter=6, batch_size=2, workers=2, seed=20)
        clean = run(sphere_objective, unit_domain(), cfg).history
        # Evaluations 8 and 9 are the batch of iteration 3, evaluated while
        # iteration 5 is looked ahead for.
        slow, failing = clean[8].x_original, clean[9].x_original
        look_ahead = engine._look_ahead
        looked_ahead = []

        def slow_look_ahead(rng, config, schedule, centers, iteration, buf):
            looked_ahead.append(iteration)
            result = look_ahead(rng, config, schedule, centers, iteration, buf)
            time.sleep(0.05)
            return result

        def fails_in_second_batch(x):
            if np.array_equal(x, failing):
                time.sleep(0.01)
                raise RuntimeError("boom")
            if np.array_equal(x, slow):
                time.sleep(0.03)
            return sphere_objective(x)

        monkeypatch.setattr(engine, "_look_ahead", slow_look_ahead)
        with pytest.raises(ObjectiveError, match="boom") as excinfo:
            run(fails_in_second_batch, unit_domain(), cfg)
        assert looked_ahead == [1, 3, 5]
        history = excinfo.value.history
        assert [rec.index for rec in history] == list(range(9))
        for rec in history:
            np.testing.assert_array_equal(rec.x_unit, clean[rec.index].x_unit)
            assert rec.f_scaled == clean[rec.index].f_scaled

    def test_interrupt_in_look_ahead_starts_no_further_call(self, monkeypatch):
        started, finished = [], []

        def interrupted(*args):
            os.kill(os.getpid(), signal.SIGINT)
            time.sleep(1.0)

        def slow_sphere(x):
            started.append(tuple(x))
            time.sleep(0.1)
            finished.append(tuple(x))
            return sphere_objective(x)

        monkeypatch.setattr(engine, "_look_ahead", interrupted)
        cfg = OptimizationConfig(n_init=6, n_iter=2, workers=1, seed=21)
        with pytest.raises(KeyboardInterrupt):
            run(slow_sphere, unit_domain(), cfg)
        assert len(started) == 1
        assert finished == started


class TestComposition:
    def test_public_pieces_replay_the_first_two_surrogate_batches(self):
        # The run's random stream, drawn by hand: the design's swaps, then per
        # batch the rescaling cloud and the batch's candidates, all drawn
        # before the values of the batch in flight are known.
        from rbfcors import (
            RadiusSchedule,
            compute_space_scaling,
            diagonal_lh,
            draw_batch,
            fit,
            fit_rescaler,
            improve_lh,
            propose_batch,
            refit_with_scaling,
            scaling_cloud,
        )

        cfg = OptimizationConfig(n_init=6, n_iter=6, batch_size=2, workers=2, seed=22)
        domain = BoundedDomain([-1.0, 0.0], [1.0, 4.0])
        history = run(sphere_objective, domain, cfg).history

        rng = np.random.default_rng(cfg.seed)
        centers = improve_lh(diagonal_lh(cfg.n_init, 2), cfg.lh_attempts, rng).unit_points()
        values = [sphere_objective(domain.from_unit(x)) for x in centers]
        rescaler = fit_rescaler(values, cfg.keep_fraction)
        schedule = RadiusSchedule(cfg.initial_density, cfg.decay_exponent, cfg.n_iter, 2)
        for iteration in (1, 3):
            cloud = scaling_cloud(centers, np.eye(2), rng, cfg.cloud_size)
            draws = draw_batch(centers, schedule, iteration, 2, rng, cfg.proposal)
            scaled = [rescaler.rescale(v) for v in values]
            model = fit(centers, scaled)
            scaling = compute_space_scaling(model, cloud, cfg.best_fraction)
            model = refit_with_scaling(centers, scaled, scaling)
            proposals = propose_batch(model, draws, centers[int(np.argmin(values))])

            units = np.array([p.x for p in proposals])
            expected = [rec.x_unit for rec in history[len(centers) : len(centers) + 2]]
            np.testing.assert_array_equal(units, expected)
            centers = np.vstack([centers, units])
            values += [sphere_objective(domain.from_unit(x)) for x in units]


def multimodal_history(**settings) -> str:
    """The history CSV of a multimodal run with batch 2 on 2 workers."""
    objective = builtin("multimodal")
    domain = objective.domain
    cfg = OptimizationConfig(batch_size=2, workers=2, **settings)
    return history_to_csv(run(objective.evaluate, domain, cfg).history, domain.dim)


class TestWorkspace:
    """Each run builds its large kernels in one buffer of its own; histories
    depend neither on that nor on the OpenBLAS thread count, past the 60
    centers the history pins stay below."""

    def test_every_large_kernel_comes_from_the_runs_buffer(self, monkeypatch):
        workspaces, kernels = [], []
        kernel_workspace, cubic_kernel = engine.kernel_workspace, rbf.cubic_kernel

        def recorded_workspace(rows, centers):
            buf = kernel_workspace(rows, centers)
            workspaces.append(buf)
            return buf

        def recorded_kernel(points, centers, buf=None):
            kernel = cubic_kernel(points, centers, buf)
            if kernel.nbytes >= 2**20:
                shared = [np.shares_memory(kernel, w) for w in workspaces]
                kernels.append((len(points), len(centers), shared))
            return kernel

        monkeypatch.setattr(engine, "kernel_workspace", recorded_workspace)
        monkeypatch.setattr(rbf, "cubic_kernel", recorded_kernel)
        cfg = OptimizationConfig(n_init=6, n_iter=40, batch_size=2, seed=23)
        run(sphere_objective, unit_domain(), cfg)

        assert len(workspaces) == 1
        rows = max(cfg.cloud_size, cfg.proposal.kernel_rows(2))
        assert workspaces[0].size == (rows + 256) * (cfg.n_init + cfg.n_iter)
        assert all(shared == [True] for _, _, shared in kernels)
        assert {m for m, _, _ in kernels} >= {cfg.cloud_size}
        assert any(m < cfg.cloud_size for m, _, _ in kernels)
        # The run drops its buffer when it returns.
        workspace = weakref.ref(workspaces.pop())
        gc.collect()
        assert workspace() is None

    def test_workspace_holds_the_largest_pattern_search_poll(self):
        # Two uniform candidates and no local ones: a poll's trials, up to 2d
        # per step level plus the rest of a sweep, outnumber the candidates.
        settings = cors.ProposalSettings(uniform_per_dim=1, local_candidates=0)
        assert settings.kernel_rows(2) == 2 * 2 * (len(settings._step_levels()) + 1)
        cfg = OptimizationConfig(
            n_init=6, n_iter=10, seed=24, use_space_rescaling=False, proposal=settings
        )
        assert len(run(sphere_objective, unit_domain(), cfg).history) == 16

    @pytest.mark.parametrize("n_iter", [70, 200])
    def test_history_independent_of_blas_thread_count(self, n_iter):
        # 76 and 206 centers; the surface values of the cloud and candidate
        # kernels come from one threaded matrix-vector product each.
        settings = dict(n_init=6, n_iter=n_iter, seed=0)
        default = multimodal_history(**settings)
        with rbf._one_blas_thread.held():
            single = multimodal_history(**settings)
        assert single == default

    def test_concurrent_runs_reproduce_their_serial_histories(self):
        seeds = (1, 2)
        serial = {seed: multimodal_history(n_init=6, n_iter=60, seed=seed) for seed in seeds}
        barrier = threading.Barrier(len(seeds))
        concurrent = {}

        def one_run(seed):
            barrier.wait()
            concurrent[seed] = multimodal_history(n_init=6, n_iter=60, seed=seed)

        threads = [threading.Thread(target=one_run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert concurrent == serial
