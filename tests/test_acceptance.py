"""Acceptance suite: eight go/no-go checks at their stated tolerances.

Each test prints a single PASS/FAIL line (visible in the pytest summary via
the -rA report option configured for this project) and then asserts, so a
failed criterion is both human-readable and red.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from rbfcors.benchmarks import builtin, grid_oracle, valley
from rbfcors.cli import main
from rbfcors.cors import RadiusSchedule, exclusion_radius
from rbfcors.engine import OptimizationConfig, run
from rbfcors.lhs import diagonal_lh, improve_lh, spread
from rbfcors.rbf import compute_space_scaling, fit, refit_with_scaling, scaling_cloud
from rbfcors.scaling import BoundedDomain


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def test_acceptance_1_latin_hypercube_improvement():
    """n=20, d=2, 1000 swaps, 10 seeds: spread strictly improves every time
    and the one-point-per-axis-plane property survives every single swap."""
    base = diagonal_lh(20, 2)
    base_spread = spread(base.unit_points())

    start = time.perf_counter()
    designs = [
        improve_lh(base, 1000, np.random.default_rng(seed)) for seed in range(10)
    ]
    elapsed = time.perf_counter() - start

    improved = sum(spread(d.unit_points()) < base_spread for d in designs)

    property_held = True
    replay_matched = True
    for seed, final in zip(range(10), designs):
        rng = np.random.default_rng(seed)
        stepped = base
        for _ in range(1000):
            stepped = improve_lh(stepped, 1, rng)
            if any(sorted(row) != list(range(20)) for row in stepped.perms):
                property_held = False
                break
        # The single-step replay consumes the same random stream, so it must
        # reproduce the timed run exactly; this pins down that the property
        # was checked after precisely the attempts that produced the design.
        if not np.array_equal(stepped.perms, final.perms):
            replay_matched = False

    ok = improved == 10 and property_held and replay_matched and elapsed < 1.0
    report(
        1,
        "Latin hypercube improvement",
        ok,
        f"{improved}/10 seeds improved on the diagonal spread "
        f"{base_spread:.2f}, per-swap property "
        f"{'held' if property_held and replay_matched else 'violated'}, "
        f"{elapsed:.3f} s for the 10 designs (budget 1 s)",
    )


def test_acceptance_2_rbf_interpolation():
    """50 random design instances over d in {1,2,3,5}, n in d+2..60: centers
    are interpolated to 1e-6, the weight side conditions hold to 1e-8, and
    linear data is reproduced exactly to 1e-8.

    Instances are Latin-hypercube designs: the separated point sets the model
    is actually fit to in operation.  (Initial designs are Latin hypercubes
    and later centers are kept apart by the exclusion radius.)  Unseparated
    uniform clouds can place two centers ~1e-5 apart, which forces weights of
    order 1e10; at that magnitude the float64 representation of the weights
    alone breaks the 1e-8 side conditions, independent of any solver.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_mass = 0.0
    worst_moment = 0.0
    for _ in range(50):
        dim = int(rng.choice([1, 2, 3, 5]))
        n = int(rng.integers(dim + 2, 61))
        points = improve_lh(diagonal_lh(n, dim), 200, rng).unit_points()
        values = rng.normal(size=n)
        model = fit(points, values)
        worst_residual = max(
            worst_residual, float(np.abs(model.evaluate_many(points) - values).max())
        )
        worst_mass = max(worst_mass, abs(float(model.weights.sum())))
        worst_moment = max(worst_moment, float(np.abs(model.weights @ points).max()))

    coeffs = np.array([1.5, -2.0, 0.5])
    points = rng.random((20, 3))
    linear_model = fit(points, points @ coeffs + 4.0)
    fresh = rng.random((100, 3))
    linear_error = float(
        np.abs(linear_model.evaluate_many(fresh) - (fresh @ coeffs + 4.0)).max()
    )
    elapsed = time.perf_counter() - start

    ok = (
        worst_residual <= 1e-6
        and worst_mass <= 1e-8
        and worst_moment <= 1e-8
        and linear_error <= 1e-8
        and elapsed < 10.0
    )
    report(
        2,
        "RBF interpolation",
        ok,
        f"max center residual {worst_residual:.2e} (<=1e-6), side conditions "
        f"{worst_mass:.2e}/{worst_moment:.2e} (<=1e-8), linear reproduction "
        f"{linear_error:.2e} (<=1e-8), {elapsed:.2f} s (budget 10 s)",
    )


def test_acceptance_3_radius_schedule_analytics():
    """Spot values of the density/radius closed forms to 1e-12 and strict
    radius decrease over a full schedule."""
    spot_radius = exclusion_radius(math.pi, 4, 2)
    sched = RadiusSchedule(
        initial_density=0.75, decay_exponent=1.0, total_iters=10, dim=2
    )
    first_density = sched.density(1)
    last_density = sched.density(10)

    radii = [sched.radius(i, 20 + i - 1) for i in range(1, 11)]
    decreasing = all(a > b for a, b in zip(radii, radii[1:]))

    closed_form_ok = True
    for i, radius in enumerate(radii, start=1):
        density = 0.75 * (10 - i) / 9
        expected = (density / ((20 + i - 1) * math.pi)) ** 0.5
        if abs(radius - expected) > 1e-12:
            closed_form_ok = False

    ok = (
        abs(spot_radius - 0.5) <= 1e-12
        and abs(first_density - 0.75) <= 1e-12
        and abs(last_density) <= 1e-12
        and decreasing
        and closed_form_ok
    )
    report(
        3,
        "radius schedule analytics",
        ok,
        f"r(d=2, rho=pi, N=4)={spot_radius!r} (want 0.5), rho(1)={first_density!r}, "
        f"rho(m)={last_density!r}, radii strictly decreasing: {decreasing}, "
        f"closed forms to 1e-12: {closed_form_ok}",
    )


def test_acceptance_4_multimodal_minimum_located():
    """30-evaluation budget on the multimodal function finds the global
    minimizer (within 0.1) in at least 8 of 10 seeds."""
    start = time.perf_counter()
    objective = builtin("multimodal")
    domain = objective.domain
    oracle_x, _ = grid_oracle(objective, 1001)

    distances = []
    for seed in range(10):
        config = OptimizationConfig(n_init=20, n_iter=10, seed=seed)
        result = run(objective.evaluate, domain, config)
        assert len(result.history) == 30
        distances.append(float(np.linalg.norm(result.best_x - oracle_x)))
    elapsed = time.perf_counter() - start

    hits = sum(d <= 0.1 for d in distances)
    ok = hits >= 8 and elapsed < 30.0
    report(
        4,
        "multimodal minimum located",
        ok,
        f"{hits}/10 seeds within 0.1 of the oracle minimizer "
        f"{np.round(oracle_x, 4).tolist()}, max distance {max(distances):.4f}, "
        f"{elapsed:.1f} s (budget 30 s)",
    )


def test_acceptance_5_space_rescaling_improves_fit():
    """On 20-sample fits of the valley function, the covariance-rescaled
    surface has lower grid RMSE than the plain surface in >= 8/10 seeds."""
    start = time.perf_counter()
    axis = np.linspace(0.0, 1.0, 101)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    truth = np.asarray(valley(grid[:, 0], grid[:, 1]))

    wins = 0
    pairs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        design = improve_lh(diagonal_lh(20, 2), 1000, rng)
        points = design.unit_points()
        values = np.asarray(valley(points[:, 0], points[:, 1]))
        plain = fit(points, values)
        cloud = scaling_cloud(plain.centers, plain.scaling, rng, 10000)
        rescaled = refit_with_scaling(points, values, compute_space_scaling(plain, cloud, 0.05))
        rmse_plain = float(np.sqrt(np.mean((plain.evaluate_many(grid) - truth) ** 2)))
        rmse_rescaled = float(
            np.sqrt(np.mean((rescaled.evaluate_many(grid) - truth) ** 2))
        )
        pairs.append((rmse_plain, rmse_rescaled))
        wins += rmse_rescaled < rmse_plain
    elapsed = time.perf_counter() - start

    ok = wins >= 8 and elapsed < 30.0
    report(
        5,
        "space rescaling improves the fit",
        ok,
        f"rescaled fit beat the plain fit in {wins}/10 seeds (need >= 8), "
        f"mean RMSE {np.mean([p[0] for p in pairs]):.4f} -> "
        f"{np.mean([p[1] for p in pairs]):.4f}, {elapsed:.1f} s (budget 30 s)",
    )


def test_acceptance_6_parallel_speedup():
    """16 initial evaluations of a 100 ms objective: four workers finish in
    <= 0.8 s, one worker needs >= 1.6 s, speedup >= 2.5x, identical
    histories."""

    def sleepy(x) -> float:
        time.sleep(0.1)
        return float(np.sum(np.square(x)))

    domain = BoundedDomain(np.zeros(2), np.ones(2))
    timings = {}
    histories = {}
    for workers in (1, 4):
        config = OptimizationConfig(n_init=16, n_iter=0, seed=0, workers=workers)
        start = time.perf_counter()
        result = run(sleepy, domain, config)
        timings[workers] = time.perf_counter() - start
        histories[workers] = [(rec.index, rec.f_raw) for rec in result.history]

    speedup = timings[1] / timings[4]
    identical = histories[1] == histories[4]
    ok = timings[4] <= 0.8 and timings[1] >= 1.6 and speedup >= 2.5 and identical
    report(
        6,
        "parallel speedup",
        ok,
        f"serial {timings[1]:.2f} s (>=1.6), four workers {timings[4]:.2f} s "
        f"(<=0.8), speedup {speedup:.2f}x (>=2.5), identical results: {identical}",
    )


def test_acceptance_7_end_to_end_determinism(tmp_path):
    """Identical (config, seed) give byte-identical history CSVs across
    repeat runs and across workers in {1, 4}."""
    config = {
        "objective": "multimodal",
        "n_init": 12,
        "n_iter": 8,
        "seed": 11,
        "batch_size": 4,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    outputs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 4), ("d", 4)):
        out = tmp_path / f"history-{tag}.csv"
        code = main(
            ["run", "--config", str(config_path), "--workers", str(workers),
             "--out", str(out)]
        )
        assert code == 0
        outputs[tag] = out.read_bytes()

    repeat_identical = outputs["a"] == outputs["b"] and outputs["c"] == outputs["d"]
    across_workers = outputs["a"] == outputs["c"]
    ok = repeat_identical and across_workers
    report(
        7,
        "end-to-end determinism",
        ok,
        f"repeat runs byte-identical: {repeat_identical}, workers 1 vs 4 "
        f"byte-identical: {across_workers} ({len(outputs['a'])} bytes)",
    )


def test_acceptance_8_maximize_by_negation():
    """On the multimodal function, run(f, maximize=True) and run(-f) give the
    same points, f_raw, f_scaled, radii and fallbacks byte for byte, and
    best_f is f at best_x."""
    obj = builtin("multimodal")
    domain = obj.domain
    settings = dict(n_init=10, n_iter=20, batch_size=2, seed=11)
    maximized = run(obj.evaluate, domain, OptimizationConfig(**settings, maximize=True))
    negated = run(lambda x: -obj.evaluate(x), domain, OptimizationConfig(**settings))

    def as_bytes(result):
        return [
            (
                rec.x_unit.tobytes(),
                rec.f_raw.hex(),
                rec.f_scaled.hex(),
                None if rec.radius_used is None else rec.radius_used.hex(),
                rec.fallback,
            )
            for rec in result.history
        ]

    same = as_bytes(maximized) == as_bytes(negated)
    best_is_f = maximized.best_f == obj.evaluate(maximized.best_x) == -negated.best_f
    ok = same and best_is_f
    report(
        8,
        "maximize by negation",
        ok,
        f"maximize=True vs minimizing -f: histories byte-identical: {same} "
        f"({len(maximized.history)} records), best_f == f(best_x): {best_is_f} "
        f"(best_f {maximized.best_f:.6f})",
    )
