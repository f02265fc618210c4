"""Optimization driver: initial design, model refits, batched sampling.

The run alternates between fitting the response surface to everything
evaluated so far and proposing a batch of new points under the shrinking
exclusion-radius schedule.  Batches are evaluated concurrently, in one
thread pool that serves the whole run; all random draws happen serially in
the driver, so results depend only on the seed and the batch size, not on
worker count or completion order.  While a batch evaluates, the driver
already draws what the next iteration needs from the random stream and
computes the distances that need no objective value.
"""

from __future__ import annotations

import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from .cors import (
    CandidateDraw,
    Proposal,
    ProposalSettings,
    RadiusSchedule,
    check_settings,
    draw_batch,
    propose_batch,
)
from .lhs import diagonal_lh, improve_lh
from .rbf import (
    ScalingCloud,
    compute_space_scaling,
    fit,
    kernel_workspace,
    refit_with_scaling,
    scaling_cloud,
)
from .scaling import BoundedDomain, ObjectiveRescaler, fit_rescaler

log = logging.getLogger(__name__)


class BatchEvaluationError(RuntimeError):
    """An objective call in a batch raised; carries finished results.

    completed maps batch positions to objective values for the calls that
    finished before the failure was observed.
    """

    def __init__(self, message: str, completed: dict[int, float]):
        super().__init__(message)
        self.completed = completed


class RunError(RuntimeError):
    """A run stopped early; carries the partial history."""

    def __init__(self, message: str, history: list[EvaluationRecord]):
        super().__init__(message)
        self.history = history


class ObjectiveError(RunError):
    """The objective failed or returned an unusable value."""


class DriverError(RunError):
    """Fitting, rescaling or proposing failed after the initial design."""


class RunInterrupted(KeyboardInterrupt):
    """Ctrl-C stopped a run; carries the partial history as RunError does.

    It stays a KeyboardInterrupt, so code that stops on Ctrl-C stops on it.
    """

    def __init__(self, history: list[EvaluationRecord]):
        super().__init__(f"interrupted after {len(history)} evaluations")
        self.history = history


@dataclass(frozen=True)
class OptimizationConfig:
    """Run settings, range-checked on construction.

    batch_size controls how many proposals are drawn per model refit and
    therefore the sequence of sampled points; workers only controls how many
    objective calls run concurrently.  The default batch_size (None) follows
    workers, so a parallel run uses its full width, but pinning batch_size
    makes results reproducible across machines with different core counts.
    """

    n_init: int
    n_iter: int
    initial_density: float = 0.75
    decay_exponent: float = 1.0
    keep_fraction: float = 0.75
    lh_attempts: int = 1000
    cloud_size: int = 10000
    best_fraction: float = 0.05
    workers: int = 1
    batch_size: int | None = None
    seed: int | None = None
    use_space_rescaling: bool = True
    maximize: bool = False
    proposal: ProposalSettings = field(default_factory=ProposalSettings)

    def __post_init__(self):
        check_settings(
            self,
            ("n_iter", self.n_iter >= 0, "non-negative"),
            ("initial_density", 0.0 < self.initial_density <= 1.0, "in (0, 1]"),
            ("decay_exponent", self.decay_exponent > 0.0, "positive"),
            ("keep_fraction", 0.0 < self.keep_fraction <= 1.0, "in (0, 1]"),
            ("lh_attempts", self.lh_attempts >= 0, "non-negative"),
            ("cloud_size", self.cloud_size >= 100, "at least 100"),
            ("best_fraction", 0.0 < self.best_fraction <= 0.5, "in (0, 0.5]"),
            (
                "best_fraction",
                math.ceil(self.cloud_size * self.best_fraction) >= 2,
                f"large enough to keep 2 of the {self.cloud_size} cloud points",
            ),
            ("workers", self.workers >= 1, "at least 1"),
            ("batch_size", self.batch_size is None or self.batch_size >= 1, "at least 1"),
            ("seed", self.seed is None or self.seed >= 0, "non-negative"),
        )

    def validate(self, dim: int) -> None:
        """Check the one rule that depends on the problem dimension."""
        if self.n_init < dim + 2:
            raise ValueError(
                f"n_init must be at least dim + 2 = {dim + 2} to fit the "
                f"surface, got {self.n_init}"
            )

    def effective_batch(self) -> int:
        return self.workers if self.batch_size is None else self.batch_size


@dataclass(frozen=True)
class EvaluationRecord:
    """One objective evaluation.

    value is what the objective returned; f_raw is the objective as
    minimized internally, which is -value when maximizing; f_scaled is its
    rescaled value used for fitting.  radius_used is None for initial-design
    points.
    """

    index: int
    x_unit: np.ndarray
    x_original: np.ndarray
    value: float
    f_raw: float
    f_scaled: float | None
    radius_used: float | None
    fallback: bool

    @property
    def stage(self) -> str:
        """The design stage, read from radius_used: "initial" for the
        space-filling design, "subsequent" afterwards."""
        return "initial" if self.radius_used is None else "subsequent"


@dataclass(frozen=True)
class OptimizationResult:
    """best_f is the value the objective returned at best_x."""

    best_x: np.ndarray
    best_f: float
    history: list[EvaluationRecord]
    rescaler: ObjectiveRescaler


def evaluate_batch(
    objective, points, pool: ThreadPoolExecutor, workers: int, meanwhile=None
) -> list[float]:
    """Evaluate the objective at each point in the thread pool, whose size
    workers gives, so up to `workers` calls run at a time.

    Results come back in input order.  The first call that raises or returns
    a non-finite value, or any exception reaching the caller while it waits,
    stops every call not yet started, and calls already running finish
    before this returns.  A failed call raises BatchEvaluationError, which
    reports the results of the calls that finished.  An exception reaching
    the caller, such as Ctrl-C's KeyboardInterrupt, is re-raised as it is,
    and the results of the finished calls are dropped.

    meanwhile, if given, is called with no arguments on the calling thread
    once the first min(workers, len(points)) calls have entered the
    objective, so it delays no call's start, and the batch is waited for
    after it returns.  It is skipped if a call has failed by then.  An
    exception it raises, Ctrl-C included, counts as one reaching the caller
    while it waits.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    stop = threading.Event()
    # One release per call entering the objective; a failure releases enough
    # for the caller's every acquire, so it never waits on calls that stopped.
    entered = threading.Semaphore(0)

    def call(point) -> float | None:
        if stop.is_set():
            return None
        entered.release()
        try:
            value = float(objective(point))
            if not math.isfinite(value):
                raise ValueError(f"objective returned non-finite value {value!r} at {point}")
            return value
        except BaseException:
            stop.set()
            entered.release(workers)
            raise

    futures = []
    try:
        for point in points:
            futures.append(pool.submit(call, point))
        if meanwhile is not None and futures:
            for _ in range(min(workers, len(points))):
                entered.acquire()
            if not stop.is_set():
                meanwhile()
        wait(futures)
    except BaseException:
        stop.set()
        wait(futures)
        raise
    errors = {i: f.exception() for i, f in enumerate(futures) if f.exception() is not None}
    if errors:
        index = min(errors)
        completed = {
            i: f.result()
            for i, f in enumerate(futures)
            if i not in errors and f.result() is not None
        }
        message = f"objective failed at point {index}: {errors[index]}"
        raise BatchEvaluationError(message, completed)
    return [f.result() for f in futures]


def best_so_far(history: list[EvaluationRecord]) -> EvaluationRecord:
    """Record with the lowest f_raw; ties go to the earliest evaluation."""
    if not history:
        raise ValueError("history is empty")
    return min(history, key=lambda rec: (rec.f_raw, rec.index))


class _Lookahead:
    """The next iteration's position-only work, done while a batch evaluates.

    The next iteration's centers are the points evaluated so far plus the
    batch in flight, whose positions are known before its values.  Its
    random draws come in a fixed order, the rescaling cloud and then each
    proposal's candidates, and nothing else draws in between.  So the cloud
    with its kernel matrix, and each proposal's candidates with their
    distances to those centers, can be drawn while the objective runs, with
    the same results as drawn after it.  A failure is kept in error, to be
    raised once the batch is recorded.  The cloud's kernel is built in the
    run's workspace buf, which no proposal uses again until the cloud is
    ranked.
    """

    def __init__(self, rng, config, schedule, centers: np.ndarray, iteration: int, buf):
        self._work = (rng, config, schedule, centers, iteration, buf)
        self.cloud: ScalingCloud | None = None
        self.draws: list[CandidateDraw] | None = None
        self.error: Exception | None = None

    def __call__(self) -> None:
        try:
            self.cloud, self.draws = _look_ahead(*self._work)
        except Exception as exc:
            self.error = exc


def _look_ahead(
    rng, config: OptimizationConfig, schedule: RadiusSchedule, centers, iteration: int, buf
):
    """(cloud, draws) of the batch starting at iteration, for these centers;
    the cloud's kernel is built in buf."""
    cloud = None
    if config.use_space_rescaling:
        cloud = scaling_cloud(centers, rng, config.cloud_size, buf)
    k = min(config.effective_batch(), config.n_iter - iteration + 1)
    return cloud, draw_batch(centers, schedule, iteration, k, rng, config.proposal)


def _evaluate_into(
    history: list[EvaluationRecord],
    objective,
    domain: BoundedDomain,
    config: OptimizationConfig,
    pool: ThreadPoolExecutor,
    units,
    proposals: list[Proposal] | None = None,
    rescaler: ObjectiveRescaler | None = None,
    meanwhile=None,
) -> None:
    """Evaluate unit points as one batch and append a record per value.

    Without proposals the points are the initial design, recorded unscaled
    and without a radius.  Each record maps its unit point afresh, so the
    objective may write into the point it was given.  f_raw is the returned
    value, negated when maximizing.  pool and meanwhile are handed to
    evaluate_batch.  On failure, every call in the batch that returned a
    finite value is recorded at its true index before ObjectiveError
    carries the history out.
    """
    points = [domain.from_unit(x) for x in units]
    failure: BatchEvaluationError | None = None
    try:
        values = evaluate_batch(objective, points, pool, config.workers, meanwhile)
        values = dict(enumerate(values))
    except BatchEvaluationError as err:
        failure, values = err, err.completed
    start = len(history)
    for pos, value in sorted(values.items()):
        prop = None if proposals is None else proposals[pos]
        f_raw = -value if config.maximize else value
        history.append(
            EvaluationRecord(
                index=start + pos,
                x_unit=units[pos].copy(),
                x_original=domain.from_unit(units[pos]),
                value=value,
                f_raw=f_raw,
                f_scaled=None if rescaler is None else rescaler.rescale(f_raw),
                radius_used=None if prop is None else prop.radius,
                fallback=False if prop is None else prop.fallback,
            )
        )
    if failure is not None:
        raise ObjectiveError(str(failure), history) from failure


def run(objective, domain: BoundedDomain, config: OptimizationConfig) -> OptimizationResult:
    """Run the full optimization and return the best point found.

    The objective receives points in original (bounded) coordinates and must
    return a finite scalar; config.maximize maximizes it by minimizing its
    negation.  Exactly n_init + n_iter evaluations are spent, in one pool of
    config.workers threads that lives as long as the run; each batch logs one
    INFO progress record to rbfcors.engine, whose best= is the returned value
    at the best point so far.
    Every kernel of the cloud, the candidates and the pattern-search polls is
    built in one workspace, allocated when the run starts and sized for the
    largest of them against n_init + n_iter centers.  They come one after
    another: the look-ahead builds the cloud's kernel, the scaling ranks and
    releases it, then the proposals score their candidates, and the next
    look-ahead starts after the last proposal.
    A failure after the initial design raises ObjectiveError or DriverError,
    either carrying the history so far.  Ctrl-C once the initial design is
    submitted raises RunInterrupted, whose history holds every record of
    the batches recorded before it; the batch it stops is dropped.
    """
    config.validate(domain.dim)
    rng = np.random.default_rng(config.seed)

    lh = improve_lh(diagonal_lh(config.n_init, domain.dim), config.lh_attempts, rng)
    units = lh.unit_points()
    schedule = ahead = buf = None
    if config.n_iter > 0:
        schedule = RadiusSchedule(
            initial_density=config.initial_density,
            decay_exponent=config.decay_exponent,
            total_iters=config.n_iter,
            dim=domain.dim,
        )
        cloud = config.cloud_size if config.use_space_rescaling else 0
        rows = max(cloud, config.proposal.kernel_rows(domain.dim))
        buf = kernel_workspace(rows, config.n_init + config.n_iter)
        ahead = _Lookahead(rng, config, schedule, units, 1, buf)
    history: list[EvaluationRecord] = []
    try:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            _evaluate_into(history, objective, domain, config, pool, units, meanwhile=ahead)

            rescaler = fit_rescaler(np.array([rec.f_raw for rec in history]), config.keep_fraction)
            history = [
                replace(rec, f_scaled=rescaler.rescale(rec.f_raw)) for rec in history
            ]

            batch = config.effective_batch()
            for iteration in range(1, config.n_iter + 1, batch):
                centers = np.array([rec.x_unit for rec in history])
                scaled_values = np.array([rec.f_scaled for rec in history])
                try:
                    if ahead.error is not None:
                        raise ahead.error
                    model = fit(centers, scaled_values)
                    if config.use_space_rescaling:
                        scaling = compute_space_scaling(model, ahead.cloud, config.best_fraction)
                        model = refit_with_scaling(centers, scaled_values, scaling)
                    proposals = propose_batch(model, ahead.draws, best_so_far(history).x_unit, buf)
                except Exception as exc:
                    # Any failure here is the driver's; the history is still worth keeping.
                    raise DriverError(
                        f"driver failed at iteration {iteration}: {exc}", history
                    ) from exc
                units = [p.x for p in proposals]
                following = iteration + len(units)
                ahead = None
                if following <= config.n_iter:
                    pending = np.vstack([centers, units])
                    ahead = _Lookahead(rng, config, schedule, pending, following, buf)
                _evaluate_into(
                    history, objective, domain, config, pool, units, proposals, rescaler, ahead
                )
                last = following - 1
                rho, best = schedule.density(last), best_so_far(history).value
                log.info(
                    "iter=%d rho=%.6f r=%.6f best=%.6g", last, rho, proposals[-1].radius, best
                )
    except KeyboardInterrupt as exc:
        raise RunInterrupted(history) from exc

    best = best_so_far(history)
    return OptimizationResult(
        best_x=best.x_original.copy(),
        best_f=best.value,
        history=history,
        rescaler=rescaler,
    )
