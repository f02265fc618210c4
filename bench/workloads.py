"""The two benchmark workloads, one optimisation run each, and the checks
every run's output must pass.

long-2d calls rbfcors.engine.run in-process with an objective that costs
nothing, so all of its wall time is surrogate overhead.
expensive-cli goes through rbfcors.cli.main with an external command that
sleeps a fixed latency per call, so objective time is real and parallel.

Every objective call is timestamped with time.monotonic(): by a wrapper in
this process, or by the external script itself (see expensive_objective.py).
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.spatial.distance import cdist

import rbfcors.cli
import rbfcors.engine
from rbfcors import BoundedDomain, OptimizationConfig

import objectives

HERE = os.path.dirname(os.path.abspath(__file__))
EXTERNAL_SCRIPT = os.path.join(HERE, "expensive_objective.py")
# Bound before any tracer patches the name, so serialising a history for
# the byte comparison is never itself traced.
_history_to_csv = rbfcors.cli.history_to_csv

# Two evaluations closer than this are the same point; it is the separation
# floor below which rbfcors.rbf.fit refuses the centers.
DUPLICATE_DISTANCE = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    objective: Callable[[Sequence[float]], float]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    f_min: float
    n_init: int
    n_iter: int
    batch_size: int
    workers: int
    # Optimisation seeds of one round.  The set is fixed so that the quality
    # metrics compare like with like across commits; the benchmark seed
    # orders the runs.
    seeds: tuple[int, ...]
    smoke_iter: int
    latency_s: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def external(self) -> bool:
        return self.latency_s > 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-2d",
            why="Goldstein-Price with 250 iterations: over 250 centers make "
            "the RBF fit dominate, and its range makes value clipping active",
            objective=objectives.goldstein_price,
            lower=(-2.0, -2.0),
            upper=(2.0, 2.0),
            f_min=objectives.GOLDSTEIN_PRICE_MIN,
            n_init=6,
            n_iter=250,
            batch_size=2,
            workers=2,
            seeds=(0, 1, 2),
            smoke_iter=4,
        ),
        Workload(
            name="expensive-cli",
            why="CLI run with a 25 ms external objective on 2 workers: real "
            "parallel objective time, line protocol and CSV; under 70 centers, "
            "proposal search dominates its idle gaps",
            objective=objectives.tilt,
            lower=objectives.TILT_LOWER,
            upper=objectives.TILT_UPPER,
            f_min=objectives.TILT_MIN,
            n_init=10,
            n_iter=60,
            batch_size=2,
            workers=2,
            seeds=(0, 1, 2),
            smoke_iter=4,
            latency_s=0.025,
        ),
    )
}


@dataclass
class RunRecord:
    """What one optimisation run produced and how long it took."""

    seed: int
    iterations: int
    start: float
    end: float
    calls: list[tuple[float, float]]
    history_csv: str
    best_f: float


class RunFailed(Exception):
    """A run raised, exited non-zero or failed an output check."""


def run_once(workload: Workload, seed: int, iterations: int, workdir: str, tracer=None) -> RunRecord:
    """One optimisation run of n_init + iterations evaluations; tracer, if
    given, also records the objective calls."""
    if workload.external:
        return _run_cli(workload, seed, iterations, workdir)
    return _run_in_process(workload, seed, iterations, tracer)


def _run_in_process(workload: Workload, seed: int, iterations: int, tracer) -> RunRecord:
    calls: list[tuple[float, float]] = []
    function = workload.objective

    def objective(x):
        start = time.monotonic()
        value = function(x)
        calls.append((start, time.monotonic()))
        return value

    if tracer is not None:
        objective = tracer.wrap("objective", objective)
    domain = BoundedDomain(workload.lower, workload.upper)
    config = OptimizationConfig(
        n_init=workload.n_init,
        n_iter=iterations,
        workers=workload.workers,
        batch_size=workload.batch_size,
        seed=seed,
    )
    start = time.monotonic()
    result = rbfcors.engine.run(objective, domain, config)
    end = time.monotonic()
    return RunRecord(
        seed=seed,
        iterations=iterations,
        start=start,
        end=end,
        calls=calls,
        history_csv=_history_to_csv(result.history, workload.dim),
        best_f=result.best_f,
    )


def _run_cli(workload: Workload, seed: int, iterations: int, workdir: str) -> RunRecord:
    with tempfile.TemporaryDirectory(dir=workdir) as rundir:
        config_path = os.path.join(rundir, "config.json")
        history_path = os.path.join(rundir, "history.csv")
        config = {
            "objective": [
                sys.executable,
                EXTERNAL_SCRIPT,
                "--latency",
                repr(workload.latency_s),
                "--log-dir",
                rundir,
            ],
            "lower": list(workload.lower),
            "upper": list(workload.upper),
            "n_init": workload.n_init,
            "n_iter": iterations,
            "workers": workload.workers,
            "batch_size": workload.batch_size,
            "seed": seed,
            "history_out": history_path,
        }
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=1)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = rbfcors.cli.main(["run", "--config", config_path])
        end = time.monotonic()
        if code != 0:
            raise RunFailed(f"rbfcors run exited {code}: {stderr.getvalue().strip()[-300:]}")
        with open(history_path, encoding="utf-8") as handle:
            history_csv = handle.read()
        calls = []
        for path in glob.glob(os.path.join(rundir, "calls-*.txt")):
            with open(path, encoding="utf-8") as handle:
                calls.extend(tuple(float(v) for v in line.split()) for line in handle)
    best = [part for part in stdout.getvalue().split() if part.startswith("best_f=")]
    if len(best) != 1:
        raise RunFailed(f"rbfcors run printed no best_f: {stdout.getvalue()!r}")
    return RunRecord(
        seed=seed,
        iterations=iterations,
        start=start,
        end=end,
        calls=calls,
        history_csv=history_csv,
        best_f=float(best[0].removeprefix("best_f=")),
    )


@dataclass
class History:
    """A history CSV parsed back into arrays."""

    stage: list[str]
    index: np.ndarray
    x: np.ndarray
    f_raw: np.ndarray
    f_scaled: np.ndarray
    radius: np.ndarray
    fallback: np.ndarray


def parse_history(text: str, dim: int) -> History:
    rows = list(csv.reader(io.StringIO(text)))
    header = ["stage", "index"] + [f"x_{i + 1}" for i in range(dim)]
    header += ["f_raw", "f_scaled", "radius", "fallback"]
    if not rows or rows[0] != header:
        raise RunFailed(f"history header is {rows[:1]}, expected {header}")
    body = rows[1:]
    if any(len(row) != len(header) for row in body):
        raise RunFailed("history row with the wrong number of fields")

    def number(value: str) -> float:
        return float(value) if value else math.nan

    return History(
        stage=[row[0] for row in body],
        index=np.array([int(row[1]) for row in body], dtype=int),
        x=np.array([[float(v) for v in row[2 : 2 + dim]] for row in body]).reshape(-1, dim),
        f_raw=np.array([float(row[2 + dim]) for row in body]),
        f_scaled=np.array([number(row[3 + dim]) for row in body]),
        radius=np.array([number(row[4 + dim]) for row in body]),
        fallback=np.array([row[5 + dim] == "1" for row in body]),
    )


def check_run(workload: Workload, record: RunRecord) -> History:
    """Raise RunFailed unless the run's output is a valid history."""
    history = parse_history(record.history_csv, workload.dim)
    total = workload.n_init + record.iterations
    if len(history.stage) != total:
        raise RunFailed(f"history has {len(history.stage)} rows, expected {total}")
    expected_stage = ["initial"] * workload.n_init + ["subsequent"] * (total - workload.n_init)
    if history.stage != expected_stage or not np.array_equal(history.index, np.arange(total)):
        raise RunFailed("history stages or indices out of order")
    if len(record.calls) != total:
        raise RunFailed(f"objective was called {len(record.calls)} times, expected {total}")
    if not (np.all(history.x >= 0.0) and np.all(history.x <= 1.0)):
        raise RunFailed("a history point lies outside the box")
    for i in range(workload.n_init, total):
        if history.fallback[i]:
            continue
        nearest = cdist(history.x[i : i + 1], history.x[:i]).min()
        if not nearest >= history.radius[i]:
            raise RunFailed(
                f"evaluation {i} is {nearest!r} from an earlier point, "
                f"inside its radius {history.radius[i]!r}"
            )
    if record.best_f != float(history.f_raw.min()):
        raise RunFailed(f"best_f {record.best_f!r} is not the history minimum")
    if record.best_f < workload.f_min - 1e-9:
        raise RunFailed(f"best_f {record.best_f!r} is below the known minimum {workload.f_min!r}")
    return history


def duplicate_count(history: History) -> int:
    """Evaluations at a point already in the history."""
    count = 0
    for i in range(1, len(history.x)):
        if cdist(history.x[i : i + 1], history.x[:i]).min() < DUPLICATE_DISTANCE:
            count += 1
    return count


def batch_sizes(workload: Workload, iterations: int) -> list[int]:
    """Sizes of the evaluate_batch calls of one run, in order: the initial
    design in chunks of `workers`, then the surrogate batches."""
    sizes = []
    for start in range(0, workload.n_init, workload.workers):
        sizes.append(min(workload.workers, workload.n_init - start))
    for start in range(0, iterations, workload.batch_size):
        sizes.append(min(workload.batch_size, iterations - start))
    return sizes


def idle_gaps(workload: Workload, record: RunRecord) -> list[float]:
    """Worker idle time before each surrogate batch: the first call of the
    batch minus the last return of the batch before it, in seconds.

    Batches are barriers, so sorting the calls by start time and cutting at
    the known batch sizes assigns every call to its batch.
    """
    calls = sorted(record.calls)
    batches = []
    position = 0
    sizes = batch_sizes(workload, record.iterations)
    for size in sizes:
        batches.append(calls[position : position + size])
        position += size
    initial_batches = len(sizes) - math.ceil(record.iterations / workload.batch_size)
    gaps = []
    for b in range(initial_batches, len(batches)):
        previous_end = max(end for _, end in batches[b - 1])
        gaps.append(min(start for start, _ in batches[b]) - previous_end)
    return gaps
