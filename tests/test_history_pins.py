"""Histories pinned by hash: a change meant to be exact must leave every
byte of these runs alone.

The first three pins were computed at commit 0b84c72, the two
pattern-search pins at commit 47d00f8, before the search polled its trials
in batches, and the uniform-candidates pin at commit 783a20a, while a draw
without Gaussian offsets still took its own branch.  The maximized pin,
first computed at 0b84c72, was recomputed on the child of commit 054da58,
when maximize changed from minimizing 1/(f+1) to minimizing -f; that
changes every maximized history, while no minimize pin moved.

The six benchmark pins, computed at commit 1ef977b, are the runs of the
benchmark's two workloads on their seeds 0-2: Goldstein-Price on [-2, 2]^2
with 6 + 250 evaluations, and the tilt on [-1, 1]^4 with 10 + 60, both in
batches of 2 on 2 workers.  They reach 256 and 70 centers, where the BLAS
thread count could in principle change a surface value; they hash the same
under OPENBLAS_NUM_THREADS=1 and at the default of 2 threads, and
test_history_independent_of_blas_thread_count checks a run of 206 centers
both ways.  The objectives are read from bench/objectives.py,
which is loaded without being changed.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

from rbfcors.benchmarks import builtin
from rbfcors.cli import history_to_csv
from rbfcors.cors import ProposalSettings
from rbfcors.engine import OptimizationConfig, run
from rbfcors.scaling import BoundedDomain

OBJECTIVES = Path(__file__).resolve().parents[1] / "bench" / "objectives.py"
_spec = importlib.util.spec_from_file_location("bench_objectives", OBJECTIVES)
objectives = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(objectives)

# name: (objective, dim, config, sha256 of the history CSV, best_f)
PINS = {
    "multimodal, partial last batch": (
        "multimodal",
        2,
        dict(n_init=6, n_iter=9, batch_size=2, workers=2, seed=3),
        "9a6bce4a720acce02e6c30be0e5f4f1c7e03afb240901979f231744215085853",
        2.3437255445225476,
    ),
    "sphere d=4": (
        "sphere",
        4,
        dict(n_init=10, n_iter=12, batch_size=2, seed=5),
        "94b1591f766354929cd2462441e40cdca289b53a6cf763efed3491554337e944",
        0.0009952577774361383,
    ),
    "valley, batch 4 on one worker, no rescaling": (
        "valley",
        2,
        dict(n_init=6, n_iter=8, batch_size=4, workers=1, seed=7, use_space_rescaling=False),
        "e32af3d14aed702a1ff3f921f7cb114620f95859c46ed0718544629ecb8fd2ae",
        0.004444444444444443,
    ),
    "multimodal, maximized": (
        "multimodal",
        2,
        dict(n_init=6, n_iter=6, batch_size=2, seed=11, maximize=True),
        "66ca783a88ce35f5e9855ba16dbffeae92846e4d37e198b6831f23137d60035b",
        10.979149572462738,
    ),
    "sphere d=3, pattern search cut off after two sweeps": (
        "sphere",
        3,
        dict(n_init=8, n_iter=10, batch_size=2, seed=4, proposal=ProposalSettings(pattern_steps=2)),
        "905a636c8876a919b1b612b38aa2ae513c16032e6575c836833049837999011f",
        0.0011461377291287049,
    ),
    "valley, pattern search on one step level": (
        "valley",
        2,
        dict(
            n_init=6,
            n_iter=10,
            batch_size=2,
            workers=2,
            seed=9,
            proposal=ProposalSettings(initial_step=0.02, min_step=0.02),
        ),
        "4a6771509ee1a2f14a6233843ebe34b7e09bde6ef597e7dd23cde0818666cf87",
        0.016677721213225968,
    ),
    "multimodal, uniform candidates only, batch 3": (
        "multimodal",
        2,
        dict(
            n_init=6,
            n_iter=12,
            batch_size=3,
            workers=2,
            seed=13,
            proposal=ProposalSettings(local_candidates=0),
        ),
        "aa0be6f2c39a4106d209933f6a7617663b3414862df7436d39e42e4421f57935",
        2.4287398649211758,
    ),
}


LONG_2D = (objectives.goldstein_price, (-2.0, -2.0), (2.0, 2.0), dict(n_init=6, n_iter=250))
TILT = (objectives.tilt, objectives.TILT_LOWER, objectives.TILT_UPPER, dict(n_init=10, n_iter=60))

# name: (workload, seed, sha256 of the history CSV, best_f)
BENCHMARK_PINS = {
    "long-2d, seed 0": (
        LONG_2D,
        0,
        "d764e32c53c422214b2404faba359b8608470c9e57ad25c924f4cdbfe7640638",
        3.0000080260546227,
    ),
    "long-2d, seed 1": (
        LONG_2D,
        1,
        "8ab667774c3f366562f0e18c2977ce62911ae96f4474b338a1a38dbc2a1d977a",
        3.000090505076422,
    ),
    "long-2d, seed 2": (
        LONG_2D,
        2,
        "337310bc0c05a15e5bf52b2c6d481fbdc9f1665b9847ba02d9a5ba2712db509c",
        3.000020677685435,
    ),
    "tilt, seed 0": (
        TILT,
        0,
        "d42c9fa3043f8c912b745f7e0267bb37ea4f98142ee4daac02001c6bda2239d4",
        0.0,
    ),
    "tilt, seed 1": (
        TILT,
        1,
        "cb9df0fb480e3ae0ff40f32968aa23628774204cf0a99e2e044c97c4929d63d3",
        0.0,
    ),
    "tilt, seed 2": (
        TILT,
        2,
        "1086ba80aa386ce10dc30555fd715f3c1f04c885a561f3ae233241a0c19f95a1",
        0.0,
    ),
}


@pytest.mark.parametrize("name", PINS)
def test_history_matches_its_pin(name):
    objective_name, dim, settings, digest, best_f = PINS[name]
    objective = builtin(objective_name, dim)
    result = run(objective.evaluate, objective.domain, OptimizationConfig(**settings))
    csv = history_to_csv(result.history, dim)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest
    assert result.best_f == best_f


@pytest.mark.parametrize("name", BENCHMARK_PINS)
def test_benchmark_history_matches_its_pin(name):
    (objective, lower, upper, sizes), seed, digest, best_f = BENCHMARK_PINS[name]
    config = OptimizationConfig(**sizes, batch_size=2, workers=2, seed=seed)
    result = run(objective, BoundedDomain(lower, upper), config)
    csv = history_to_csv(result.history, len(lower))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest
    assert result.best_f == best_f
