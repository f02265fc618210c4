"""Histories pinned by hash: a change meant to be exact must leave every
byte of these runs alone.

The first three pins were computed at commit 0b84c72, the two
pattern-search pins at commit 47d00f8, before the search polled its trials
in batches.  The maximized pin, first computed at 0b84c72, was recomputed on
the child of commit 054da58, when maximize changed from minimizing 1/(f+1)
to minimizing -f; that changes every maximized history, while no minimize
pin moved.  Each run stays at 40 centers or fewer, where the OpenBLAS
thread count never changed a surface value.
"""

from __future__ import annotations

import hashlib

import pytest

from rbfcors.benchmarks import builtin
from rbfcors.cli import history_to_csv
from rbfcors.cors import ProposalSettings
from rbfcors.engine import OptimizationConfig, run

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
}


@pytest.mark.parametrize("name", PINS)
def test_history_matches_its_pin(name):
    objective_name, dim, settings, digest, best_f = PINS[name]
    objective = builtin(objective_name, dim)
    result = run(objective.evaluate, objective.domain, OptimizationConfig(**settings))
    csv = history_to_csv(result.history, dim)
    assert hashlib.sha256(csv.encode()).hexdigest() == digest
    assert result.best_f == best_f
