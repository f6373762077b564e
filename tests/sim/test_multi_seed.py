"""Multi-seed grids: one ``Simulator`` per (scenario, seed).

The seed fixes a scenario's whole access pattern, so every seed
replica of a scenario runs on its own simulator. A grid of replicas
swept by any executor, in any seed order, must equal fresh runs of the
frozen reference engine (``tests/sim/reference_engine.py``) bitwise:
no RNG or cache state may leak from one seed's run into another's,
nor through the dataset model and policy instances the seeds share.
"""

import dataclasses
import random

import pytest

from repro.datasets import DatasetModel
from repro.experiments.common import policy_cells
from repro.perfmodel import sec6_cluster
from repro.sim import NaivePolicy, NoPFSPolicy, SimulationConfig, StagingBufferPolicy
from repro.sweep import SweepRunner

from .reference_engine import reference_run

SEEDS = [3, 7, 11, 19, 23]
POLICIES = [NaivePolicy(), StagingBufferPolicy(), NoPFSPolicy()]


def _config() -> SimulationConfig:
    ds = DatasetModel("multi-seed", 1_600, 90.0 / 1_600, 0.02)
    return SimulationConfig(
        dataset=ds,
        system=sec6_cluster(),
        batch_size=8,
        num_epochs=2,
        seed=5,
    )


def _cells(seeds):
    """The seeds x POLICIES grid; every seed shares one dataset model."""
    config = _config()
    cells = []
    for seed in seeds:
        cells += policy_cells(
            dataclasses.replace(config, seed=seed),
            POLICIES,
            tag_fn=lambda p, s=seed: f"s{s}/{p.name}",
        )
    return cells


@pytest.fixture(scope="module")
def expected():
    """The frozen reference engine's result per cell tag."""
    return {
        cell.tag: reference_run(cell.config, cell.policy).to_json()
        for cell in _cells(SEEDS)
    }


@pytest.mark.parametrize(
    "executor,jobs", [("serial", 1), ("process", 2), ("batched", 2)]
)
def test_multi_seed_grid_matches_reference(expected, executor, jobs):
    """Shuffled seed order, any executor: every cell equals the reference."""
    order = SEEDS[:]
    random.Random(0).shuffle(order)
    assert order != SEEDS
    outcome = SweepRunner(n_jobs=jobs, executor=executor).run(_cells(order))
    assert {tag: outcome[tag].to_json() for tag in outcome.results} == expected
